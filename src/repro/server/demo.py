"""Canonical multi-tenant workload for the reuse server.

Deterministic programs used by the harness ``--server`` mode and the
server tests (``tests/test_server.py``): several sessions across two
tenants run an *identical* pure ridge pipeline over the same datasets —
every session after the first should hit the shared substrate
(``server/cross_session_hits``) — while the impure variants draw
unseeded random matrices and therefore stay session-scoped (zero
cross-session hits, by the namespacing rules in
``repro.core.substrate``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.server.scheduler import Scheduler, ServerReport


def demo_dataset(rows: int, cols: int, offset: float = 0.0) -> np.ndarray:
    """A deterministic input matrix (same bytes in every process)."""
    n = rows * cols
    return (
        (np.arange(n, dtype=np.float64) * 0.25 + offset) % 17.0
    ).reshape(rows, cols)


def pure_program(rows: int = 48, cols: int = 6,
                 ridge: float = 0.1,
                 name: str = "demo_X") -> Callable:
    """A fully deterministic ridge-regression pipeline.

    Every session running this reads byte-identical datasets under the
    same names, so its entire lineage unifies under the global namespace
    — the second and later sessions reuse the first one's entries.
    """
    features = demo_dataset(rows, cols)
    labels = demo_dataset(rows, 1, offset=3.0)

    def program(session):
        X = session.read(features, name)
        y = session.read(labels, name + "_y")
        yield
        gram = X.t() @ X
        xty = (y.t() @ X).t()
        session.evaluate([gram, xty])
        yield
        beta = session.solve(gram + ridge * session.eye(cols), xty)
        return float(session.compute(beta).sum())

    return program


def impure_program(rows: int = 32, cols: int = 4) -> Callable:
    """A pipeline rooted at an *unseeded* ``rand``.

    The auto-drawn seed is a session-local counter, so identical
    lineage across sessions names different data — the substrate keeps
    every key session-scoped and cross-session hits stay at zero.
    """

    def program(session):
        noise = session.rand(rows, cols)
        yield
        gram = noise.t() @ noise
        return float(session.compute(gram).sum())

    return program


def run_server_demo(sessions: int = 4, *, seed: int = 0,
                    quota: Optional[int] = None) -> ServerReport:
    """Run the canonical demo: ``sessions`` pure requests + 2 impure.

    Requests alternate between tenants ``alpha`` and ``beta``; ``quota``
    (bytes) caps each tenant's CP fair share when given.  Deterministic
    for a fixed ``seed``: same interleave, same counters, same results.
    """
    scheduler = Scheduler(seed=seed)
    scheduler.add_tenant("alpha", quota)
    scheduler.add_tenant("beta", quota)
    for i in range(sessions):
        tenant = "alpha" if i % 2 == 0 else "beta"
        scheduler.submit(tenant, pure_program(), name=f"pure{i}")
    scheduler.submit("alpha", impure_program(), name="impure0")
    scheduler.submit("beta", impure_program(), name="impure1")
    return scheduler.run()
