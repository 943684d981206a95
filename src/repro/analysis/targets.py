"""Registry of analyzable workload targets for the CLI.

Each target is a small, fast configuration of one of the paper's
workloads (§6).  The CLI runs a target under a runtime scope carrying
an :class:`~repro.analysis.hook.AnalysisCollector`, so every compiled
block that flows through :meth:`Session.evaluate` is verified by the
full pass pipeline and its diagnostics are gathered for the report.

This module imports the workload package (which pulls in
``repro.core.session``) and must therefore only be imported from entry
points (``repro.analysis.__main__``, ``benchmarks/test_matrix.py``),
never from the analysis core modules.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.config import MemphisConfig
from repro.core.session import Session
from repro.ml import lin_reg_ds, lin_reg_predict, r2_score
from repro.workloads.clean import run_clean
from repro.workloads.en2de import run_en2de
from repro.workloads.hband import run_hband
from repro.workloads.hcv import run_hcv
from repro.workloads.hdrop import run_hdrop
from repro.workloads.micro import run_fig2c, run_reuse_overhead
from repro.workloads.pnmf_wl import run_pnmf
from repro.workloads.tlvis import run_tlvis


def run_quickstart() -> list[float]:
    """The README's grid search (``examples/quickstart.py``) at a small
    size; returns the R^2 of every grid point."""
    rng = np.random.default_rng(1)
    X_data = rng.random((256, 16))
    y_data = X_data @ rng.random((16, 1)) + 0.01 * rng.random((256, 1))
    session = Session(MemphisConfig.memphis())
    X, y = session.read(X_data, "X"), session.read(y_data, "y")
    return [
        r2_score(session, y, lin_reg_predict(
            session, X, lin_reg_ds(session, X, y, reg))).item()
        for reg in (0.01, 0.1, 1.0)
    ]


#: name -> (description, thunk).  Thunks use deliberately small
#: problem sizes: the analyzer checks compiled IR, not performance, so
#: each target only needs to exercise its workload's DAG shapes.
TARGETS: dict[str, tuple[str, Callable[[], object]]] = {
    "quickstart": (
        "the README's ridge grid search (direct solve, MPH)",
        run_quickstart,
    ),
    "hcv": (
        "hyper-parameter tuned cross-validation (lmCG, MPH)",
        lambda: run_hcv("MPH", 5.0),
    ),
    "pnmf": (
        "Poisson non-negative matrix factorization (MPH)",
        lambda: run_pnmf("MPH", 5),
    ),
    "hband": (
        "hyper-band hyper-parameter search (MPH)",
        lambda: run_hband("MPH", 5.0),
    ),
    "clean": (
        "data-cleaning pipeline enumeration (MPH)",
        lambda: run_clean("MPH", 12),
    ),
    "hdrop": (
        "MLP grid search with dropout (MPH, 1 epoch)",
        lambda: run_hdrop("MPH", epochs=1),
    ),
    "en2de": (
        "transformer encoder inference (MPH)",
        lambda: run_en2de("MPH"),
    ),
    "tlvis": (
        "transfer-learning feature extraction (MPH)",
        lambda: run_tlvis("MPH", num_images=2000),
    ),
    "micro": (
        "microbenchmarks: fig2c chain reuse + reuse-overhead sweep",
        lambda: (
            run_fig2c("MEMPHIS", num_chains=20),
            run_reuse_overhead("Reuse", 8 * 1024, iterations=10),
        ),
    ),
}


def resolve(names: list[str]) -> dict[str, Callable[[], object]]:
    """Map requested target names to thunks; unknown names raise."""
    if not names:
        return {name: thunk for name, (_, thunk) in TARGETS.items()}
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        raise KeyError(
            f"unknown analysis target(s): {', '.join(sorted(unknown))}; "
            f"available: {', '.join(TARGETS)}"
        )
    return {name: TARGETS[name][1] for name in names}
