"""Wall-clock benchmark track: real dispatch throughput, not simulated time.

Every other benchmark in this repository reports *simulated* seconds
from :class:`~repro.common.simclock.SimClock` — deterministic and
machine-independent, but blind to the real cost of the interpreter loop
itself.  This track times the hot path with ``time.perf_counter`` on
small steady-state workloads, producing the numbers that the
interpreter-dispatch optimizations (``repro.runtime.dispatch``,
``repro.backends.cpu.vectorized``, the lineage interner, the
single-traversal compile pipeline) actually change.

Methodology (see docs/PERFORMANCE.md):

* every workload runs **steady-state**: one session, a warmup phase,
  then ``repeats`` measured batches of ``iters`` training iterations —
  the regime where lineage interning and cache reuse engage;
* *items* are dispatched instructions
  (``runtime/instructions_executed + runtime/instructions_skipped``),
  read from the stats counters, so throughput is comparable across
  dispatch paths that execute the same plans;
* ``items_per_s`` is the **best** batch (max across repeats): shared
  machines suffer burst contention, and the fastest batch is the
  estimator that converges to the uncontended machine;
* latency percentiles (p50/p99) come from per-iteration
  ``perf_counter`` samples pooled across all batches.

Results feed the ``BENCH_wallclock`` document
(:func:`repro.harness.telemetry.build_wallclock_report`) emitted by
``scripts/bench_report.py --wallclock`` and gated in CI against the
checked-in baseline (``benchmarks/baselines/wallclock_baseline.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.config import MemphisConfig, ReuseMode
from repro.common.stats import INSTRUCTIONS_EXECUTED, INSTRUCTIONS_SKIPPED
from repro.core.session import Session


@dataclass
class WallclockResult:
    """One workload's wall-clock measurement."""

    name: str
    repeats: int
    iters_per_repeat: int
    items: int  #: dispatched instructions in the best batch.
    items_per_s: float  #: best-batch throughput.
    p50_ms: float  #: median per-iteration latency across all batches.
    p99_ms: float  #: tail per-iteration latency across all batches.

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "iters_per_repeat": self.iters_per_repeat,
            "items": int(self.items),
            "items_per_s": float(self.items_per_s),
            "p50_ms": float(self.p50_ms),
            "p99_ms": float(self.p99_ms),
        }


def _items(session: Session) -> int:
    counters = session.stats
    return (counters.get(INSTRUCTIONS_EXECUTED)
            + counters.get(INSTRUCTIONS_SKIPPED))


def _measure(name: str, session: Session, step: Callable[[], None],
             repeats: int, iters: int, warmup: int) -> WallclockResult:
    """Warm up, then time ``repeats`` batches of ``iters`` steps."""
    for _ in range(warmup):
        step()
    pc = time.perf_counter
    best_rate = 0.0
    best_items = 0
    lats: list[float] = []
    for _ in range(repeats):
        before = _items(session)
        batch_start = pc()
        for _ in range(iters):
            t0 = pc()
            step()
            lats.append(pc() - t0)
        batch_wall = pc() - batch_start
        batch_items = _items(session) - before
        rate = batch_items / batch_wall if batch_wall > 0 else 0.0
        if rate > best_rate:
            best_rate = rate
            best_items = batch_items
    lats.sort()
    n = len(lats)
    return WallclockResult(
        name=name,
        repeats=repeats,
        iters_per_repeat=iters,
        items=best_items,
        items_per_s=best_rate,
        p50_ms=lats[n // 2] * 1000.0,
        p99_ms=lats[min(n - 1, (n * 99) // 100)] * 1000.0,
    )


# ----------------------------------------------------------------- workloads

def _training_step(session: Session, X, y, state: dict) -> None:
    """One ridge-style gradient iteration (the quickstart program)."""
    w = state["w"]
    grad = X.t() @ (X @ w) - X.t() @ y
    # step size below 2/lambda_max(X^T X) so the iterates stay finite
    w = w - 0.002 * grad
    w.compute()
    state["w"] = w


def _training_session(config: MemphisConfig):
    session = Session(config)
    data = (np.arange(200.0 * 8).reshape(200, 8) % 17.0) / 17.0
    target = (np.arange(200.0).reshape(200, 1) % 5.0) / 5.0
    X = session.read(data, "X")
    y = session.read(target, "y")
    state = {"w": session.read(np.zeros((8, 1)), "w0")}
    return session, (lambda: _training_step(session, X, y, state))


def run_quickstart(repeats: int = 5, iters: int = 300,
                   warmup: int = 30) -> WallclockResult:
    """Steady-state quickstart training loop, full MEMPHIS config.

    Observability and fault injection are disabled (the
    ``MemphisConfig.memphis()`` default), so every hook of the dispatch
    loop is off; lineage interning and cache probes/puts are fully
    engaged.  This is the track's primary workload.
    """
    session, step = _training_session(MemphisConfig.memphis())
    return _measure("quickstart", session, step, repeats, iters, warmup)


def run_quickstart_base(repeats: int = 5, iters: int = 300,
                        warmup: int = 30) -> WallclockResult:
    """The same loop under the reuse-disabled baseline config."""
    session, step = _training_session(MemphisConfig.base())
    return _measure("quickstart_base", session, step, repeats, iters, warmup)


def _cellwise_step(session: Session, X, state: dict) -> None:
    """A straight-line cell-wise pipeline (batch-dispatch eligible)."""
    out = (((X * 2.0) + 1.0).sigmoid() * 0.5).relu()
    out.compute()
    state["last"] = out


def run_cellwise_chain(repeats: int = 5, iters: int = 120,
                       warmup: int = 10) -> WallclockResult:
    """Cell-wise ufunc chains under ``ReuseMode.NONE``.

    With probes and puts disabled the loop batch-dispatches the
    maximal ``*,+,sigmoid,*,relu`` run through the vectorized kernel
    layer — this workload regresses if chain planning or the compiled
    ufunc closures do.
    """
    config = MemphisConfig.memphis()
    config.reuse_mode = ReuseMode.NONE
    session = Session(config)
    data = (np.arange(128.0 * 128).reshape(128, 128) % 23.0) / 23.0 - 0.5
    X = session.read(data, "X")
    state: dict = {}
    return _measure("cellwise_chain", session,
                    lambda: _cellwise_step(session, X, state),
                    repeats, iters, warmup)


def run_server_mixed(repeats: int = 3, iters: int = 6,
                     warmup: int = 1) -> WallclockResult:
    """Multi-session server throughput (``repro.server``).

    Each step runs one complete shared-substrate demo — three sessions
    across two tenants on overlapping pure pipelines plus two impure
    requests, deterministically interleaved — and items aggregate the
    dispatched instructions of *every* session.  This workload regresses
    if key namespacing, cross-session probes, or the scheduler's
    activation switches add per-instruction cost.
    """
    from types import SimpleNamespace

    from repro.common.stats import Stats
    from repro.server import run_server_demo

    tally = SimpleNamespace(stats=Stats())

    def step() -> None:
        report = run_server_demo(3, seed=0)
        tally.stats.merge(report.merged)

    return _measure("server_mixed", tally, step, repeats, iters, warmup)


#: name -> (runner, fast-mode kwargs).
WALLCLOCK_WORKLOADS: dict[str, Callable[..., WallclockResult]] = {
    "quickstart": run_quickstart,
    "quickstart_base": run_quickstart_base,
    "cellwise_chain": run_cellwise_chain,
    "server_mixed": run_server_mixed,
}

#: reduced repeat counts for CI (--fast).
FAST_KWARGS = {
    "quickstart": {"repeats": 3, "iters": 150, "warmup": 20},
    "quickstart_base": {"repeats": 3, "iters": 150, "warmup": 20},
    "cellwise_chain": {"repeats": 3, "iters": 60, "warmup": 5},
    "server_mixed": {"repeats": 2, "iters": 4, "warmup": 1},
}


def run_track(fast: bool = False,
              names: list[str] | None = None) -> list[WallclockResult]:
    """Run the wall-clock track (optionally the CI-sized variant)."""
    selected = names or list(WALLCLOCK_WORKLOADS)
    results = []
    for name in selected:
        runner = WALLCLOCK_WORKLOADS[name]
        kwargs = FAST_KWARGS.get(name, {}) if fast else {}
        results.append(runner(**kwargs))
    return results
