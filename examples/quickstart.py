"""Quickstart: lineage-based reuse in a grid-search loop.

Demonstrates the MEMPHIS session API on the paper's running example
(Example 4.1): grid-search hyper-parameter tuning over a direct-solve
linear regression.  The core operations ``t(X) %*% X`` and ``t(X) %*% y``
are independent of the regularization parameter, so MEMPHIS reuses them
across the whole grid — including the Spark-placed variants when the
input is large.

Run:
    python examples/quickstart.py
    python examples/quickstart.py --trace trace.json   # Perfetto timeline
"""

import argparse

import numpy as np

from repro import MemphisConfig, Session
from repro.common.runtime import scope
from repro.ml import lin_reg_ds, lin_reg_predict, r2_score
from repro.obs import TraceCollector, export_chrome_trace, format_summary


def grid_search(session: Session, X_data: np.ndarray,
                y_data: np.ndarray, regs: list[float]) -> tuple[float, float]:
    """Find the best ridge parameter by training on the full grid."""
    X = session.read(X_data, "X")
    y = session.read(y_data, "y")
    best_reg, best_r2 = regs[0], float("-inf")
    for reg in regs:
        beta = lin_reg_ds(session, X, y, reg)
        score = r2_score(session, y, lin_reg_predict(session, X, beta))
        r2 = score.item()
        if r2 > best_r2:
            best_reg, best_r2 = reg, r2
    return best_reg, best_r2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write a Chrome/Perfetto trace of both runs")
    args = parser.parse_args()

    rng = np.random.default_rng(42)
    X_data = rng.random((60_000, 32))
    beta_true = rng.standard_normal((32, 1))
    y_data = X_data @ beta_true + 0.1 * rng.standard_normal((60_000, 1))
    regs = [10.0 ** (i / 2 - 3) for i in range(10)]

    # sessions built inside the scope trace into its collector (with no
    # collector, ``scope(trace=None)`` changes nothing)
    collector = TraceCollector() if args.trace is not None else None
    with scope(trace=collector):
        for label, config in [
            ("Base (no reuse)", MemphisConfig.base()),
            ("MEMPHIS", MemphisConfig.memphis()),
        ]:
            session = Session(config)
            best_reg, best_r2 = grid_search(session, X_data, y_data, regs)
            stats = session.stats
            print(f"{label:18s} best reg={best_reg:<8g} R^2={best_r2:.4f}")
            print(f"{'':18s} simulated time  : {session.elapsed() * 1000:9.2f} ms")
            print(f"{'':18s} spark jobs      : {stats.get('spark/jobs')}")
            print(f"{'':18s} cache hits      : {stats.get('cache/hits')}")
            print(f"{'':18s} RDDs reused     : {stats.get('spark/rdds_reused')}")
            print(f"{'':18s} actions reused  : {stats.get('spark/actions_reused')}")
            print()

    if collector is not None:
        events = collector.events()
        export_chrome_trace(events, args.trace, collector.session_labels)
        print(f"[trace: {len(events)} events -> {args.trace}]")
        print()
        print(format_summary(events))


if __name__ == "__main__":
    main()
