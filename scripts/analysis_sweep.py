#!/usr/bin/env python
"""Run the static IR verifier over the quickstart example and every
registered workload, failing on any error-severity diagnostic.

Every sweep also runs under the static memory planner
(``repro.analysis.memplan``): each session's per-region predicted peak
must be an upper bound on the runtime's observed ``peak_used``
watermark, and a bound violation fails the gate like an error
diagnostic would.

This is the repository's self-lint gate (run by
``.github/workflows/lint.yml``): the analyzer must report zero errors
over all programs the repo itself compiles.

With ``--fusion`` the sweep runs under ``runtime.scope(fusion=True)``,
so every session compiles with the reuse-aware fusion rewrite enabled
and the FUS rule family (``repro.analysis.fusion_rules``) self-lints
every fused chain the repo's own workloads produce.

Usage::

    python scripts/analysis_sweep.py
    python scripts/analysis_sweep.py --fusion
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "examples"))

import numpy as np  # noqa: E402

from repro import MemphisConfig, Session  # noqa: E402
from repro.analysis import AnalysisCollector, MemplanCollector  # noqa: E402
from repro.analysis.targets import TARGETS  # noqa: E402
from repro.common.runtime import scope  # noqa: E402


def sweep_quickstart() -> None:
    """The README's grid-search example at a small size."""
    from quickstart import grid_search

    rng = np.random.default_rng(1)
    X = rng.random((256, 16))
    y = X @ rng.random((16, 1)) + 0.01 * rng.random((256, 1))
    grid_search(Session(MemphisConfig.memphis()), X, y,
                regs=[0.01, 0.1, 1.0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/analysis_sweep.py",
        description="Static IR verifier self-lint over all workloads.",
    )
    parser.add_argument("--fusion", action="store_true",
                        help="enable the reuse-aware fusion rewrite on "
                             "every session so the FUS rules self-lint "
                             "the fused plans")
    args = parser.parse_args(argv)

    if args.fusion:
        print("[compiler: reuse-aware operator fusion enabled]")
    with scope(fusion=args.fusion or None):
        return _sweep_all()


def _sweep_all() -> int:
    sweeps = [("quickstart", sweep_quickstart)]
    sweeps += [(name, thunk) for name, (_, thunk) in TARGETS.items()]

    failed = 0
    bound_violations = 0
    for name, thunk in sweeps:
        collector, memplan = AnalysisCollector(), MemplanCollector()
        with scope(analysis=collector, memplan=memplan):
            thunk()
        report = collector.merged()
        errors = report.errors()
        bad_bounds = [(label, region, pred, obs)
                      for label, region, pred, obs, ok
                      in memplan.check_bounds() if not ok]
        status = f"{len(errors)} error(s)" if errors else "clean"
        if bad_bounds:
            status += f", {len(bad_bounds)} memplan bound violation(s)"
        print(f"{name:12s} {collector.blocks_verified:5d} block(s)  "
              f"[{report.summary()}] -> {status}")
        for diag in errors:
            print("   " + diag.format().replace("\n", "\n   "))
        for label, region, pred, obs in bad_bounds:
            print(f"   memplan: session {label} region {region}: "
                  f"predicted peak {pred} B < observed {obs} B")
        failed += len(errors)
        bound_violations += len(bad_bounds)

    if failed or bound_violations:
        print(f"FAIL: {failed} error-severity diagnostic(s), "
              f"{bound_violations} memplan bound violation(s)")
        return 1
    print(f"OK: {len(sweeps)} program(s) verified, zero errors, "
          "all memory-plan bounds hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
