"""CLI: run registered workloads under the IR verifier and report.

Usage::

    python -m repro.analysis                  # analyze every target
    python -m repro.analysis hcv pnmf         # selected targets
    python -m repro.analysis --list           # list targets
    python -m repro.analysis --list-passes    # list analysis passes
    python -m repro.analysis --min-severity info --format json

Exit status is 1 iff any error-severity diagnostic was produced or,
with ``--memplan``, any region's predicted peak fell below the observed
one (the CI lint job runs ``--memplan`` over all targets).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.diagnostics import Severity
from repro.analysis.hook import AnalysisCollector
from repro.analysis.manager import DEFAULT_PASS_ORDER
from repro.analysis.memplan import MemplanCollector, format_region_peaks
from repro.common.runtime import scope


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify the IR of compiled workload "
                    "programs (DAG structure, placement legality, "
                    "linearization soundness, liveness, async races, "
                    "lineage determinism).",
    )
    parser.add_argument("targets", nargs="*",
                        help="target names (default: all registered)")
    parser.add_argument("--list", action="store_true",
                        help="list available targets and exit")
    parser.add_argument("--list-passes", action="store_true",
                        help="list analysis passes in pipeline order "
                             "and exit")
    parser.add_argument("--min-severity", default="warning",
                        choices=["info", "warning", "error"],
                        help="lowest severity to print individually "
                             "(default: warning; counts always shown)")
    parser.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="output format (default: text)")
    parser.add_argument("--memplan", action="store_true",
                        help="also run the static memory planner over "
                             "every session each target creates and "
                             "print its per-region predicted-vs-"
                             "observed peak table")
    args = parser.parse_args(argv)

    if args.list_passes:
        from repro.analysis.base import registered_passes

        passes = registered_passes()
        for name in DEFAULT_PASS_ORDER:
            cls = passes[name]
            print(f"{name:28s} [{cls.runs_on}]  {cls.__doc__.splitlines()[0]}")
        return 0

    # Imported lazily: pulls in the workload package -> Session.
    from repro.analysis import targets as target_registry

    if args.list:
        for name, (desc, _) in target_registry.TARGETS.items():
            print(f"{name:10s} {desc}")
        return 0

    try:
        selected = target_registry.resolve(args.targets)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    min_sev = Severity.parse(args.min_severity)
    results = []
    total_errors = bound_violations = 0
    for name, thunk in selected.items():
        start = time.perf_counter()
        collector = AnalysisCollector()
        memplan = MemplanCollector() if args.memplan else None
        with scope(analysis=collector, memplan=memplan):
            thunk()
        elapsed = time.perf_counter() - start
        report = collector.merged()
        total_errors += len(report.errors())
        bounds = memplan.check_bounds() if memplan is not None else []
        bound_violations += sum(not ok for *_, ok in bounds)
        results.append((name, collector, report, elapsed, memplan, bounds))

    if args.format == "json":
        payload = {
            "targets": {
                name: {
                    "blocks_verified": collector.blocks_verified,
                    "counts": report.counts(),
                    "diagnostics": [d.to_json() for d in report],
                    **({"memplan": [
                        {"session": label, "region": region,
                         "predicted": pred, "observed": obs, "ok": ok}
                        for label, region, pred, obs, ok in bounds
                    ]} if memplan is not None else {}),
                }
                for name, collector, report, _, memplan, bounds in results
            },
            "total_errors": total_errors,
            "bound_violations": bound_violations,
        }
        print(json.dumps(payload, indent=2))
        return 1 if total_errors or bound_violations else 0

    for name, collector, report, elapsed, memplan, _ in results:
        print(f"== {name}: {collector.blocks_verified} block(s) verified "
              f"in {elapsed:.2f}s -- {report.summary()}")
        shown = report.format(min_severity=min_sev)
        if shown:
            print(shown)
        hidden = len(report) - len(report.at_least(min_sev))
        if hidden:
            print(f"   ({hidden} finding(s) below "
                  f"{min_sev.label!r} hidden; use --min-severity info)")
        if memplan is not None:
            for label, planner in memplan.planners():
                peaks = format_region_peaks(planner.predicted,
                                            planner.observed,
                                            planner.budgets)
                print(f"   session {label} ({planner.blocks} block(s)) "
                      + peaks.replace("\n", "\n   "))
    print(f"-- {len(results)} target(s), "
          f"{sum(len(report) for _, _, report, *_ in results)} "
          f"finding(s), {total_errors} error(s)"
          + (f", {bound_violations} memplan bound violation(s)"
             if args.memplan else ""))
    return 1 if total_errors or bound_violations else 0


if __name__ == "__main__":
    sys.exit(main())
