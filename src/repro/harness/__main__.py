"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                 # run everything
    python -m repro.harness hcv pnmf        # run selected experiments
    python -m repro.harness --list          # list experiment names
    python -m repro.harness fig11a --trace out.json
                                            # + Chrome/Perfetto trace
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import AnalysisCollector, Severity, format_region_peaks
from repro.common.config import EvictionPolicyName, MemphisConfig
from repro.common.runtime import RuntimeContext, scope
from repro.faults import FaultPlan
from repro.harness import runner
from repro.obs import (
    ExplainCollector,
    TraceCollector,
    export_chrome_trace,
    format_summary,
)
from repro.server import run_server_demo

EXPERIMENTS = {
    "fig2c": runner.run_experiment_fig2c,
    "fig2d": runner.run_experiment_fig2d,
    "fig11a": runner.run_experiment_fig11a,
    "fig11b": runner.run_experiment_fig11b,
    "fig12a": runner.run_experiment_fig12a,
    "fig12b": runner.run_experiment_fig12b,
    "hcv": runner.run_experiment_hcv,
    "pnmf": runner.run_experiment_pnmf,
    "hband": runner.run_experiment_hband,
    "clean": runner.run_experiment_clean,
    "hdrop": runner.run_experiment_hdrop,
    "en2de": runner.run_experiment_en2de,
    "tlvis": runner.run_experiment_tlvis,
    "table2": runner.run_experiment_table2,
    "ablation-policies": runner.run_ablation_policies,
    "ablation-ordering": runner.run_ablation_ordering,
}

#: flags that change what sessions compute; ``--server`` runs its own
#: fixed demo, so combining them is refused rather than silently dropped.
_EXPERIMENT_ONLY_FLAGS = ("faults", "policy", "gpu_policy", "spark_policy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the MEMPHIS paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record a structured trace of every session "
                             "(spans, instants, and gauge samples as "
                             "counter tracks: region occupancy, GPU "
                             "residency, ...) and write a Chrome/Perfetto "
                             "trace file")
    parser.add_argument("--trace-summary", action="store_true",
                        help="print the text trace summary (top-k "
                             "instructions, hit rates, evictions, gauge "
                             "sparklines); without --trace the trace "
                             "stays in memory only")
    parser.add_argument("--explain", action="store_true",
                        help="capture every compiled block and print the "
                             "plan-level EXPLAIN (post-rewrite HOP DAG + "
                             "linearized instruction stream with reuse/"
                             "prefetch/checkpoint/evict annotations)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject deterministic faults (repro.faults): "
                             "SPEC is a plan in the fault DSL, e.g. "
                             "'spark_task@0;gpu_alloc@2,count=2;seed=7' "
                             "(see docs/FAULTS.md)")
    parser.add_argument("--verify-ir", action="store_true",
                        help="plan and verify every compiled block "
                             "(repro.analysis); print the merged report and "
                             "exit 1 on error-severity findings or a "
                             "predicted memory peak below the observed one")
    policy_names = [p.value for p in EvictionPolicyName]
    parser.add_argument("--policy", choices=policy_names, default=None,
                        help="eviction policy of the driver lineage cache "
                             "(CP region; default cost_size, paper Eq. 1)")
    parser.add_argument("--gpu-policy", choices=policy_names, default=None,
                        help="eviction policy of the GPU free lists "
                             "(GPU region; default cost_size, paper Eq. 2)")
    parser.add_argument("--spark-policy", choices=policy_names, default=None,
                        help="eviction policy of the Spark cache tier "
                             "(SP_CACHE region; default: inherit --policy)")
    parser.add_argument("--server", metavar="N", type=int, default=None,
                        help="multi-tenant server mode: run N concurrent "
                             "sessions across two tenants on one shared "
                             "substrate (deterministic seeded interleave) "
                             "and print the cross-session dedup / "
                             "per-tenant occupancy report (docs/SERVER.md)")
    parser.add_argument("--server-seed", metavar="SEED", type=int, default=0,
                        help="interleave seed for --server (default 0); "
                             "the same seed reproduces the identical "
                             "schedule, counters, and results")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.server is not None:
        dropped = [f"--{flag.replace('_', '-')}"
                   for flag in _EXPERIMENT_ONLY_FLAGS if getattr(args, flag)]
        if dropped:
            parser.error(f"{', '.join(dropped)} cannot be combined with "
                         f"--server (the server demo fixes its own "
                         f"configuration)")
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} "
                     f"(see --list)")

    rt = _context_from_args(args)
    ok = True
    try:
        with rt:
            if args.server is not None:
                ok = _run_server(args)
            else:
                for name in selected:
                    start = time.time()
                    result = EXPERIMENTS[name]()
                    wall = time.time() - start
                    print(result.table)
                    print(f"[{name}: regenerated in {wall:.1f}s wall]\n")
    finally:
        # also after a failed experiment: what was collected is exported
        _report_collected(args, rt)
    if rt.analysis is not None and not _report_analysis(rt.analysis):
        return 1
    return 0 if ok else 1


def _report_analysis(analysis: AnalysisCollector) -> bool:
    """Print the ``--verify-ir`` findings, plus the peak table of every
    session whose predicted peak fell below the observed one; True iff
    neither an error nor such a bound violation was found."""
    report = analysis.merged()
    print(f"[verify-ir: {analysis.blocks_verified} block(s) "
          f"verified -- {report.summary()}]")
    shown = report.format(min_severity=Severity.WARNING)
    if shown:
        print(shown)
    low = {label for label, *_, ok in analysis.check_bounds() if not ok}
    for label, planner in analysis.planners:
        if label in low:
            peaks = format_region_peaks(planner.predicted, planner.observed,
                                        planner.budgets)
            print(f"   session {label} ({planner.blocks} block(s)) "
                  + peaks.replace("\n", "\n   "))
    return not report.errors() and not low


def _context_from_args(args: argparse.Namespace) -> RuntimeContext:
    """The runtime context the command line asks for (not yet entered)."""
    fields: dict = {}
    if args.trace is not None or args.trace_summary:
        # --trace-summary without --trace still needs events: collect
        # in memory only and skip the file export.
        fields["trace"] = TraceCollector()
    if args.explain:
        fields["explain"] = ExplainCollector()
    if args.verify_ir:
        fields["analysis"] = AnalysisCollector()
    if args.faults is not None:
        plan = fields["faults"] = FaultPlan.parse(args.faults)
        print(f"[faults: injecting {len(plan.specs)} fault spec(s), "
              f"seed {plan.seed}]")
    chosen = {label: value
              for label, value in (("policy", args.policy),
                                   ("gpu", args.gpu_policy),
                                   ("spark", args.spark_policy)) if value}
    if chosen:
        print(f"[memory: eviction policy overrides {chosen}]")
        fields["configure"] = _configure_from_args(args)
    return scope(**fields)


def _configure_from_args(args: argparse.Namespace):
    """The ``configure`` hook ``--policy`` / ``--gpu-policy`` /
    ``--spark-policy`` ask for."""
    policy, gpu_policy, spark_policy = (
        EvictionPolicyName(value) if value else None
        for value in (args.policy, args.gpu_policy, args.spark_policy))

    def configure(config: MemphisConfig) -> None:
        if policy is not None:
            config.cache.policy = policy
        if gpu_policy is not None:
            config.gpu.policy = gpu_policy
        if spark_policy is not None:
            config.cache.spark_policy = spark_policy

    return configure


def _run_server(args: argparse.Namespace) -> bool:
    """``--server N``: the multi-tenant demo; True iff every request ran."""
    start = time.time()
    report = run_server_demo(args.server, seed=args.server_seed)
    print(report.format())
    print(f"[server: {args.server} session(s), seed {args.server_seed}, "
          f"{time.time() - start:.1f}s wall]")
    return report.ok


def _report_collected(args: argparse.Namespace, rt: RuntimeContext) -> None:
    """Export / print whatever the context's collectors gathered."""
    if rt.trace is not None:
        events = rt.trace.events()
        if args.trace is not None:
            export_chrome_trace(events, args.trace,
                                rt.trace.session_labels)
            print(f"[trace: {len(events)} events from "
                  f"{rt.trace.num_sessions} sessions -> {args.trace}]")
        if rt.trace.ring.dropped:
            print(f"[trace: ring buffer dropped "
                  f"{rt.trace.ring.dropped} oldest events]")
        if args.trace_summary:
            print()
            print(format_summary(events))
    if rt.explain is not None:
        print()
        print(rt.explain.render())


if __name__ == "__main__":
    sys.exit(main())
