#!/usr/bin/env python
"""Benchmark telemetry pipeline: run experiments, emit BENCH_<n>.json.

Runs harness experiments under a scoped metrics collector and writes
one schema-validated record per experiment (simulated time, wall-clock,
key counters, metric-series digests).  CI runs the fast subset and
gates on the schema; the report is an output (git-ignored), not a
committed contract — real wall-clock is measured by ``bench/run.py``.

Usage::

    python scripts/bench_report.py                  # all experiments
    python scripts/bench_report.py --fast           # CI subset
    python scripts/bench_report.py fig11a fig2c     # selected
    python scripts/bench_report.py --validate BENCH_5.json
    python scripts/bench_report.py --fusion-gate   # fused-vs-unfused gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.harness.__main__ import EXPERIMENTS  # noqa: E402
from repro.harness.telemetry import (  # noqa: E402
    build_bench_report,
    experiment_record,
    validate_bench_report,
)
from repro.common.runtime import scope  # noqa: E402
from repro.obs import MetricsCollector  # noqa: E402

#: the issue number this report belongs to (BENCH_<ISSUE>.json).
ISSUE = 5

#: quick experiments CI can afford on every push.
FAST_SUBSET = ("fig2c", "fig2d", "fig11a", "fig12b")


def run_experiments(names: list[str]) -> list[dict]:
    """Run each experiment under its own metrics collector.

    Records are *not* schema-validated here: validation belongs to the
    report, not the experiment loop, and runs exactly once in
    :func:`write_report` no matter how many experiments ran (the
    ``--fast`` path used to pay it per experiment).
    """
    records = []
    for name in names:
        collector = MetricsCollector()
        start = time.time()
        with scope(metrics=collector):
            result = EXPERIMENTS[name]()
        wall = time.time() - start
        record = experiment_record(name, result, wall, collector)
        records.append(record)
        print(f"[{name}: sim {record['sim_time_s']:.3f}s, "
              f"wall {wall:.1f}s, {record['workloads']} workload(s), "
              f"{len(record['metric_series'])} metric series]")
    return records


def write_report(records: list[dict], out: str) -> int:
    """Assemble, schema-validate (once), and write the bench report."""
    doc = build_bench_report(records, issue=ISSUE)
    problems = validate_bench_report(doc)
    if problems:
        for p in problems:
            print(f"  schema: {p}")
        print("FAIL: generated report does not validate")
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench report: {len(records)} experiment(s) -> {out}]")
    return 0


#: gate workloads where fusion must fire: instruction count AND
#: cpu-allocated bytes must *strictly* drop fused vs unfused.
FUSION_MUST_DROP = ("cellwise_chain", "matmul_epilogue")

#: gate workloads where the reuse-aware gate must refuse to fuse:
#: counters must be *identical* fused vs unfused.
FUSION_MUST_HOLD = ("quickstart_reuse", "fig11b_reuse")


def _fusion_gate_workloads() -> dict:
    """Deterministic sim-counter workloads for the fusion gate.

    Each thunk builds its own sessions (so the caller's
    ``scope(fusion=True)`` lands in ``MemphisConfig.__post_init__``) and
    returns ``{counter_name: value}``.
    """
    import numpy as np

    from repro.common.config import MemphisConfig, ReuseMode
    from repro.common.stats import CPU_BYTES_ALLOCATED, INSTRUCTIONS_EXECUTED
    from repro.core.session import Session
    from repro.workloads.micro import run_reuse_overhead

    def _counters(session):
        return {
            INSTRUCTIONS_EXECUTED:
                session.stats.get(INSTRUCTIONS_EXECUTED),
            CPU_BYTES_ALLOCATED:
                session.stats.get(CPU_BYTES_ALLOCATED),
        }

    def cellwise_chain():
        # a straight-line cell-wise pipeline (ReuseMode.NONE): the
        # maximal *,+,sigmoid,*,relu run must fuse to 1 instruction
        config = MemphisConfig.memphis()
        config.reuse_mode = ReuseMode.NONE
        session = Session(config)
        data = (np.arange(64.0 * 64).reshape(64, 64) % 23.0) / 23.0 - 0.5
        X = session.read(data, "X")
        for _ in range(4):
            (((X * 2.0) + 1.0).sigmoid() * 0.5).relu().compute()
        return _counters(session)

    def matmul_epilogue():
        config = MemphisConfig.memphis()
        config.reuse_mode = ReuseMode.NONE
        session = Session(config)
        rng = np.random.default_rng(3)
        A = session.read(rng.random((48, 32)), "A")
        B = session.read(rng.random((32, 16)), "B")
        ((A @ B) * 0.5).relu().compute()
        return _counters(session)

    def quickstart_reuse():
        # full MEMPHIS reuse: every intermediate is a retention
        # candidate, so the reuse-aware gate must leave the plan alone
        session = Session(MemphisConfig.memphis())
        rng = np.random.default_rng(5)
        X = session.read(rng.random((64, 8)), "X")
        y = session.read(rng.random((64, 1)), "y")
        w = session.read(np.zeros((8, 1)), "w")
        for reg in (0.01, 0.1, 0.01):
            grad = X.t() @ (X @ w) - X.t() @ y + reg * w
            (w - 0.002 * grad).compute()
        return _counters(session)

    def fig11b_reuse():
        # fig11b's L2SVM reuse-overhead micro under the full reuse
        # config: instcount must be byte-for-byte unchanged by --fusion
        result = run_reuse_overhead("Reuse", input_bytes=800,
                                    iterations=30, reuse_fraction=0.4)
        return {key: int(result.counters.get(key, 0))
                for key in (INSTRUCTIONS_EXECUTED, CPU_BYTES_ALLOCATED)}

    return {
        "cellwise_chain": cellwise_chain,
        "matmul_epilogue": matmul_epilogue,
        "quickstart_reuse": quickstart_reuse,
        "fig11b_reuse": fig11b_reuse,
    }


def run_fusion_gate() -> int:
    """Fused-vs-unfused instruction-count gate (CI).

    Runs every gate workload twice — baseline, then under
    ``scope(fusion=True)`` — and compares the sim counters:

    * ``runtime/instructions_executed`` must never rise under fusion;
    * on :data:`FUSION_MUST_DROP` workloads both the instruction count
      and ``cpu/bytes_allocated`` must *strictly* drop;
    * on :data:`FUSION_MUST_HOLD` workloads (reuse modes where the
      lineage cache retains intermediates) all counters must be
      identical — the reuse-aware gate refused to fuse.
    """
    from repro.common.stats import CPU_BYTES_ALLOCATED, INSTRUCTIONS_EXECUTED

    workloads = _fusion_gate_workloads()
    failures: list[str] = []
    for name, thunk in workloads.items():
        base = thunk()
        with scope(fusion=True):
            fused = thunk()
        bi, fi = base[INSTRUCTIONS_EXECUTED], fused[INSTRUCTIONS_EXECUTED]
        bb, fb = base[CPU_BYTES_ALLOCATED], fused[CPU_BYTES_ALLOCATED]
        print(f"[{name}: instructions {bi} -> {fi}, "
              f"cpu bytes {bb} -> {fb}]")
        if fi > bi:
            failures.append(f"{name}: instruction count ROSE {bi} -> {fi}")
        if name in FUSION_MUST_DROP:
            if not fi < bi:
                failures.append(f"{name}: instruction count did not "
                                f"strictly drop ({bi} -> {fi})")
            if not fb < bb:
                failures.append(f"{name}: cpu bytes allocated did not "
                                f"strictly drop ({bb} -> {fb})")
        if name in FUSION_MUST_HOLD and (bi, bb) != (fi, fb):
            failures.append(f"{name}: counters changed under a reuse "
                            f"mode that retains intermediates "
                            f"({bi},{bb}) -> ({fi},{fb})")
    if failures:
        for f in failures:
            print(f"  gate: {f}")
        print(f"FAIL: {len(failures)} fusion-gate violation(s)")
        return 1
    print(f"OK: fusion gate holds over {len(workloads)} workload(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/bench_report.py",
        description="Run harness experiments and emit a schema-validated "
                    "benchmark telemetry report.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--fast", action="store_true",
                        help=f"run the CI subset only: {', '.join(FAST_SUBSET)}")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help=f"output path (default: BENCH_{ISSUE}.json "
                             f"in the repo root)")
    parser.add_argument("--validate", metavar="PATH", default=None,
                        help="validate an existing report and exit")
    parser.add_argument("--fusion-gate", action="store_true",
                        help="run the fused-vs-unfused instruction-count "
                             "gate: instcount must strictly drop on "
                             "cell-wise chains and never rise elsewhere")
    args = parser.parse_args(argv)

    if args.fusion_gate:
        return run_fusion_gate()

    if args.validate is not None:
        with open(args.validate, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = validate_bench_report(doc)
        if problems:
            for p in problems:
                print(f"  schema: {p}")
            print(f"FAIL: {len(problems)} problem(s) in {args.validate}")
            return 1
        print(f"OK: {args.validate} is a valid bench report "
              f"({len(doc['experiments'])} experiment(s))")
        return 0

    if args.fast:
        selected = list(FAST_SUBSET)
    else:
        selected = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    records = run_experiments(selected)
    out = args.out or os.path.join(REPO, f"BENCH_{ISSUE}.json")
    return write_report(records, out)


if __name__ == "__main__":
    sys.exit(main())
