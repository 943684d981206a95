#!/usr/bin/env python
"""Seeded chaos sweep: randomized fault plans must never change numerics.

For each of N seeds, generates a random (but seed-deterministic)
:class:`repro.faults.FaultPlan`, runs a reference workload under it on
both a CP-heavy and a Spark-forced configuration, and asserts the output
is numerically identical to the fault-free run of the same
configuration.  Also checks the framework's property invariants after
every faulted run: driver-cache budget accounting is exact, no GPU
allocations leak, and retry budgets were respected.

Run by ``.github/workflows/chaos.yml``; exits 1 on any divergence.

Usage::

    python scripts/chaos_sweep.py [N_SEEDS] [--verbose]
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from repro import MemphisConfig, Session  # noqa: E402
from repro.common.stats import FAULTS_INJECTED, FAULTS_RECOVERED  # noqa: E402
from repro.common.runtime import RuntimeContext  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402

DATA = (np.arange(2000.0 * 8).reshape(2000, 8) % 23.0) / 23.0
TARGET = (np.arange(2000.0).reshape(2000, 1) % 7.0) / 7.0


def make_config(kind: str) -> MemphisConfig:
    cfg = MemphisConfig.memphis()
    if kind == "spark":
        cfg.cpu.operation_memory_bytes = 64 * 1024  # force SP placement
    elif kind == "gpu":
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
    return cfg


def run(kind: str, plan: FaultPlan | None):
    # a fresh id space per compared run: faulted and fault-free runs
    # must number hops / lineage items / pointers identically
    with RuntimeContext():
        cfg = make_config(kind)
        cfg.faults = plan
        sess = Session(cfg)
        X = sess.read(DATA, "X")
        y = sess.read(TARGET, "y")
        w = sess.read(np.zeros((8, 1)), "w0")
        for _ in range(3):
            grad = X.t() @ (X @ w) - X.t() @ y
            w = w - 0.01 * grad
        return sess, w.compute()


def check_invariants(sess: Session, label: str) -> list[str]:
    problems = []
    accounted = sum(e.cp_accounted for e in sess.cache.entries())
    if sess.cache.cp_bytes != accounted or sess.cache.cp_bytes < 0:
        problems.append(
            f"{label}: driver-cache accounting drifted "
            f"(cp_bytes={sess.cache.cp_bytes}, accounted={accounted})"
        )
    report = sess.gpu.memory.device.allocation_report()
    if not report["consistent"]:
        problems.append(f"{label}: GPU address space inconsistent: {report}")
    plan = sess.faults.plan
    budget = plan.max_task_retries * max(
        1, sum(s.count for s in plan.specs))
    if sess.stats.get("faults/spark_task_retries") > budget:
        problems.append(f"{label}: task retry budget exceeded")
    return problems


def main(argv: list[str]) -> int:
    n_seeds = int(argv[1]) if len(argv) > 1 and argv[1].isdigit() else 12
    verbose = "--verbose" in argv

    configs = ("cp", "spark")
    expected = {kind: run(kind, None)[1] for kind in configs}

    divergences = 0
    for seed in range(n_seeds):
        plan = FaultPlan.randomize(seed)
        for kind in configs:
            sess, out = run(kind, plan)
            injected = sess.stats.get(FAULTS_INJECTED)
            recovered = sess.stats.get(FAULTS_RECOVERED)
            problems = check_invariants(sess, f"seed {seed}/{kind}")
            if not np.array_equal(out, expected[kind]):
                problems.append(
                    f"seed {seed}/{kind}: output diverged from fault-free "
                    f"run (max delta "
                    f"{np.max(np.abs(out - expected[kind])):.3e})"
                )
            status = "ok" if not problems else "FAIL"
            if verbose or problems:
                print(f"seed {seed:3d} {kind:6s} "
                      f"injected={injected:2d} recovered={recovered:2d} "
                      f"-> {status}")
            for problem in problems:
                print("   " + problem)
            divergences += len(problems)

    total = n_seeds * len(configs)
    if divergences:
        print(f"FAIL: {divergences} problem(s) across {total} chaos runs")
        return 1
    print(f"OK: {total} chaos runs converged to fault-free outputs "
          f"({n_seeds} seeds x {len(configs)} configs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
