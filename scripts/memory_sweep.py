#!/usr/bin/env python
"""Eviction-policy sweep over the memory-arbitration substrate.

Runs the README quickstart and the Fig. 12(a)/(b) experiments under
all four eviction policies (``cost_size``, ``lru``, ``lrc``, ``mrd``)
applied to every region via the config override hook the harness
``--policy``/``--gpu-policy``/``--spark-policy`` flags use, and checks:

* every policy completes every workload (no arbiter dead-ends: a
  reservation failure under an exotic policy must degrade to a cache
  miss, never an exception);
* every policy still reuses (positive lineage-cache hit rate on the
  reuse configurations of Fig. 12);
* the default Cost&Size policy is not regressed: its hit rates equal
  the rates derived from the recorded pre-refactor baseline
  (``benchmarks/baselines/fig12_counters.json``).  Raw hit *count* is
  the wrong axis to rank policies on (Eq. 1 maximizes compute cost
  saved, and e.g. LRC happily hoards many cheap entries), so the sweep
  compares the default against its own history, not against the other
  policies;
* the default-policy run is deterministic (two runs, identical
  counters);
* every substrate built by a run passes ``Substrate.audit()`` when the
  run is over: byte ledgers equal what the entries charged, and the
  driver cache's victim index agrees with its full-scan oracle under
  each policy.

Run by ``.github/workflows/memory.yml``; exits 1 on any violation.

Usage::

    python scripts/memory_sweep.py
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "examples"))

import numpy as np  # noqa: E402

from repro import MemphisConfig, Session  # noqa: E402
from repro.common.config import EvictionPolicyName  # noqa: E402
from repro.common.runtime import scope  # noqa: E402
from repro.core.substrate import Substrate  # noqa: E402
from repro.harness import runner  # noqa: E402

BASELINE = os.path.join(REPO, "benchmarks", "baselines",
                        "fig12_counters.json")

POLICIES = [
    EvictionPolicyName.COST_SIZE,
    EvictionPolicyName.LRU,
    EvictionPolicyName.LRC,
    EvictionPolicyName.MRD,
]


def run_quickstart() -> None:
    """The README's grid-search example at a small size."""
    from quickstart import grid_search

    rng = np.random.default_rng(1)
    X = rng.random((256, 16))
    y = X @ rng.random((16, 1)) + 0.01 * rng.random((256, 1))
    grid_search(Session(MemphisConfig.memphis()), X, y,
                regs=[0.01, 0.1, 1.0])


def hit_rate(cells: dict) -> float:
    """Aggregate lineage-cache hit rate over one experiment grid."""
    hits = misses = 0
    for row in cells.values():
        for label, result in row.items():
            if label == "Base":
                continue  # no-reuse baseline: nothing to hit
            hits += result.counter("cache/hits")
            misses += result.counter("cache/misses")
    return hits / max(hits + misses, 1)


def baseline_hit_rates() -> dict[str, float]:
    """Hit rates the pre-refactor code achieved (recorded baseline)."""
    with open(BASELINE) as fh:
        recorded = json.load(fh)
    rates = {}
    for exp, grid in recorded.items():
        hits = misses = 0
        for row in grid.values():
            for label, cell in row.items():
                if label == "Base":
                    continue
                hits += int(cell["counters"].get("cache/hits", 0))
                misses += int(cell["counters"].get("cache/misses", 0))
        rates[exp] = hits / max(hits + misses, 1)
    return rates


@contextlib.contextmanager
def audited():
    """Audit every substrate built inside, once its run is over.

    The workloads run their sessions one after another, so a substrate
    is audited (and let go) when the next one is built, the last one on
    exit; an ``AssertionError`` names the violated law.
    """
    init = Substrate.__init__
    last: list[Substrate] = []

    def recording_init(self, *args, **kwargs):
        while last:
            last.pop().audit()
        init(self, *args, **kwargs)
        last.append(self)

    Substrate.__init__ = recording_init
    try:
        yield
        while last:
            last.pop().audit()
    finally:
        Substrate.__init__ = init


def run_policy(policy: EvictionPolicyName) -> dict[str, float]:
    with scope(policy=policy, gpu_policy=policy, spark_policy=policy), \
            audited():
        run_quickstart()
        return {
            "fig12a": hit_rate(runner.run_experiment_fig12a().grid),
            "fig12b": hit_rate(runner.run_experiment_fig12b().grid),
        }


def run_policy_counters(policy: EvictionPolicyName) -> dict:
    """One fig12a run reduced to its counters (determinism check)."""
    with scope(policy=policy, gpu_policy=policy, spark_policy=policy):
        grid = runner.run_experiment_fig12a().grid
    return {
        str(x): {label: dict(sorted(res.counters.items()))
                 for label, res in row.items()}
        for x, row in grid.items()
    }


def main() -> int:
    failures: list[str] = []
    rates: dict[str, dict[str, float]] = {}
    for policy in POLICIES:
        try:
            rates[policy.value] = run_policy(policy)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{policy.value}: crashed: {exc!r}")
            continue
        for exp, rate in rates[policy.value].items():
            print(f"[memory_sweep] {policy.value:9s} {exp}: "
                  f"hit rate {rate:.3f}")
            if rate <= 0.0:
                failures.append(
                    f"{policy.value}/{exp}: no cache hits at all"
                )

    default = EvictionPolicyName.COST_SIZE.value
    if default in rates:
        recorded = baseline_hit_rates()
        for exp, expected in recorded.items():
            got = rates[default][exp]
            if abs(got - expected) > 1e-12:
                failures.append(
                    f"default cost_size regressed on {exp}: hit rate "
                    f"{got:.6f} vs recorded baseline {expected:.6f}"
                )

    first = run_policy_counters(EvictionPolicyName.COST_SIZE)
    second = run_policy_counters(EvictionPolicyName.COST_SIZE)
    if first != second:
        failures.append("default-policy fig12a run is not deterministic")

    if failures:
        print("\n[memory_sweep] FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\n[memory_sweep] OK: {len(POLICIES)} policies x "
          f"(quickstart + fig12a + fig12b), determinism verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
