"""A1: ablation of eviction policies (Eq. 1 vs LRU/LRC/MRD) and delay
factors on the CLEAN workload (design choices of §4.1/§5.2)."""

from repro.common.runtime import RuntimeContext
from repro.harness import run_ablation_policies
from repro.workloads.clean import run_clean


def test_ablation_policies(benchmark, print_report):
    result = benchmark.pedantic(
        run_ablation_policies, rounds=1, iterations=1
    )
    print_report(result)
    cost_size = result.grid["cost_size"]
    assert cost_size.counter("cache/hits") > 0
    # every configuration completes and produces reuse
    for label, run in result.grid.items():
        assert run.elapsed > 0
    # Eq. 1 retains what is worth the most: no baseline policy hits more
    assert cost_size.counter("cache/hits") == max(
        result.grid[policy].counter("cache/hits")
        for policy in ("cost_size", "lru", "lrc", "mrd"))


def test_default_row_is_the_experiment_cell():
    """Conservation: the ablation's default row *is* Fig. 14(a)'s
    MPH x 12 cell — same factory, same overhead scale.  (The patched
    factory this replaced forgot ``scale_overheads``: 7.854 ms against
    the experiment's 3.200 ms.)"""
    with RuntimeContext():
        ablated = run_ablation_policies().grid["cost_size"]
    with RuntimeContext():
        cell = run_clean("MPH", 12)
    assert ablated.elapsed == cell.elapsed
    assert ablated.counters == cell.counters
