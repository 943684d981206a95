"""A2: ablation of operator linearization (Algorithm 2) on HCV."""

from repro.common.runtime import RuntimeContext
from repro.harness import run_ablation_ordering
from repro.workloads.hcv import run_hcv


def test_ablation_ordering(benchmark, print_report):
    result = benchmark.pedantic(
        run_ablation_ordering, rounds=1, iterations=1
    )
    print_report(result)
    assert result.grid["maxParallelize"].elapsed <= \
        result.grid["depth-first"].elapsed * 1.02


def test_default_row_is_the_experiment_cell():
    """Conservation: the ``maxParallelize`` row *is* Fig. 13(a)'s MPH @
    50 GB cell — same factory, same overhead scale.  (The patched
    factory this replaced forgot ``scale_overheads``: 492.509 ms against
    the experiment's 41.109 ms.)"""
    with RuntimeContext():
        ablated = run_ablation_ordering().grid["maxParallelize"]
    with RuntimeContext():
        cell = run_hcv("MPH", 50.0)
    assert ablated.elapsed == cell.elapsed
    assert ablated.counters == cell.counters
