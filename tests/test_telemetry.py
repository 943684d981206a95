"""Tests for ``ExperimentResult.workloads()``: the grid flattening that
experiment consumers read."""

from repro.common.stats import CACHE_HITS, LINEAGE_PROBES
from repro.harness.runner import ExperimentResult
from repro.workloads.base import WorkloadResult


def _result(elapsed=1.5, hits=4, probes=8) -> WorkloadResult:
    return WorkloadResult(
        "w", "MPH", {}, elapsed,
        counters={CACHE_HITS: hits, LINEAGE_PROBES: probes},
    )


def _experiment(grid) -> ExperimentResult:
    return ExperimentResult("fake", grid, "table")


class TestExperimentRecord:
    """``ExperimentResult.workloads()``: the grid's leaves, flattened."""

    def test_sums_nested_grid(self):
        grid = {
            10: {"Base": _result(1.0), "MPH": _result(2.0)},
            20: {"Base": _result(3.0), "MPH": _result(4.0)},
        }
        workloads = _experiment(grid).workloads()
        assert [w.elapsed for w in workloads] == [1.0, 2.0, 3.0, 4.0]
        assert sum(w.counters[CACHE_HITS] for w in workloads) == 16
        assert sum(w.counters[LINEAGE_PROBES] for w in workloads) == 32

    def test_non_workload_grid_tolerated(self):
        # fig2d-style grids hold raw dicts, not WorkloadResults
        assert _experiment({0: {"compute_s": 1.0}}).workloads() == []
