"""Additional tests: statistics registry and results_table rendering."""

from repro.common.stats import Stats
from repro.harness.report import results_table
from repro.workloads.base import WorkloadResult


class TestStats:
    def test_counters_and_timers(self):
        stats = Stats()
        stats.inc("a/b")
        stats.inc("a/b", 4)
        assert stats.get("a/b") == 5
        assert stats.counters() == {"a/b": 5}
        # Stats holds counters only
        assert not hasattr(stats, "timers")

    def test_missing_counter_is_zero(self):
        assert Stats().get("nothing") == 0

    def test_reset(self):
        stats = Stats()
        stats.inc("x")
        stats.reset()
        assert stats.get("x") == 0

    def test_report_sorted_and_formatted(self):
        stats = Stats()
        stats.inc("z/last")
        stats.inc("a/first")
        report = stats.report()
        assert report.index("a/first") < report.index("z/last")
        assert report.startswith("=== statistics ===")


class TestResultsTable:
    def _result(self, system, elapsed, failed=None):
        return WorkloadResult("w", system, {}, elapsed,
                              {"spark/rdds_reused": 7}, failed=failed)

    def test_grid_rendering(self):
        grid = {
            "5GB": {"Base": self._result("Base", 0.10),
                    "MPH": self._result("MPH", 0.02)},
            "20GB": {"Base": self._result("Base", 0.50),
                     "MPH": self._result("MPH", 0.09)},
        }
        table = results_table(grid, "input", "demo",
                              extra_counters=("spark/rdds_reused",))
        assert "Base [ms]" in table
        assert "MPH [ms]" in table
        assert "5GB" in table and "20GB" in table
        assert "7" in table  # the counter column

    def test_failed_runs_render_as_oom(self):
        grid = {"x": {"Base": self._result("Base", 0.1),
                      "MPH": self._result("MPH", 0.0, failed="boom")}}
        table = results_table(grid, "input", "demo")
        assert "OOM" in table
