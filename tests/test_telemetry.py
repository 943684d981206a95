"""Tests for the benchmark telemetry pipeline (repro.harness.telemetry)."""

import json

import pytest

from repro.common.stats import CACHE_HITS, LINEAGE_PROBES
from repro.common.schema import assert_valid
from repro.harness import telemetry
from repro.harness.__main__ import EXPERIMENTS, main
from repro.harness.runner import ExperimentResult
from repro.harness.telemetry import (
    BENCH_FORMAT,
    BENCH_SCHEMA,
    KEY_COUNTERS,
    build_bench_report,
    experiment_record,
    validate_bench_report,
)
from repro.obs import MetricsCollector
from repro.common.simclock import SimClock
from repro.workloads.base import WorkloadResult


def _result(elapsed=1.5, hits=4, probes=8) -> WorkloadResult:
    return WorkloadResult(
        "w", "MPH", {}, elapsed,
        counters={CACHE_HITS: hits, LINEAGE_PROBES: probes},
    )


def _experiment(grid) -> ExperimentResult:
    return ExperimentResult("fake", grid, "table")


class TestExperimentRecord:
    def test_sums_nested_grid(self):
        grid = {
            10: {"Base": _result(1.0), "MPH": _result(2.0)},
            20: {"Base": _result(3.0), "MPH": _result(4.0)},
        }
        record = experiment_record("fake", _experiment(grid), wall_s=0.5)
        assert record["workloads"] == 4
        assert record["sim_time_s"] == 10.0
        assert record["counters"][CACHE_HITS] == 16
        assert record["counters"][LINEAGE_PROBES] == 32
        assert set(record["counters"]) == set(KEY_COUNTERS)

    def test_non_workload_grid_tolerated(self):
        # fig2d-style grids hold raw dicts, not WorkloadResults
        record = experiment_record(
            "fig2d", _experiment({0: {"compute_s": 1.0}}), wall_s=0.1)
        assert record["workloads"] == 0
        assert record["sim_time_s"] == 0.0

    def test_metric_series_digests(self):
        collector = MetricsCollector()
        reg = collector.registry(SimClock())
        reg.gauge("cache/entries").record(0.0, 2.0)
        record = experiment_record("fake", _experiment({}), 0.1, collector)
        assert record["metric_series"]["cache/entries"]["n"] == 1


class TestValidation:
    def _valid_doc(self):
        record = experiment_record("fake", _experiment({0: {"m": _result()}}),
                                   wall_s=0.5)
        return build_bench_report([record], issue=5)

    def test_valid_round_trip(self):
        doc = self._valid_doc()
        assert validate_bench_report(doc) == []
        assert_valid(validate_bench_report(doc), "bench report")
        # and survives JSON serialization
        assert validate_bench_report(json.loads(json.dumps(doc))) == []

    def test_format_pinned(self):
        doc = self._valid_doc()
        assert doc["format"] == BENCH_FORMAT
        assert BENCH_SCHEMA["properties"]["format"]["const"] == BENCH_FORMAT
        doc["format"] = BENCH_FORMAT + 1
        assert any("format" in p for p in validate_bench_report(doc))

    def test_rejects_non_object(self):
        problems = validate_bench_report([])
        assert len(problems) == 1 and "object" in problems[0]
        with pytest.raises(ValueError, match="bench report \\(x.json\\)"):
            assert_valid(problems, "bench report", context="x.json")

    def test_rejects_missing_experiments(self):
        for doc in ({"format": BENCH_FORMAT, "issue": 5},
                    {"format": BENCH_FORMAT, "issue": 5, "experiments": []}):
            assert any("experiments" in p for p in validate_bench_report(doc))

    def test_rejects_bad_record_fields(self):
        doc = self._valid_doc()
        doc["experiments"][0]["wall_s"] = -1
        doc["experiments"][0]["name"] = ""
        problems = validate_bench_report(doc)
        assert any("wall_s" in p for p in problems)
        assert any("name" in p for p in problems)
        # one field broken at a time; the problem names the field
        for where, field, bad in [
            ("doc", "issue", 0), ("doc", "issue", True),
            ("record", "wall_s", True),     # a boolean is not a number
            ("record", "sim_time_s", "1"),
            ("record", "workloads", -3),
        ]:
            doc = self._valid_doc()
            (doc if where == "doc" else doc["experiments"][0])[field] = bad
            assert any(field in p for p in validate_bench_report(doc)), \
                (field, bad)

    def test_rejects_non_integer_counters(self):
        for bad in (1.5, True, "1"):
            doc = self._valid_doc()
            doc["experiments"][0]["counters"] = {"cache/hits": bad}
            assert any("counters.cache/hits" in p and "integer" in p
                       for p in validate_bench_report(doc)), bad

    def test_rejects_bad_digest(self):
        doc = self._valid_doc()
        doc["experiments"][0]["metric_series"] = {"cache/x": {"n": 1}}
        assert any("metric_series.cache/x" in p
                   for p in validate_bench_report(doc))

    def test_problem_list_is_truncated(self):
        doc = self._valid_doc()
        doc["experiments"] = [{"name": ""}] * 40
        problems = validate_bench_report(doc)
        assert len(problems) == 51 and problems[-1] == "... (truncated)"


class TestBenchReportFlag:
    """``python -m repro.harness NAMES --bench-report OUT.json``."""

    def test_writes_one_validated_record_per_experiment(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        real = telemetry.validate_bench_report

        def counting(doc):
            calls.append(1)
            return real(doc)

        monkeypatch.setattr(telemetry, "validate_bench_report", counting)
        monkeypatch.setitem(EXPERIMENTS, "tiny",
                            lambda: _experiment({0: {"m": _result()}}))
        out = tmp_path / "bench.json"
        assert main(["tiny", "fig2c", "tiny", "--bench-report",
                     str(out)]) == 0
        # validated once per report, not once per experiment
        assert len(calls) == 1
        assert "[bench report: 3 experiment(s)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_bench_report(doc) == []
        assert [r["name"] for r in doc["experiments"]] == \
            ["tiny", "fig2c", "tiny"]
        # each experiment is metered by a collector of its own
        tiny, fig2c, _ = doc["experiments"]
        assert tiny["metric_series"] == {} and tiny["workloads"] == 1
        assert fig2c["metric_series"] and fig2c["counters"][CACHE_HITS] > 0

    def test_invalid_report_is_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(telemetry, "BENCH_ISSUE", 0)
        monkeypatch.setitem(EXPERIMENTS, "tiny",
                            lambda: _experiment({0: {"m": _result()}}))
        out = tmp_path / "bench.json"
        with pytest.raises(ValueError, match="issue"):
            main(["tiny", "--bench-report", str(out)])
        assert not out.exists()

    def test_refused_with_metrics_and_with_server(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        for extra in (["--metrics", str(tmp_path / "m.jsonl")],
                      ["--server", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["fig2c", "--bench-report", out, *extra])
            assert exc.value.code == 2
            assert "--bench-report" in capsys.readouterr().err
