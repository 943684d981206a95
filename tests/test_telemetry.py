"""Tests for the harness telemetry (repro.harness.telemetry): the
``SERVER_SCHEMA`` stream as ``--server N --server-report`` validates and
writes it, and the grid flattening experiment consumers read."""

import json

import pytest

from repro.common.schema import assert_valid
from repro.common.stats import CACHE_HITS, LINEAGE_PROBES
from repro.harness import telemetry
from repro.harness.__main__ import main
from repro.harness.runner import ExperimentResult
from repro.harness.telemetry import (
    SERVER_FORMAT,
    SERVER_SCHEMA,
    SERVER_VERSION,
    server_report_records,
    validate_server_records,
)
from repro.server import run_server_demo
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


@pytest.fixture(scope="module")
def records() -> list:
    return server_report_records(run_server_demo(3, seed=0), 3, 0)


def _copy(records: list) -> list:
    return json.loads(json.dumps(records))


class TestValidation:
    def test_valid_round_trip(self, records):
        assert validate_server_records(records) == []
        assert_valid(validate_server_records(records), "server report")
        # and survives JSON serialization
        assert validate_server_records(_copy(records)) == []

    def test_format_pinned(self, records):
        header = _copy(records)[0]
        assert (header["format"], header["version"]) \
            == (SERVER_FORMAT, SERVER_VERSION)
        branch = SERVER_SCHEMA["oneOf"][0]["properties"]
        assert branch["format"]["const"] == SERVER_FORMAT
        assert branch["version"]["const"] == SERVER_VERSION
        header["version"] = SERVER_VERSION + 1
        assert any("version" in p
                   for p in validate_server_records([header, *records[1:]]))

    def test_rejects_non_object(self, records):
        problems = validate_server_records({})
        assert len(problems) == 1 and "array" in problems[0]
        problems = validate_server_records([*records, 5])
        assert len(problems) == 1 and "object" in problems[0]
        with pytest.raises(ValueError, match="server report \\(x.jsonl\\)"):
            assert_valid(problems, "server report", context="x.jsonl")

    def test_rejects_bad_record_fields(self, records):
        broken = _copy(records)
        request = next(r for r in broken if r["kind"] == "request")
        request["retries"] = -1
        request["name"] = ""
        problems = validate_server_records(broken)
        assert any("retries" in p for p in problems)
        assert any("name" in p for p in problems)

    def test_rejects_non_integer_counters(self, records):
        for bad in (1.5, True, "1"):
            broken = _copy(records)
            broken[-1]["counters"] = {"cache/hits": bad}
            assert any("counters.cache/hits" in p and "integer" in p
                       for p in validate_server_records(broken)), bad

    def test_problem_list_is_truncated(self, records):
        problems = validate_server_records(
            [*records, *[{"kind": "request", "name": ""}] * 40])
        assert len(problems) == 51 and problems[-1] == "... (truncated)"


class TestServerReportFlag:
    """``python -m repro.harness --server N --server-report OUT.jsonl``."""

    def test_invalid_report_is_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(telemetry, "SERVER_VERSION", 0)
        out = tmp_path / "server.jsonl"
        with pytest.raises(ValueError, match="version"):
            main(["--server", "2", "--server-report", str(out)])
        assert not out.exists()
