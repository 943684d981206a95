"""Self-test of the benchmark (``python -m pytest bench -q``; not tier-1).

Runs every workload at ``--smoke`` size in this process and checks what
later PRs rely on: every metric ``BENCHMARK.json`` names is emitted with
its unit, counts and ``sim_s`` repeat exactly (traced or not), seeds
change the inputs, per-layer self times add up to the op wall time, and
a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys

import pytest

import compare
import run as bench

SPEC = bench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
_records: dict = {}


def smoke(workload: str, seed: int = 0, trace: int = 0) -> dict:
    key = (workload, seed, trace)
    if key not in _records:
        args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                                  trace=trace, smoke=True, out=None)
        _records[key] = bench.run_workload(args, SPEC)
    return _records[key]


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    seen = set()
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(entry["name"]) and entry["name"] not in seen
        seen.add(entry["name"])
        assert "unit" not in entry or unit.match(entry["unit"])
        assert entry.get("better", "lower") in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload):
    record = smoke(workload, trace=1)
    assert record["failed"] == 0 and record["repeatable"], record["errors"]
    for kind in ("end_to_end", "per_layer"):
        emitted = record[kind]
        assert list(emitted) == [m["name"] for m in SPEC[kind]]
        for metric in SPEC[kind]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(emitted[metric["name"]]["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert record["end_to_end"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_add_up_to_the_op_wall(workload):
    ratio = smoke(workload, trace=1)["per_layer"]["harness.layer_sum_ratio"]
    assert 0.95 <= ratio["value"] <= 1.05


@pytest.mark.parametrize("workload", NAMES)
def test_counts_and_sim_clock_repeat_exactly(workload):
    traced, plain = smoke(workload, trace=1), smoke(workload, trace=0)
    assert plain["repeatable"] and traced["repeatable"]
    assert plain["sim_s"] == traced["sim_s"]
    assert plain["counters"] == traced["counters"]


@pytest.mark.parametrize("workload", NAMES)
def test_a_different_seed_changes_the_inputs(workload):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    a, b = (json.dumps(wl.generate(seed, 8), default=repr)
            for seed in (0, 1))
    assert a != b


def test_each_workload_reaches_its_regime():
    layers = {w: smoke(w, trace=1)["per_layer"] for w in NAMES}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("train_fit", "cache.evictions") == 0
    assert value("hpo_evict", "cache.evictions") > 0
    assert value("hpo_kernel", "cache.hits") > 0
    assert value("gpu_score", "gpu.kernels") > 0
    assert value("gpu_score", "gpu.pointers_reused") > 0
    assert value("spark_cv", "spark.jobs") > 0
    assert value("spark_cv", "spark.rdds_reused") > 0
    assert value("server_longrun", "substrate.cross_session_hits") > 0
    assert value("server_longrun", "memplan.blocks_planned") > 0
    for workload in NAMES:
        if workload != "spark_cv":
            assert value(workload, "spark.jobs") == 0
        if workload != "gpu_score":
            assert value(workload, "gpu.kernels") == 0


def test_no_wrapper_survives_a_traced_run():
    smoke("train_fit", trace=1)  # the harness uninstalls after each pass
    from tracing import SpanProbe
    from workloads import WORKLOADS
    import repro.core.session as session_mod
    import repro.server.scheduler as scheduler_mod

    patched = [(session_mod, "eliminate_common_subexpressions"),
               (session_mod, "assign_placements"),
               (session_mod, "depth_first"),
               (session_mod, "max_parallelize"),
               (scheduler_mod, "Session"), (scheduler_mod, "ServerReport")]
    before = {(mod, attr): getattr(mod, attr) for mod, attr in patched}
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    assert isinstance(scheduler_mod.Session, type)

    probe = SpanProbe()
    workload = WORKLOADS["server_longrun"]
    inputs = workload.generate(0, 3)
    probe.install_module_wrappers()
    state = workload.setup(inputs, probe)
    workload.op(state, inputs, 0)
    substrate = state.substrate
    assert "probe" in vars(substrate.cache) and "attach" in vars(substrate)
    assert scheduler_mod.Session is not before[(scheduler_mod, "Session")]
    probe.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(mod, attr) is original
    for owner in (substrate, substrate.cache, substrate.arbiter):
        assert not any(callable(v) and hasattr(v, "__wrapped__")
                       for v in vars(owner).values())
        assert "attach" not in vars(owner)


def test_driver_command_line_prints_one_result_object():
    proc = subprocess.run(
        [sys.executable, bench.__file__, "--workload", "train_fit",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_compare_verdicts(tmp_path, capsys):
    base = json.loads(json.dumps(smoke("train_fit")))
    for metric in base["end_to_end"].values():
        metric["passes"] = [metric["value"]]  # no spread: always resolved
    slow = json.loads(json.dumps(base))
    metric = slow["end_to_end"]["op_p50_ms"]
    metric["value"] *= 2
    metric["passes"] = [v * 2 for v in metric["passes"]]
    paths = []
    for label, record in (("a", base), ("b", slow)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(record, fh)
    assert compare.main([paths[0], paths[1]]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([paths[1], paths[0]]) == 0
    assert "better" in capsys.readouterr().out
