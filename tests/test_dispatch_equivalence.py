"""Instrumentation-invariance guards for the one dispatch loop.

``Interpreter.run`` is the only definition of the Fig. 4 loop; tracer
spans (gauge sampling rides on them) and fault draws are hooks of it,
each behind a boolean read once per run.  The contract — asserted here
on the quickstart, cell-wise, server and Fig. 12(b) workloads — is that
turning any hook on or off leaves results **byte-identical**, stats
counters identical, and simulated-clock readings identical.
Instrumentation may only change real wall-clock cost (measured by
``bench/``, see docs/PERFORMANCE.md), never a single observable value.

Each layer is switched on without changing semantics through an
existing zero-overhead guarantee:

* an **empty fault plan** enables the injector (``faults.enabled``)
  but injects nothing — byte-identical by ``tests/test_faults.py``;
* a scoped **trace collector** opens a span per instruction, stamped
  with the sim clock it never advances, and samples the gauges
  (``repro.obs.metrics``) every few instructions and at block end,
  which reads counters/ledgers but never advances the sim clock either.

Every workload runs under ``scope(ids=IdSpace())`` — the enclosing
scope's collaborators, a fresh id space — so the compared runs number
hops, lineage items and pointers identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import ReuseMode
from repro.common.runtime import IdSpace, scope
from repro.faults import FaultPlan
from repro.obs import PHASE_COUNTER, TraceCollector
from repro.workloads.micro import run_fig12b

LAYERS = ("faults", "tracer")


def _under(layer: str, workload, config: MemphisConfig):
    """``workload(config)`` with one instrumentation layer live."""
    if layer == "faults":
        # enables the injector's per-instruction draw without injecting
        with scope(faults=FaultPlan(specs=[])):
            return workload(config)
    with scope(trace=TraceCollector()) as rt:
        result = workload(config)
    # sampling was live under the tracer
    assert any(e.ph == PHASE_COUNTER for e in rt.trace.events())
    return result


# ------------------------------------------------------------------ workloads

def _quickstart(config: MemphisConfig, iters: int = 4):
    """Ridge-regression steps with cross-iteration reuse; returns a
    ``(final ndarray, counters, timelines)`` observation triple."""
    with scope(ids=IdSpace()):
        session = Session(config)
        data = (np.arange(200.0 * 8).reshape(200, 8) % 17.0) / 17.0
        target = (np.arange(200.0).reshape(200, 1) % 5.0) / 5.0
        X = session.read(data, "X")
        y = session.read(target, "y")
        w = session.read(np.zeros((8, 1)), "w0")
        for _ in range(iters):
            grad = X.t() @ (X @ w) - X.t() @ y
            w = w - 0.002 * grad
        out = w.compute()
    return out, session.stats.counters(), dict(session.clock.timelines)


def _cellwise(config: MemphisConfig, iters: int = 3):
    """Straight-line ufunc chains; same observation triple as
    :func:`_quickstart`."""
    with scope(ids=IdSpace()):
        session = Session(config)
        data = (np.arange(64.0 * 64).reshape(64, 64) % 23.0) / 23.0 - 0.5
        X = session.read(data, "X")
        out = None
        for _ in range(iters):
            out = (((X * 2.0) + 1.0).sigmoid() * 0.5).relu().compute()
    return out, session.stats.counters(), dict(session.clock.timelines)


def _assert_equivalent(plain, instrumented):
    out_p, counters_p, clock_p = plain
    out_i, counters_i, clock_i = instrumented
    assert out_p.tobytes() == out_i.tobytes()
    assert counters_p == counters_i
    assert clock_p == clock_i


def _no_reuse() -> MemphisConfig:
    config = MemphisConfig.memphis()
    config.reuse_mode = ReuseMode.NONE
    return config


class TestQuickstartEquivalence:
    @pytest.mark.parametrize("make_config", [
        MemphisConfig.memphis, MemphisConfig.base,
    ], ids=["memphis", "base"])
    def test_byte_identical_under_empty_fault_plan(self, make_config):
        _assert_equivalent(
            _quickstart(make_config()),
            _under("faults", _quickstart, make_config()),
        )

    @pytest.mark.parametrize("layer", ["tracer"])
    def test_byte_identical_under_collector(self, layer):
        _assert_equivalent(
            _quickstart(MemphisConfig.memphis()),
            _under(layer, _quickstart, MemphisConfig.memphis()),
        )


class TestChainEquivalence:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_unfused_chain_byte_identical(self, layer):
        """Reuse off: every chain step is its own instruction through
        the loop, whichever hook is live."""
        _assert_equivalent(
            _cellwise(_no_reuse()),
            _under(layer, _cellwise, _no_reuse()),
        )

    def test_chain_interior_not_cached(self):
        cfg = MemphisConfig.memphis()
        cfg.reuse_mode = ReuseMode.NONE
        session = Session(cfg)
        X = session.read(np.ones((16, 16)), "X")
        (((X * 2.0) + 1.0).sigmoid() * 0.5).relu().compute()
        assert len(session.cache) == 0


class TestServerZeroOverhead:
    """The request-observability layer must cost nothing when disabled.

    ``benchmarks/baselines/server_mixed_counters.json`` was captured
    from the committed tree *before* the request layer existed; the
    same demo run today — request contexts minted, attribution matrix
    maintained — must reproduce it byte-for-byte:
    identical merged counters, request outcomes, tenant occupancy, and
    result values, with every session's hooks still the null singletons.
    """

    BASELINE = "benchmarks/baselines/server_mixed_counters.json"

    @pytest.fixture()
    def baseline(self):
        import json
        import os

        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), self.BASELINE)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_counters_byte_identical_to_pre_request_baseline(self, baseline):
        from repro.server import run_server_demo

        report = run_server_demo(baseline["sessions"],
                                 seed=baseline["seed"])
        assert dict(report.merged.counters()) == baseline["merged_counters"]
        assert report.tenants == baseline["tenants"]
        assert {r.name: r.value for r in report.results} \
            == baseline["values"]
        records = {r["name"]: r for r in
                   (res.as_record() for res in report.results)}
        for rec in baseline["requests"]:
            got = records[rec["name"]]
            for key in ("tenant", "ok", "steps", "retries", "error"):
                assert got[key] == rec[key], (rec["name"], key)

    def test_null_singletons_with_request_layer_disabled(self, baseline):
        from repro.faults.injector import NULL_INJECTOR
        from repro.obs.tracer import NULL_TRACER
        from repro.server import run_server_demo

        report = run_server_demo(baseline["sessions"],
                                 seed=baseline["seed"])
        for session in report.sessions:
            assert session.tracer is NULL_TRACER
            assert session.faults is NULL_INJECTOR


class TestFig12Equivalence:
    @pytest.mark.parametrize("setting", ["Base", "MPH"])
    def test_byte_identical_under_metrics_collector(self, setting):
        """Gauge sampling live (the trace collector is what collects the
        metrics samples): GPU recycling reads identically."""
        def fig12b(_config=None):
            with scope(ids=IdSpace()):
                return run_fig12b(setting, batch_size=64, num_images=128,
                                  reuse_fraction=0.5, hw=12)

        plain = fig12b()
        metered = _under("tracer", fig12b, None)
        assert plain.metric == metered.metric
        assert plain.counters == metered.counters
        assert plain.elapsed == metered.elapsed
