"""Tests for the static memory planner (repro.analysis.memplan).

Covers the charge model and its soundness contract (predicted peak >=
observed ``MemoryRegion.peak_used`` on every tier-1 workload), the
arbiter's admission predicate, the MEM002 report on an over-peak GPU
block under an analysis collector, and the GPU placement feasibility
guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    DEFAULT_PASS_ORDER,
    AnalysisCollector,
    SessionMemPlanner,
    Severity,
    format_footprint_table,
    format_region_peaks,
    memory_plan,
    plan_block,
    plan_diagnostics,
)
from repro.analysis.memplan import (
    PLAN_REGIONS,
    REGION_CP,
    REGION_GPU,
    REGION_SPARK_CACHE,
    REGION_SPARK_STORAGE,
)
from repro.common.config import MemphisConfig, ReuseMode
from repro.common.errors import GpuOutOfMemoryError
from repro.core.entry import BACKEND_CP, BACKEND_GPU
from repro.core.session import Session
from repro.common.runtime import RuntimeContext, current, scope
from repro.memory import MemoryArbiter, region_capacities
from repro.memory.budget import RegionBudget, gpu_working_set
from repro.obs import ExplainCollector


# --------------------------------------------------------------- helpers

def _planned_session(**overrides) -> Session:
    """A session under an analysis collector (so it plans every block)
    with any config overrides applied."""
    cfg = MemphisConfig.memphis()
    for key, val in overrides.items():
        if "." in key:
            group, attr = key.split(".")
            setattr(getattr(cfg, group), attr, val)
        else:
            setattr(cfg, key, val)
    with scope(analysis=AnalysisCollector()):
        return Session(cfg)


def _gpu_chain_session(device_bytes: int, *, links: int = 10):
    """The over-budget GPU scenario: a cell-wise chain on a tiny device.

    Each link is three GPU ops (~20 KB each aligned) over a 50x50
    matrix (2500 cells, above ``gpu.min_cells``); the chain total far
    exceeds ``device_bytes`` while any single instruction's working set
    fits — exactly the MEM002 regime.  The session is built in the
    current context: wrap the call in an analysis scope to plan it.
    """
    cfg = MemphisConfig.memphis()
    cfg.gpu_enabled = True
    cfg.gpu.device_memory = device_bytes
    sess = Session(cfg)
    rng = np.random.default_rng(3)
    h = sess.read(rng.random((50, 50)), "X")
    for _ in range(links):
        h = (h * 1.001 + 0.5).relu()
    return sess, h


# ------------------------------------------------------- charge model

class TestPlanBlock:
    def test_cp_demand_covers_put_stage(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        b = (a @ a) + a
        plan = _plan_of(sess, b)
        assert plan is not None
        # with FULL reuse every op hop is offered to the CP cache, plus
        # the function-level allowance for the root
        op_bytes = sum(c.nbytes for c in plan.charges
                       if c.region == REGION_CP)
        assert plan.demand[REGION_CP] == op_bytes
        assert plan.demand[REGION_CP] >= 2 * b.hop.output_bytes

    def test_reuse_none_charges_nothing_to_cp(self):
        sess = _planned_session(reuse_mode=ReuseMode.NONE)
        a = sess.read(np.ones((32, 32)))
        plan = _plan_of(sess, a @ a)
        assert plan.demand[REGION_CP] == 0

    def test_literals_and_fused_hops_skipped(self):
        sess = _planned_session()
        a = sess.read(np.ones((16, 16)))
        plan = _plan_of(sess, a * 2.0 + 1.0)
        assert all(c.hop.kind != "literal" for c in plan.charges)
        assert all(not c.hop.fused for c in plan.charges)

    def test_bounded_peaks_clamped_at_capacity(self):
        sess = _planned_session(**{"cache.unlimited": False,
                                   "cache.driver_cache_bytes": 1024})
        a = sess.read(np.ones((64, 64)))
        plan = _plan_of(sess, (a @ a) + a)
        assert plan.demand[REGION_CP] > 1024
        assert plan.peaks[REGION_CP] == 1024

    def test_gpu_charges_are_aligned(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, links=2)
        plan = _plan_of(sess, h)
        alignment = sess.config.gpu.alignment
        gpu = [c for c in plan.charges if c.region == REGION_GPU]
        assert gpu, "chain should place ops on the GPU"
        assert all(c.nbytes % alignment == 0 for c in gpu)
        assert {c.reason for c in gpu} <= {"alloc", "upload"}

    def test_footprint_table_renders(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        plan = _plan_of(sess, (a @ a) + a)
        text = format_footprint_table(plan)
        assert "memory plan (per-hop charges, worst case):" in text
        assert "demand" in text and "capacity" in text

    def test_region_peaks_table_flags_violations(self):
        text = format_region_peaks(
            predicted={n: 100 for n in PLAN_REGIONS},
            observed={REGION_CP: 200},
        )
        row = next(ln for ln in text.splitlines()
                   if ln.split() and ln.split()[0] == "CP")
        assert "LOW" in row
        text_ok = format_region_peaks(
            predicted={n: 100 for n in PLAN_REGIONS},
            observed={REGION_CP: 50},
        )
        assert "LOW" not in text_ok


class TestBudgets:
    def test_region_capacities_cover_plan_regions(self):
        budgets = region_capacities(MemphisConfig.memphis())
        assert set(budgets) == set(PLAN_REGIONS)
        for budget in budgets.values():
            assert isinstance(budget, RegionBudget)
            assert budget.capacity >= 0

    def test_planner_and_runtime_agree_on_regions(self):
        """What the planner plans is exactly what a session registers,
        name by name and byte by byte."""
        cfg = MemphisConfig.memphis(gpu_enabled=True, spark_enabled=True)
        budgets = region_capacities(cfg)
        registered = {snap["region"]: snap
                      for snap in Session(cfg).arbiter.snapshot()}
        assert set(PLAN_REGIONS) == set(budgets) == set(registered)
        for name, budget in budgets.items():
            assert registered[name]["capacity"] == budget.capacity
            assert registered[name]["unlimited"] == budget.unlimited

    def test_spark_storage_scales_with_executors(self):
        cfg = MemphisConfig.memphis()
        one = region_capacities(cfg)[REGION_SPARK_STORAGE].capacity
        cfg.spark.num_executors *= 2
        two = region_capacities(cfg)[REGION_SPARK_STORAGE].capacity
        assert two == 2 * one


def _compile_only(sess: Session, handle):
    """Compile a pending handle to (root_hops, order) without executing."""
    compiled = sess._compile([handle])
    assert compiled is not None
    _, root_hops, order, _ = compiled
    return root_hops, order


def _plan_of(sess: Session, handle):
    """The plan ``sess`` makes for ``handle``'s block."""
    return plan_block(*_compile_only(sess, handle), sess.config)


# ------------------------------------------------------- admissible

class TestAdmissible:
    def _arbiter(self) -> MemoryArbiter:
        arb = MemoryArbiter()
        arb.add_region("CP", 1000)
        arb.add_region("GPU", 500)
        arb.add_region("INF", 10, unlimited=True)
        return arb

    def test_refuses_infeasible_demand(self):
        arb = self._arbiter()
        assert arb.admissible({"GPU": 501}) == "GPU"
        assert arb.stats.get("memory/plan_reserve_failures") == 1
        assert arb.region("CP").reserved == 0
        assert arb.region("GPU").reserved == 0

    def test_admits_feasible_demand(self):
        arb = self._arbiter()
        assert arb.admissible({"GPU": 500, "CP": 1000}) is None
        assert arb.stats.get("memory/plan_reserve_failures") == 0

    def test_resident_bytes_back_demand(self):
        arb = self._arbiter()
        cp = arb.region("CP")
        cp.acquire(400)
        # 1200 - 400 resident = 800 more, against 1000 evictable: fits
        assert arb.admissible({"CP": 1200, "INF": 50, "NOPE": 10}) is None
        # 1401 - 400 = 1001 more than eviction could ever free
        assert arb.admissible({"CP": 1401}) == "CP"
        arb.check()


# -------------------------------------------------------- MEM002 rejection

class TestRejectAccept:
    """An over-peak GPU block is an error the verifier reports before
    anything runs, and planning a fitting block changes nothing."""

    def test_reported_at_compile_time_without_spills(self):
        with scope(analysis=AnalysisCollector()) as rt:
            sess, h = _gpu_chain_session(64 * 1024)
        # the verifier reports, it does not refuse: the block runs into
        # the device exhaustion MEM002 predicted
        with pytest.raises(GpuOutOfMemoryError):
            sess.evaluate([h])
        assert [d.rule for d in rt.analysis.errors()] == ["MEM002"]
        sess.substrate.audit()  # incl. reserved == 0 on every region

    def test_planned_spills_keep_results_identical(self):
        """Planning and verification on vs off must be byte-identical on
        a fitting block."""
        def run(analysed: bool):
            with RuntimeContext(
                    analysis=AnalysisCollector() if analysed else None):
                sess = Session(MemphisConfig.memphis())
                rng = np.random.default_rng(7)
                w = sess.read(rng.random((24, 24)), "w")
                x = sess.read(rng.random((24, 24)), "x")
                for _ in range(3):
                    w = (w - (w @ x) * 0.01).relu()
                    sess.evaluate([w])
                return (sess.compute(w).tobytes(), sess.elapsed(),
                        sess.stats.get("runtime/instructions_executed"))

        assert run(True) == run(False)


# --------------------------------------------------- placement feasibility

class TestPlacementFeasibility:
    def test_infeasible_working_set_falls_back_to_cp(self):
        """An op whose working set can never fit on the device must not
        be GPU-placed (memplan MEM001 feasibility, placement guard)."""
        sess, h = _gpu_chain_session(4 * 1024, links=1)
        roots, order = _compile_only(sess, h)
        ops = [hop for hop in order if hop.kind == "op"]
        assert ops and all(hop.placement == BACKEND_CP for hop in ops)

    def test_feasible_working_set_stays_on_gpu(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, links=1)
        roots, order = _compile_only(sess, h)
        assert any(hop.placement == BACKEND_GPU for hop in order)

    def test_gpu_working_set_matches_planner_arithmetic(self):
        """The placement guard and MEM001 are one function: a device one
        byte under the widest GPU op's working set is MEM001, reported
        with exactly ``gpu_working_set``'s number."""
        sess, h = _gpu_chain_session(48 * 1024 * 1024, links=1)
        roots, order = _compile_only(sess, h)
        alignment = sess.config.gpu.alignment
        sets = [gpu_working_set(hop, alignment) for hop in order
                if hop.placement == BACKEND_GPU and hop.kind == "op"]
        assert sets and all(ws % alignment == 0 for ws in sets)
        sess.config.gpu.device_memory = max(sets) - 1
        plan = plan_block(roots, order, sess.config)
        mem001 = [d.message for d in plan_diagnostics(plan, sess.config)
                  if d.rule == "MEM001"]
        assert len(mem001) == sets.count(max(sets))
        assert all(f"is {max(sets)} B" in message for message in mem001)


# --------------------------------------------- session planner / collector

class TestSessionPlanner:
    def test_sticky_regions_accumulate_across_blocks(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([a @ a])
        first = dict(sess.memplanner.cumulative)
        b = sess.read(np.ones((32, 32)) * 2)
        sess.evaluate([b @ b])
        second = sess.memplanner.cumulative
        for name in PLAN_REGIONS:
            if first[name]:
                assert second[name] > first[name]

    def test_observe_tracks_runtime_watermarks(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([a @ a])
        assert sess.memplanner.observed[REGION_CP] > 0
        for name, pred, obs, ok in sess.memplanner.check_bounds():
            assert ok, f"{name}: predicted {pred} < observed {obs}"

    def test_ambient_collector_registers_sessions(self):
        collector = AnalysisCollector()
        with scope(analysis=collector):
            sess = Session(MemphisConfig.memphis())
            assert sess.memplanner is not None
            a = sess.read(np.ones((16, 16)))
            sess.evaluate([a + a])
        assert current().analysis is None
        assert len(collector.planners) == 1
        rows = collector.check_bounds()
        assert rows and all(ok for *_, ok in rows)

    def test_analysis_scope_plans_each_block_once(self, monkeypatch):
        """One switch, one plan: the verifier's memory pass checks the
        plan the session made, so a verified block is planned once."""
        import repro.analysis.memplan as memplan

        calls = []
        real = memplan.plan_block

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(memplan, "plan_block", counting)
        with scope(analysis=AnalysisCollector()) as rt:
            sess = Session(MemphisConfig.memphis())
        a = sess.read(np.ones((16, 16)))
        sess.evaluate([a @ a])
        sess.evaluate([a + a])
        assert rt.analysis.blocks_verified == sess.memplanner.blocks == 2
        assert len(calls) == 2
        rows = rt.analysis.check_bounds()
        assert len(rows) == len(PLAN_REGIONS)
        assert all(ok for *_, ok in rows)

    def test_explain_runtime_includes_watermarks(self):
        with scope(explain=ExplainCollector(), analysis=AnalysisCollector()):
            sess = Session(MemphisConfig())
        a = sess.read(np.ones((16, 16)))
        sess.evaluate([a @ a])
        text = sess.explain(level="runtime")
        assert "region peaks" in text
        assert "observed" in text and "predicted" in text


# ------------------------------------------ pass pipeline / --verify-ir

class TestPassIntegration:
    def test_memory_plan_pass_registered(self):
        assert memory_plan in DEFAULT_PASS_ORDER

    def test_harness_verify_ir_bound_violation_fails(self, capsys,
                                                     monkeypatch):
        """``--verify-ir`` checks every planner's bounds: a predicted
        peak below the observed one prints the session's peak table
        (``LOW`` row) and fails the run; holding bounds print nothing
        more."""
        from repro.harness.__main__ import main

        assert main(["fig2d", "--verify-ir"]) == 0
        assert "region peaks" not in capsys.readouterr().out
        absorb = SessionMemPlanner.absorb

        def under_predicting(planner, plan):
            absorb(planner, plan)
            planner.predicted = dict.fromkeys(planner.predicted, 0)

        monkeypatch.setattr(SessionMemPlanner, "absorb", under_predicting)
        assert main(["fig2d", "--verify-ir"]) == 1
        out = capsys.readouterr().out
        assert "region peaks" in out and "LOW" in out


# ----------------------------------------- predicted >= observed (16 runs)

def _experiments():
    """The paper's tier-1 experiment matrix: 7 workloads x 2 systems
    plus the two microbenchmarks — 16 runs total."""
    from repro.workloads.clean import run_clean
    from repro.workloads.en2de import run_en2de
    from repro.workloads.hband import run_hband
    from repro.workloads.hcv import run_hcv
    from repro.workloads.hdrop import run_hdrop
    from repro.workloads.micro import run_fig2c, run_reuse_overhead
    from repro.workloads.pnmf_wl import run_pnmf
    from repro.workloads.tlvis import run_tlvis

    runs = []
    for system in ("MPH", "Base"):
        runs += [
            (f"hcv/{system}", lambda s=system: run_hcv(s, 5.0)),
            (f"pnmf/{system}", lambda s=system: run_pnmf(s, 5)),
            (f"hband/{system}", lambda s=system: run_hband(s, 5.0)),
            (f"clean/{system}", lambda s=system: run_clean(s, 12)),
            (f"hdrop/{system}", lambda s=system: run_hdrop(s, epochs=1)),
            (f"en2de/{system}", lambda s=system: run_en2de(s)),
            (f"tlvis/{system}",
             lambda s=system: run_tlvis(s, num_images=2000)),
        ]
    runs.append(("fig2c/MEMPHIS",
                 lambda: run_fig2c("MEMPHIS", num_chains=20)))
    runs.append(("reuse_overhead",
                 lambda: run_reuse_overhead("Reuse", 8 * 1024,
                                            iterations=10)))
    return runs


@pytest.mark.parametrize("label,thunk", _experiments(),
                         ids=[label for label, _ in _experiments()])
def test_predicted_peak_bounds_observed(label, thunk):
    """Soundness on every tier-1 experiment: for each session the
    workload creates, the static per-region predicted peak must be an
    upper bound on the runtime's observed ``peak_used`` watermark."""
    collector = AnalysisCollector()
    with scope(analysis=collector):
        thunk()
    rows = collector.check_bounds()
    assert rows, f"{label}: no sessions registered with the collector"
    bad = [(sess_label, region, pred, obs)
           for sess_label, region, pred, obs, ok in rows if not ok]
    assert not bad, f"{label}: predicted < observed for {bad}"


# ------------------------------------------------------- property-based

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    links=st.integers(min_value=1, max_value=12),
    side=st.integers(min_value=24, max_value=64),
    budget_kb=st.integers(min_value=48, max_value=512),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_cellwise_chain_plan_is_sound(links, side, budget_kb, seed):
    """Property: for a random cell-wise GPU chain under a random device
    budget, the planner reports an MEM002 error exactly when the block's
    GPU demand exceeds the device (such a block is not executed); a
    block that fits executes, reproduces the numpy result, and its
    predicted peaks bound the observed ones."""
    cfg = MemphisConfig.memphis()
    cfg.gpu_enabled = True
    cfg.gpu.device_memory = budget_kb * 1024
    with scope(analysis=AnalysisCollector()):
        sess = Session(cfg)
    rng = np.random.default_rng(seed)
    data = rng.random((side, side))
    ops = rng.integers(0, 3, size=links)
    h = sess.read(data, "X")
    for op in ops:
        if op == 0:
            h = h * 1.01
        elif op == 1:
            h = h + 0.25
        else:
            h = h.relu()

    roots, order = _compile_only(sess, h)
    plan = plan_block(roots, order, cfg)
    errors = {d.rule for d in plan_diagnostics(plan, cfg)
              if d.severity >= Severity.ERROR}
    over = plan.demand[REGION_GPU] > cfg.gpu.device_memory
    assert ("MEM002" in errors) == over
    if errors:
        return

    got = sess.compute(h)
    want = data
    for op in ops:
        if op == 0:
            want = want * 1.01
        elif op == 1:
            want = want + 0.25
        else:
            want = np.maximum(want, 0.0)
    assert np.allclose(got, want)
    for name, pred, obs, ok in sess.memplanner.check_bounds():
        assert ok, f"{name}: predicted {pred} < observed {obs}"
