"""Tests for the static IR verifier (repro.analysis).

Every pass is exercised with at least one violating and one clean
program; plus the diagnostics model, the dataflow infrastructure, the
pass pipeline, the session wiring, and the ambient collector.
"""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisCollector,
    Diagnostic,
    DiagnosticReport,
    Severity,
    StreamDefUse,
    analyze,
    async_race,
    dag_verify,
    lineage_determinism,
    linearization_soundness,
    liveness_leak,
    placement_legality,
    verify_ir,
    walk_dag,
)
from repro import Session
from repro.common.config import MemphisConfig
from repro.common.errors import PlacementError, VerificationError
from repro.common.runtime import current, scope
from repro.compiler.ir import BROADCAST, PREFETCH, Hop, literal_hop, op_hop
from repro.compiler.linearize import depth_first
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.lineage.item import LineageItem


def leaf(rows, cols, name=None):
    """A data leaf with a lineage bundle and a materialized payload."""
    hop = Hop("data", "data", [], shape=(rows, cols))
    item = LineageItem("data", (name or f"leaf{hop.id}",))
    hop.bundle = (item, {"CP": object()})
    return hop


def bare_leaf(rows, cols):
    """A data leaf with neither handle nor bundle (invalid at runtime)."""
    return Hop("data", "data", [], shape=(rows, cols))


def place_all(roots, backend=BACKEND_CP):
    for root in roots:
        for hop in depth_first([root]):
            if hop.kind == "op" and hop.placement is None:
                hop.placement = backend


# ------------------------------------------------------------ diagnostics

class TestDiagnostics:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.WARNING.label == "warning"

    def test_format_includes_rule_hop_and_hint(self):
        diag = Diagnostic("DAG003", Severity.ERROR, "bad shape",
                          hop=7, opcode="ba+*", hint="fix it")
        text = diag.format()
        assert "[error] DAG003 at hop#7(ba+*): bad shape" in text
        assert "hint: fix it" in text

    def test_report_queries(self):
        report = DiagnosticReport()
        report.add(Diagnostic("A1", Severity.INFO, "i"))
        report.add(Diagnostic("A2", Severity.ERROR, "e"))
        assert len(report) == 2
        assert [d.rule for d in report.errors()] == ["A2"]
        assert report.counts() == {"info": 1, "error": 1}
        assert "1 error" in report.summary()
        assert report.by_rule("A1")[0].message == "i"

    def test_empty_report_is_clean(self):
        report = DiagnosticReport()
        assert not report
        assert report.summary() == "clean"


# --------------------------------------------------------------- dataflow

class TestWalkDag:
    def test_postorder_and_dedup(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        root = op_hop("+", [a, a])
        nodes, back_edges = walk_dag([root])
        assert [n.id for n in nodes] == [x.id, a.id, root.id]
        assert not back_edges

    def test_detects_cycle(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        a.inputs.append(b)
        _, back_edges = walk_dag([b])
        assert back_edges


class TestStreamDefUse:
    def test_positions_and_liveness(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        du = StreamDefUse([x, a, b], roots=[b])
        assert du.def_pos[x.id] == 0
        assert du.first_use(x) == 1
        assert not du.is_dead(b)  # program output
        assert not du.is_dead(x)  # consumed

    def test_undefined_use_and_duplicates(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        du = StreamDefUse([a, x, x], roots=[a])
        assert du.undefined_uses  # a consumes x before its definition
        assert [h.id for h in du.duplicates] == [x.id]


# -------------------------------------------------------------- dag-verify

class TestDagVerify:
    def test_clean_program(self):
        x = leaf(8, 4)
        root = op_hop("uak+", [op_hop("exp", [x])])
        assert not analyze([root], passes=(dag_verify,))

    def test_dag001_cycle(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        a.inputs.append(b)
        report = analyze([b], passes=(dag_verify,))
        assert report.by_rule("DAG001")

    def test_dag002_dangling_data_leaf(self):
        root = op_hop("exp", [bare_leaf(4, 4)])
        report = analyze([root], passes=(dag_verify,))
        assert report.by_rule("DAG002")

    def test_dag003_stale_shape(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.shape = (9, 9)  # a "rewrite" forgot to re-derive
        report = analyze([root], passes=(dag_verify,))
        assert [d.severity for d in report.by_rule("DAG003")] == \
            [Severity.ERROR]

    def test_dag004_literal_with_inputs(self):
        bad = Hop("literal", "lit", [leaf(2, 2)], shape=(1, 1))
        report = analyze([bad], passes=(dag_verify,))
        assert report.by_rule("DAG004")

    def test_dag005_shape_inference_failure(self):
        bad = Hop("op", "nosuchop", [], shape=(4, 4))
        report = analyze([bad], passes=(dag_verify,))
        assert report.by_rule("DAG005")

    def test_dag006_empty_shape(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.inputs[0].shape = (0, 4)
        root.shape = (0, 4)
        report = analyze([root], passes=(dag_verify,))
        assert {d.severity for d in report.by_rule("DAG006")} == \
            {Severity.WARNING}


# ----------------------------------------------------- placement-legality

class TestPlacementLegality:
    def test_clean_cp_program(self):
        x = leaf(8, 4)
        root = op_hop("uak+", [op_hop("exp", [x])])
        place_all([root])
        assert not analyze([root], passes=(placement_legality,))

    def test_unplaced_dag_is_skipped(self):
        root = op_hop("exp", [bare_leaf(4, 4)])
        assert not analyze([root], passes=(placement_legality,))

    def test_plc001_unsupported_spark_op(self):
        a, b = leaf(5, 5), leaf(5, 2)
        root = op_hop("solve", [a, b])
        root.placement = BACKEND_SP
        report = analyze([root], passes=(placement_legality,))
        assert report.by_rule("PLC001")

    def test_plc002_disabled_backend(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.placement = BACKEND_GPU
        cfg = MemphisConfig()  # gpu_enabled defaults to False
        report = analyze([root], config=cfg,
                         passes=(placement_legality,))
        assert report.by_rule("PLC002")

    def test_plc003_missing_gpu_kernel(self):
        root = Hop("op", "seq", [], attrs={"from": 1, "to": 4},
                   shape=(4, 1))
        root.placement = BACKEND_GPU
        cfg = MemphisConfig(gpu_enabled=True)
        report = analyze([root], config=cfg,
                         passes=(placement_legality,))
        assert report.by_rule("PLC003")

    def test_plc004_exceeds_device_memory(self):
        cfg = MemphisConfig(gpu_enabled=True)
        rows = cfg.gpu.device_memory // 8
        root = op_hop("relu", [leaf(rows, 1)])
        root.placement = BACKEND_GPU
        report = analyze([root], config=cfg,
                         passes=(placement_legality,))
        assert report.by_rule("PLC004")

    def test_plc005_exceeds_operation_memory(self):
        cfg = MemphisConfig(gpu_enabled=True)
        rows = cfg.cpu.operation_memory_bytes // 8
        assert 2 * rows * 8 < cfg.gpu.device_memory
        root = op_hop("relu", [leaf(rows, 1)])
        root.placement = BACKEND_GPU
        report = analyze([root], config=cfg,
                         passes=(placement_legality,))
        assert {d.severity for d in report.by_rule("PLC005")} == \
            {Severity.WARNING}

    def test_plc006_prefetch_on_cp(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.placement = BACKEND_CP
        report = analyze([root], passes=(placement_legality,),
                         lowered={root.id: (PREFETCH, None)})
        assert report.by_rule("PLC006")

    def test_plc007_broadcast_on_spark(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.placement = BACKEND_SP
        report = analyze([root], passes=(placement_legality,),
                         lowered={root.id: (BROADCAST, "blockwise")})
        assert report.by_rule("PLC007")

    def test_plc008_broadcast_over_driver_limit(self):
        cfg = MemphisConfig.memphis()
        cols = cfg.spark.driver_memory // 4 // 8 + 1
        root = op_hop("exp", [leaf(1, cols)])
        root.placement = BACKEND_CP
        report = analyze([root], config=cfg, passes=(placement_legality,),
                         lowered={root.id: (BROADCAST, None)})
        assert {d.severity for d in report.by_rule("PLC008")} == \
            {Severity.WARNING}
        assert not analyze([root], config=cfg,
                           passes=(placement_legality,)).by_rule("PLC008")

    def test_plc009_partially_placed(self):
        inner = op_hop("exp", [leaf(4, 4)])
        root = op_hop("log", [inner])
        root.placement = BACKEND_CP  # inner left unplaced
        report = analyze([root], passes=(placement_legality,))
        assert report.by_rule("PLC009")

    def test_plc010_empty_payloads(self):
        x = leaf(4, 4)
        x.bundle = (x.bundle[0], {})  # lineage but nothing materialized
        root = op_hop("exp", [x])
        place_all([root])
        report = analyze([root], passes=(placement_legality,))
        assert report.by_rule("PLC010")

    def test_plc011_missing_cpu_kernel(self):
        root = Hop("op", "nosuchop", [leaf(4, 4)], shape=(4, 4))
        root.placement = BACKEND_CP
        report = analyze([root], passes=(placement_legality,))
        assert report.by_rule("PLC011")


# ----------------------------------------------- linearization-soundness

class TestLinearizationSoundness:
    def _program(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        return x, a, b

    def test_depth_first_order_is_sound(self):
        *_, b = self._program()
        assert not analyze([b], depth_first([b]),
                           passes=(linearization_soundness,)).errors()

    def test_lin001_use_before_def(self):
        x, a, b = self._program()
        errors = analyze([b], [b, a, x],
                         passes=(linearization_soundness,)).errors()
        assert {d.rule for d in errors} == {"LIN001"}

    def test_lin002_duplicate_instruction(self):
        x, a, b = self._program()
        errors = analyze([b], [x, a, a, b],
                         passes=(linearization_soundness,)).errors()
        assert "LIN002" in {d.rule for d in errors}

    def test_lin003_missing_instruction(self):
        x, a, b = self._program()
        errors = analyze([b], [x, b],
                         passes=(linearization_soundness,)).errors()
        rules = {d.rule for d in errors}
        assert "LIN003" in rules  # a reachable but not scheduled
        assert "LIN001" in rules  # and b consumes it undefined

    def test_lin004_stray_instruction_is_warning(self):
        x, a, b = self._program()
        stray = op_hop("sqrt", [x])
        report = analyze([b], [x, a, stray, b],
                         passes=(linearization_soundness,))
        assert not report.errors()
        assert {d.severity for d in report.by_rule("LIN004")} == \
            {Severity.WARNING}


# ----------------------------------------------------------- liveness-leak

class TestLivenessLeak:
    def test_clean_program(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        report = analyze([b], [x, a, b], passes=(liveness_leak,))
        assert not report

    def test_liv001_dead_op(self):
        x = leaf(4, 4)
        dead = op_hop("exp", [x])
        root = op_hop("log", [x])
        report = analyze([root], [x, dead, root],
                         passes=(liveness_leak,))
        assert report.by_rule("LIV001")

    def test_liv002_dead_gpu_value(self):
        x = leaf(4, 4)
        dead = op_hop("exp", [x])
        dead.placement = BACKEND_GPU
        root = op_hop("log", [x])
        report = analyze([root], [x, dead, root],
                         passes=(liveness_leak,))
        assert report.by_rule("LIV002")

    def test_liv003_unused_data_leaf(self):
        x, unused = leaf(4, 4), leaf(2, 2)
        root = op_hop("exp", [x])
        report = analyze([root], [x, unused, root],
                         passes=(liveness_leak,))
        assert {d.severity for d in report.by_rule("LIV003")} == \
            {Severity.INFO}


# -------------------------------------------------------------- async-race

class TestAsyncRace:
    def _sp_chain(self):
        """A Spark op ``s`` over leaf ``x``; tests pass ``s`` as
        prefetched (``lowered={s.id: (PREFETCH, "blockwise")}``)."""
        x = leaf(1000, 100)
        s = op_hop("exp", [x])
        s.placement = BACKEND_SP
        return x, s

    def test_clean_prefetch_with_overlap(self):
        x, s = self._sp_chain()
        other = op_hop("log", [x])
        other.placement = BACKEND_CP
        c = op_hop("uak+", [s])
        c.placement = BACKEND_CP
        root = op_hop("+", [other, c])
        root.placement = BACKEND_CP
        report = analyze([root], [x, s, other, c, root],
                         passes=(async_race,),
                         lowered={s.id: (PREFETCH, "blockwise")})
        assert not report

    def test_asy001_zero_overlap(self):
        x, s = self._sp_chain()
        c = op_hop("uak+", [s])
        c.placement = BACKEND_CP
        report = analyze([c], [x, s, c], passes=(async_race,),
                         lowered={s.id: (PREFETCH, "blockwise")})
        assert {d.severity for d in report.by_rule("ASY001")} == \
            {Severity.INFO}

    def test_asy002_device_race(self):
        x = leaf(100, 100)
        g = op_hop("exp", [x])
        g.placement = BACKEND_GPU
        c = op_hop("relu", [g])
        c.placement = BACKEND_GPU
        report = analyze([c], [x, g, c], passes=(async_race,),
                         lowered={g.id: (PREFETCH, None)})
        assert report.by_rule("ASY002")

    def test_asy003_spark_internal_prefetch(self):
        x, s = self._sp_chain()
        c = op_hop("log", [s])
        c.placement = BACKEND_SP
        report = analyze([c], [x, s, c], passes=(async_race,),
                         lowered={s.id: (PREFETCH, "blockwise")})
        assert report.by_rule("ASY003")

    def test_prefetched_spark_action_with_a_spark_consumer_is_clean(self):
        """A prefetched action (``async_action``) ends on the driver
        anyway, whoever consumes it: ``X - sum(X)`` with ``X`` on Spark,
        planted by hand and compiled by a session."""
        x, _ = self._sp_chain()
        s = op_hop("uak+", [x])
        s.placement = BACKEND_SP
        c = op_hop("-", [x, s])
        c.placement = BACKEND_SP
        report = analyze([c], [x, s, c], passes=(async_race,),
                         lowered={s.id: (PREFETCH, "async_action"),
                                  c.id: (0, "scalar_right")})
        assert not report.by_rule("ASY003")

        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 64 * 1024
        with scope(analysis=AnalysisCollector()) as rt:
            sess = Session(cfg)
            X = sess.read(np.random.default_rng(5).random((20_000, 16)), "X")
            out = X - X.sum()
            total, minus = out.hop.inputs[1].id, out.hop.id
            lowered = sess._compile([out]).lowered
            out.compute()
        assert lowered[total] == (PREFETCH, "async_action")
        assert lowered[minus][1] == "scalar_right"
        assert rt.analysis.merged().by_rule("ASY001")  # the pass ran
        assert not rt.analysis.merged().by_rule("ASY003")

    def test_asy004_unconsumed_broadcast(self):
        x = leaf(4, 4)
        b = op_hop("exp", [x])
        b.placement = BACKEND_CP
        c = op_hop("log", [b])
        c.placement = BACKEND_CP
        report = analyze([c], [x, b, c], passes=(async_race,),
                         lowered={b.id: (BROADCAST, None)})
        assert report.by_rule("ASY004")


# ---------------------------------------------------- lineage-determinism

class TestLineageDeterminism:
    def test_clean_seeded_rand(self):
        root = op_hop("rand", [],
                      {"rows": 4, "cols": 4, "seed": 42})
        assert not analyze([root], passes=(lineage_determinism,))

    def test_det001_unseeded_rand(self):
        root = op_hop("rand", [], {"rows": 4, "cols": 4})
        report = analyze([root], passes=(lineage_determinism,))
        assert [d.severity for d in report.by_rule("DET001")] == \
            [Severity.ERROR]

    def test_seedless_constant_fill_is_clean(self):
        """A constant fill's bytes are its attributes' alone, so its key
        names its value without a seed."""
        root = op_hop("rand", [], {"rows": 4, "cols": 4,
                                   "min": 1.0, "max": 1.0})
        assert not analyze([root], passes=(lineage_determinism,))

    def test_det001_seedless_rand_with_a_range(self):
        root = op_hop("rand", [], {"rows": 4, "cols": 4,
                                   "min": 1.0, "max": 2.0})
        report = analyze([root], passes=(lineage_determinism,))
        assert [d.severity for d in report.by_rule("DET001")] == \
            [Severity.ERROR]

    def test_det002_unseeded_dropout(self):
        root = op_hop("dropout", [leaf(4, 4)], {"p": 0.5})
        report = analyze([root], passes=(lineage_determinism,))
        assert {d.severity for d in report.by_rule("DET002")} == \
            {Severity.WARNING}

    def test_det003_name_collision_different_shapes(self):
        a = leaf(4, 4, name="X")
        b = leaf(2, 2, name="X")  # same dataset name, different data
        root = op_hop("+", [op_hop("uak+", [a]), op_hop("uak+", [b])])
        report = analyze([root], passes=(lineage_determinism,))
        assert [d.severity for d in report.by_rule("DET003")] == \
            [Severity.ERROR]

    def test_det004_aliasing_leaves_same_shape(self):
        a = leaf(4, 4, name="X")
        b = leaf(4, 4, name="X")
        root = op_hop("+", [a, b])
        report = analyze([root], passes=(lineage_determinism,))
        assert {d.severity for d in report.by_rule("DET004")} == \
            {Severity.INFO}

    def test_det004_missed_cse(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("exp", [x])
        root = op_hop("+", [a, b])
        report = analyze([root], passes=(lineage_determinism,))
        assert report.by_rule("DET004")

    def test_distinct_names_do_not_collide(self):
        root = op_hop("+", [leaf(4, 4, "X"), leaf(4, 4, "Y")])
        assert not analyze([root], passes=(lineage_determinism,))

    def test_signed_zeros_and_nan_attributes_key_as_cse_keys_them(self):
        """``X*0.0`` and ``X*-0.0`` are two computations (``1/x`` tells
        them apart), so CSE keeps both and no DET004 fires; two NaN
        ``replace`` patterns are one computation, which CSE merges."""
        x = leaf(4, 4)
        zeros = op_hop("+", [op_hop("*", [x, literal_hop(0.0)]),
                             op_hop("*", [x, literal_hop(-0.0)])])
        assert not analyze([zeros], passes=(lineage_determinism,))
        nans = op_hop("+", [
            op_hop("replace", [x], {"pattern": float("nan"),
                                    "replacement": 0.0})
            for _ in range(2)])
        report = analyze([nans], passes=(lineage_determinism,))
        assert len(report.by_rule("DET004")) == 1

    def test_det005_address_in_attr(self):
        root = op_hop("relu", [leaf(4, 4)], {"ctx": object()})
        report = analyze([root], passes=(lineage_determinism,))
        assert {d.severity for d in report.by_rule("DET005")} == \
            {Severity.WARNING}

    def test_det006_non_primitive_attr(self):
        root = op_hop("relu", [leaf(4, 4)], {"dims": (1, 2)})
        report = analyze([root], passes=(lineage_determinism,))
        assert {d.severity for d in report.by_rule("DET006")} == \
            {Severity.INFO}


# ----------------------------------------------------------- pass pipeline

class TestPassManager:
    def test_stream_passes_skipped_without_order(self):
        x = leaf(4, 4)
        dead = op_hop("exp", [x])  # would be LIV001 with a stream
        root = op_hop("log", [x])
        report = analyze([root, dead])  # no order given
        assert not report.by_rule("LIV001")

    def test_cyclic_dag_skips_dataflow_but_reports(self):
        x = leaf(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        a.inputs.append(b)
        report = analyze([b], [x, a, b])
        assert report.by_rule("DAG001")
        assert not report.by_rule("LIN001")  # skipped, not crashed


# ----------------------------------------------------------- Hop.validate

class TestHopValidate:
    def test_valid_dag(self):
        root = op_hop("exp", [leaf(4, 4)])
        assert not root.validate()

    def test_invalid_dag_raises(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.shape = (9, 9)
        with pytest.raises(VerificationError) as exc:
            root.validate()
        assert exc.value.report.by_rule("DAG003")

    def test_invalid_dag_report_only(self):
        root = op_hop("exp", [leaf(4, 4)])
        root.shape = (9, 9)
        report = root.validate(raise_on_error=False)
        assert report.errors()


# --------------------------------------------------------- verify_ir gate

class _FakeTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def instant(self, name, lane, **fields):
        self.events.append((name, fields))


class _FakeStats:
    def __init__(self):
        self.counters = {}

    def inc(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by


class TestVerifyIr:
    def _broken(self):
        x = leaf(4, 4)
        root = op_hop("exp", [x])
        root.shape = (9, 9)
        return [root], [x, root]

    def test_reports_errors_without_raising(self):
        """The gate reports into the context's collector; the block is
        not refused (only ``Hop.validate`` raises)."""
        roots, order = self._broken()
        with scope(analysis=AnalysisCollector()) as rt:
            report = verify_ir(roots, order, MemphisConfig(),
                               collector=rt.analysis)
        assert report.errors()
        assert rt.analysis.errors() == report.errors()

    def test_publishes_to_tracer_stats_and_collector(self):
        roots, order = self._broken()
        tracer, stats = _FakeTracer(), _FakeStats()
        collector = AnalysisCollector()
        report = verify_ir(roots, order, MemphisConfig(), tracer=tracer,
                           stats=stats, collector=collector)
        assert report.errors()
        assert any(name == "analysis/diagnostic"
                   for name, _ in tracer.events)
        assert stats.counters["analysis/errors"] >= 1
        assert collector.blocks_verified == 1

    def test_clean_block_raises_nothing(self):
        x = leaf(4, 4)
        root = op_hop("uak+", [x])
        place_all([root])
        collector = AnalysisCollector()
        report = verify_ir([root], [x, root], MemphisConfig(),
                           collector=collector)
        assert not report.errors() and not collector.errors()


# ------------------------------------------------------- session wiring

class TestSessionIntegration:
    def _run_grid(self):
        from repro import Session

        sess = Session(MemphisConfig.memphis())
        rng = np.random.default_rng(7)
        X = sess.read(rng.random((64, 8)), "X")
        y = sess.read(rng.random((64, 1)), "y")
        total = 0.0
        for reg in (0.1, 1.0):
            g = X.t() @ X + sess.eye(8) * reg
            total += float((g @ (X.t() @ y)).sum().item())
        return total

    def test_verified_evaluation_succeeds(self):
        """Verification only reports: a verified run computes exactly
        what an unverified one does."""
        with scope(analysis=AnalysisCollector()):
            verified = self._run_grid()
        assert np.isfinite(verified) and verified == self._run_grid()

    def test_spark_op_without_an_operator_is_reported_not_compiled_away(
            self):
        """A Spark-placed op with no physical operator (PLC001) still
        compiles: EXPLAIN renders its plan with the finding, and only
        running the instruction raises."""
        with scope(analysis=AnalysisCollector()):
            sess = Session(MemphisConfig.base())
            X = sess.read(np.ones((8, 4)), "X")
            out = sess.cbind(X, X)
            out.hop.placement = BACKEND_SP
            text = sess.explain(out, level="runtime")
            with pytest.raises(PlacementError, match="'cbind'"):
                out.compute()
        assert "PLC001" in text and "cbind" in text

    def test_ambient_collector_sees_blocks(self):
        collector = AnalysisCollector()
        with scope(analysis=collector):
            self._run_grid()
        assert collector.blocks_verified > 0
        assert not collector.errors()
        assert current().analysis is None  # the scope has exited

    def test_collector_merge_dedups(self):
        collector = AnalysisCollector()
        report = DiagnosticReport()
        report.add(Diagnostic("A1", Severity.INFO, "same", hop=3))
        collector.add(report)
        collector.add(report)
        assert collector.blocks_verified == 2
        assert len(collector.merged()) == 1


# ------------------------------------------------- depth_first cross-check

class TestLinearizerCrossCheck:
    def test_fuzzed_dags_linearize_soundly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            leaves = [leaf(4, 4) for _ in range(3)]
            pool = list(leaves)
            for _ in range(int(rng.integers(2, 10))):
                k = int(rng.integers(1, 3))
                ins = [pool[int(i)]
                       for i in rng.integers(0, len(pool), size=k)]
                pool.append(op_hop("+" if k == 2 else "exp", ins))
            k = int(rng.integers(1, 4))
            roots = [pool[int(i)]
                     for i in rng.integers(0, len(pool), size=k)]
            assert not analyze(roots, depth_first(roots),
                               passes=(linearization_soundness,)).errors()
