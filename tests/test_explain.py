"""Tests for repro.obs.explain: plan capture, rendering, DOT unification."""

import numpy as np
import pytest

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.common.config import MemphisConfig
from repro.common.runtime import current, scope
from repro.core.session import Session
from repro.lineage.query import to_dot
from repro.obs import (
    ExplainCollector,
    LEVEL_FULL,
    LEVEL_HOPS,
    LEVEL_RUNTIME,
    plan_to_dot,
    render_plan,
)


def _pending(sess: Session):
    a = sess.read(np.ones((8, 8)))
    b = (a @ a) + a
    return b


def _captured_plan():
    collector = ExplainCollector()
    with scope(explain=collector):
        sess = Session(MemphisConfig())
        sess.evaluate([_pending(sess)])
    assert collector.plans
    return collector.plans[0]


# ------------------------------------------------------------ capture


class TestCapture:
    def test_config_flag_creates_private_collector(self):
        with scope(explain=ExplainCollector()):
            sess = Session(MemphisConfig())
        sess.evaluate([_pending(sess)])
        assert sess.explain_collector is not None
        assert sess.explain_collector.blocks_captured == 1

    def test_disabled_by_default(self):
        sess = Session(MemphisConfig())
        sess.evaluate([_pending(sess)])
        assert sess.explain_collector is None
        assert "explain capture is off" in sess.explain()

    def test_ambient_collector(self):
        collector = ExplainCollector()
        with scope(explain=collector):
            assert current().explain is collector
            sess = Session(MemphisConfig())
            sess.evaluate([_pending(sess)])
        assert current().explain is None
        assert collector.blocks_captured == 1

    def test_dedup_counts_executions(self):
        collector = ExplainCollector()
        with scope(explain=collector):
            sess = Session(MemphisConfig())
            x = sess.read(np.ones((4, 4)))
            for _ in range(3):
                y = x @ x
                sess.evaluate([y])
        # three structurally identical blocks -> one plan, 3 executions
        assert collector.blocks_captured == 3
        assert len(collector.plans) == 1
        assert collector.plans[0].executions == 3
        assert "(x3 executions)" in collector.render()

    def test_snapshots_hold_no_live_hops(self):
        plan = _captured_plan()
        for snap in plan.order:
            assert isinstance(snap.id, int)
            assert isinstance(snap.input_ids, tuple)
            assert not hasattr(snap, "inputs")


# ------------------------------------------------------------ rendering


class TestRenderPlan:
    def test_full_has_dag_and_stream(self):
        text = render_plan(_captured_plan(), LEVEL_FULL)
        assert "-- HOP DAG (post-rewrite) --" in text
        assert "-- instruction stream (linearized) --" in text

    def test_hops_level_omits_stream(self):
        text = render_plan(_captured_plan(), LEVEL_HOPS)
        assert "-- HOP DAG (post-rewrite) --" in text
        assert "instruction stream" not in text

    def test_runtime_level_omits_dag(self):
        text = render_plan(_captured_plan(), LEVEL_RUNTIME)
        assert "HOP DAG" not in text
        assert "-- instruction stream (linearized) --" in text

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            render_plan(_captured_plan(), "verbose")

    def test_hop_ids_and_costs_rendered(self):
        plan = _captured_plan()
        text = render_plan(plan, LEVEL_FULL)
        for snap in plan.order:
            assert f"#{snap.id}" in text
        assert "op-mem" in text and "FLOP" in text

    def test_reuse_annotations_present(self):
        # default config probes the lineage cache -> op hops marked {reuse}
        text = render_plan(_captured_plan(), LEVEL_RUNTIME)
        assert "{reuse" in text

    def test_diagnostics_attach_by_hop_id(self):
        plan = _captured_plan()
        hop_id = plan.root_ids[0]
        report = DiagnosticReport([Diagnostic(
            rule="DAG999", severity=Severity.WARNING,
            message="synthetic finding", hop=hop_id,
        )])
        text = render_plan(plan, LEVEL_FULL, diagnostics=report)
        assert "! warning [DAG999] synthetic finding" in text

    def test_evicts_rendered(self):
        collector = ExplainCollector()
        with scope(explain=collector):
            sess = Session(MemphisConfig())
            sess.evaluate([_pending(sess)])
            sess.evict_gpu(50.0)
        assert "[evict] evict_gpu(50%)" in collector.render()


# ------------------------------------------------------------ Session.explain


class TestSessionExplain:
    def test_explain_pending_handles_without_execution(self):
        sess = Session(MemphisConfig())
        handle = _pending(sess)
        before = sess.stats.get("runtime/instructions_executed")
        text = sess.explain(handle)
        assert "-- HOP DAG (post-rewrite) --" in text
        assert sess.stats.get("runtime/instructions_executed") == before

    def test_explain_nothing_pending(self):
        sess = Session(MemphisConfig())
        materialized = sess.read(np.ones((4, 4)))
        sess.evaluate([materialized])
        assert "nothing to explain" in sess.explain(materialized)

    def test_explain_renders_captured_plans(self):
        with scope(explain=ExplainCollector()):
            sess = Session(MemphisConfig())
        sess.evaluate([_pending(sess)])
        text = sess.explain()
        assert text.startswith("=== explain")
        assert "block 1" in text

    def test_explain_matches_evaluate_pipeline(self):
        """explain(handles) shows the same hop count evaluate compiles."""
        with scope(explain=ExplainCollector()):
            sess = Session(MemphisConfig())
        handle = _pending(sess)
        explained = sess.explain(handle, level=LEVEL_RUNTIME)
        sess.evaluate([handle])
        captured = sess.explain_collector.plans[0]
        # the runtime level appends memory-plan / region-watermark
        # sections (repro.analysis.memplan); the stream section proper
        # still renders one line per compiled instruction (+2 headers)
        stream = explained.split("\n\nmemory plan")[0]
        assert len(stream.splitlines()) - 2 == len(captured.order)


# ------------------------------------------------------------ DOT unification


class TestDotUnification:
    def test_lineage_to_dot_delegates(self):
        sess = Session(MemphisConfig())
        h = sess.read(np.ones((4, 4)))
        r = h @ h
        sess.evaluate([r])
        dot = to_dot(sess.lineage_of(r))
        assert dot.startswith("digraph lineage {")
        assert "rankdir=BT;" in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")

    def test_plan_to_dot_same_grammar(self):
        dot = plan_to_dot(_captured_plan())
        assert dot.startswith("digraph plan {")
        assert "rankdir=BT;" in dot
        assert "->" in dot

    def test_truncation(self):
        sess = Session(MemphisConfig())
        h = sess.read(np.ones((2, 2)))
        for _ in range(12):
            h = h + h
        sess.evaluate([h])
        dot = to_dot(sess.lineage_of(h), max_nodes=3)
        assert 'truncated [label="...", shape=plaintext];' in dot
