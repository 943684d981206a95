"""Tests for lineage-trace query processing (model debugging)."""

import numpy as np

from repro import MemphisConfig, Session
from repro.lineage.item import OP_DATA, OP_LITERAL, LineageItem
from repro.lineage.query import (
    common_subtraces,
    data_sources,
    depends_on,
    diff_traces,
    find_by_opcode,
    subtraces,
    to_dot,
    trace_stats,
)


def dataset(name: str) -> LineageItem:
    return LineageItem(OP_DATA, (name,))


def literal(value: object) -> LineageItem:
    return LineageItem(OP_LITERAL, (value,))


def _trace(reg: float = 0.5) -> LineageItem:
    x = dataset("X")
    y = dataset("y")
    gram = LineageItem("ba+*", (), (LineageItem("r'", (), (x,)), x))
    rhs = LineageItem("ba+*", (), (LineageItem("r'", (), (y,)), x))
    reg_item = LineageItem("+", (), (gram, literal(reg)))
    return LineageItem("solve", (), (reg_item, rhs))


class TestTraceStats:
    def test_counts(self):
        stats = trace_stats(_trace())
        assert stats.num_data_sources == 2
        assert stats.num_literals == 1
        assert stats.opcode_histogram["ba+*"] == 2
        assert stats.num_operators == stats.num_nodes - 3

    def test_height(self):
        assert trace_stats(_trace()).height == _trace().height


class TestQueries:
    def test_find_by_opcode(self):
        assert len(find_by_opcode(_trace(), "r'")) == 2
        assert len(find_by_opcode(_trace(), "solve")) == 1

    def test_data_sources_sorted_unique(self):
        assert data_sources(_trace()) == ["X", "y"]

    def test_depends_on(self):
        trace = _trace()
        assert depends_on(trace, "X")
        assert depends_on(trace, "y")
        assert not depends_on(trace, "Z")

    def test_subtraces_are_recomputable(self):
        sub = subtraces(_trace(), "ba+*")
        assert all(s.opcode == "ba+*" for s in sub)
        assert all(depends_on(s, "X") for s in sub)


class TestDiff:
    def test_equal_traces(self):
        diff = diff_traces(_trace(0.5), _trace(0.5))
        assert diff.equal
        assert diff.divergence is None

    def test_hyperparameter_change_located(self):
        diff = diff_traces(_trace(0.5), _trace(0.9))
        assert not diff.equal
        left, right = diff.divergence
        # divergence is the changed literal (or its immediate consumer)
        assert "lit" in (left.opcode, right.opcode) or \
            left.opcode == right.opcode == "+"

    def test_extra_step_reported_in_histogram(self):
        base = _trace()
        extended = LineageItem("exp", (), (base,))
        diff = diff_traces(extended, base)
        assert diff.only_left_ops.get("exp") == 1
        assert not diff.only_right_ops


class TestCommonSubtraces:
    def test_shared_gram_matrix_found(self):
        left, right = _trace(0.5), _trace(0.9)
        shared = common_subtraces(left, right)
        opcodes = sorted(s.opcode for s in shared)
        # the reg-independent parts are shared: X'X and (y'X)
        assert "ba+*" in opcodes

    def test_shared_are_maximal(self):
        left, right = _trace(0.5), _trace(0.9)
        shared = common_subtraces(left, right)
        ids = {id(s) for s in shared}
        for s in shared:
            for inner in s.iter_dag():
                if inner is not s:
                    assert id(inner) not in ids  # no nested duplicates

    def test_identical_traces_share_root(self):
        left = _trace()
        shared = common_subtraces(left, _trace())
        assert len(shared) == 1
        assert shared[0].opcode == "solve"


class TestDot:
    def test_renders_nodes_and_edges(self):
        dot = to_dot(_trace())
        assert dot.startswith("digraph")
        assert "solve" in dot
        assert "->" in dot

    def test_truncation(self):
        x = dataset("X")
        node = x
        for _ in range(50):
            node = LineageItem("exp", (), (node,))
        dot = to_dot(node, max_nodes=10)
        assert "truncated" in dot


class TestSessionIntegration:
    def test_query_real_session_trace(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(np.random.default_rng(0).random((30, 4)), "X")
        out = ((X.t() @ X) * 2.0).sum()
        item = sess.lineage_of(out)
        assert depends_on(item, "X")
        stats = trace_stats(item)
        assert stats.opcode_histogram.get("ba+*") == 1

    def test_explain_reuse_between_runs(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(np.random.default_rng(0).random((30, 4)), "X")
        a = (X.t() @ X) + 0.1
        b = (X.t() @ X) + 0.9
        item_a = sess.lineage_of(a.sum())
        item_b = sess.lineage_of(b.sum())
        shared = common_subtraces(item_a, item_b)
        assert any(s.opcode == "ba+*" for s in shared)
