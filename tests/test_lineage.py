"""Tests for lineage items and serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import LineageError
from repro.lineage import (
    LineageItem,
    dags_equal,
    dataset,
    deserialize,
    literal,
    serialize,
)
from repro.lineage.item import LineageInterner


def _chain(depth: int, leaf_name: str = "X") -> LineageItem:
    item = dataset(leaf_name)
    for _ in range(depth):
        item = LineageItem("exp", (), (item,))
    return item


class TestLineageItem:
    def test_equal_structures_are_equal(self):
        x = dataset("X")
        a = LineageItem("ba+*", (), (x, x))
        b = LineageItem("ba+*", (), (x, x))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_opcode_not_equal(self):
        x = dataset("X")
        assert LineageItem("+", (), (x, x)) != LineageItem("-", (), (x, x))

    def test_different_data_not_equal(self):
        x = dataset("X")
        a = LineageItem("rand", ("seed", 1), (x,))
        b = LineageItem("rand", ("seed", 2), (x,))
        assert a != b

    def test_different_leaf_not_equal(self):
        a = LineageItem("exp", (), (dataset("X"),))
        b = LineageItem("exp", (), (dataset("Y"),))
        assert a != b

    def test_structurally_equal_distinct_leaves(self):
        # distinct objects, same structure: equal by value
        a = LineageItem("exp", (), (dataset("X"),))
        b = LineageItem("exp", (), (dataset("X"),))
        assert a == b

    def test_height(self):
        x = dataset("X")
        assert x.height == 0
        op = LineageItem("exp", (), (x,))
        assert op.height == 1
        op2 = LineageItem("+", (), (op, x))
        assert op2.height == 2

    def test_height_mismatch_early_abort(self):
        assert not dags_equal(_chain(3), _chain(4))

    def test_deep_chain_equality_non_recursive(self):
        # would blow the recursion limit with a recursive implementation
        a = _chain(5000)
        b = _chain(5000)
        assert a == b

    def test_shared_subdag_identity_shortcut(self):
        shared = _chain(50)
        a = LineageItem("+", (), (shared, shared))
        b = LineageItem("+", (), (shared, shared))
        assert a == b

    def test_dag_size_counts_shared_once(self):
        shared = _chain(3)  # 4 nodes
        root = LineageItem("+", (), (shared, shared))
        assert root.dag_size() == 5

    def test_function_item(self):
        interner = LineageInterner()
        item = interner.function(
            "linreg", (interner.dataset("X"), interner.literal(0.1)))
        assert item.is_function
        assert not dataset("X").is_function

    def test_literal_leaf(self):
        assert literal(3.5).is_leaf
        assert literal(3.5) == literal(3.5)
        assert literal(3.5) != literal(4.5)


class TestSerialization:
    def test_roundtrip_simple(self):
        x = dataset("X")
        root = LineageItem("ba+*", (), (LineageItem("r'", (), (x,)), x))
        back = deserialize(serialize(root))
        assert back == root

    def test_roundtrip_with_data(self):
        root = LineageItem(
            "rand", ("rows", 10, "cols", 5, "seed", 42, "label", "a;b\\c"), ()
        )
        back = deserialize(serialize(root))
        assert back == root
        assert back.data == root.data

    def test_roundtrip_floats_bools(self):
        root = LineageItem("dropout", ("rate", 0.5, "flag", True), (dataset("X"),))
        back = deserialize(serialize(root))
        assert back.data == ("rate", 0.5, "flag", True)

    def test_shared_subdags_preserved(self):
        shared = LineageItem("exp", (), (dataset("X"),))
        root = LineageItem("+", (), (shared, shared))
        back = deserialize(serialize(root))
        assert back == root
        assert back.inputs[0] is back.inputs[1]

    def test_empty_log_rejected(self):
        with pytest.raises(LineageError):
            deserialize("")

    def test_malformed_line_rejected(self):
        with pytest.raises(LineageError):
            deserialize("not a lineage line")

    def test_forward_reference_rejected(self):
        with pytest.raises(LineageError):
            deserialize("(0) + () (1)")


@settings(max_examples=50, deadline=None)
@given(st.recursive(
    st.sampled_from(["X", "Y", "Z"]).map(dataset),
    lambda children: st.tuples(
        st.sampled_from(["+", "ba+*", "exp"]),
        st.lists(children, min_size=1, max_size=2),
    ).map(lambda t: LineageItem(t[0], (), tuple(t[1]))),
    max_leaves=12,
))
def test_property_serialize_roundtrip(item):
    """Any lineage DAG round-trips through serialization."""
    assert deserialize(serialize(item)) == item


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_property_chain_equality_iff_same_depth(d1, d2):
    assert (_chain(d1) == _chain(d2)) == (d1 == d2)
