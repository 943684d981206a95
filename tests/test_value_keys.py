"""Equal keys mean equal bytes: the value-key rule of ``repro.lineage.item``.

CSE, plan tokens and lineage decide that two computations are the same
by the keys of their literals and attributes.  ``==`` equates ``0.0``
with ``-0.0``, which ``1 / x`` tells apart; the value key does not.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.cpu import kernels
from repro.backends.cpu.kernels import BINARY_UFUNCS
from repro.common.config import MemphisConfig
from repro.compiler.plan import attr_data
from repro.core.session import Session
from repro.lineage.item import NAN_KEY, NEG_ZERO_KEY, key_value, value_key
from repro.lineage.recompute import attrs_from_data
from repro.runtime.values import MatrixValue, ScalarValue

NAN = float("nan")
#: ±0.0, subnormals, ±inf, one NaN object (so NaN literals meet their
#: own key), ints and bools, and floats equal to some of them.
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, NAN,
          0, 1, -1, 2, True, False, 1.0, -1.0, 2.0]

#: a matrix holding every value, so ``replace`` finds each pattern.
CELLS = np.array([[0.0, -0.0, 5e-324, -5e-324],
                  [1e-310, math.inf, -math.inf, NAN],
                  [1.0, -1.0, 2.0, 3.5]])


def _outcome(opcode, inputs, attrs):
    """The kernel's output bytes, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = kernels.execute(opcode, inputs, attrs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    data = out.data if isinstance(out, MatrixValue) else np.float64(out.value)
    return np.asarray(data).tobytes()


def _attr_cases(v):
    """Attribute sets of ``replace``, ``fill``, ``seq`` and ``rand``
    that carry ``v``."""
    x = [MatrixValue(CELLS)]
    fill = dict(rows=2, cols=3, min=v, max=v, sparsity=1.0,
                pdf="uniform", seed=0)
    return [
        ("replace", x, {"pattern": v, "replacement": 7.0}),
        ("replace", x, {"pattern": 2.0, "replacement": v}),
        ("rand", [], fill),
        ("rand", [], dict(fill, min=-1.0)),
        ("rand", [], dict(fill, min=0.0, max=1.0, seed=v)),
        ("seq", [], {"from": v, "to": 3.0, "incr": 1.0}),
        ("seq", [], {"from": 1.0, "to": 3.0, "incr": v}),
    ]


class TestKeyEqualMeansByteEqual:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(VALUES), st.sampled_from(VALUES))
    def test_literals(self, a, b):
        if ("lit", value_key(a)) != ("lit", value_key(b)):
            return
        x = MatrixValue(CELLS)
        for opcode in BINARY_UFUNCS:
            for left in (True, False):
                def run(v):
                    s = ScalarValue(v)
                    return _outcome(opcode, [x, s] if left else [s, x], {})
                assert run(a) == run(b), (opcode, a, b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(VALUES), st.sampled_from(VALUES))
    def test_attributes(self, a, b):
        for (opcode, inputs, left), (_, _, right) in zip(_attr_cases(a),
                                                         _attr_cases(b)):
            if attr_data(left) == attr_data(right):
                assert _outcome(opcode, inputs, left) \
                    == _outcome(opcode, inputs, right), (opcode, left, right)


class TestValueKey:
    def test_only_negative_zero_and_nan_change_key(self):
        assert value_key(-0.0) == NEG_ZERO_KEY != value_key(0.0)
        assert value_key(NAN) is NAN
        assert value_key(NAN, NAN_KEY) == NAN_KEY
        for v in (0.0, 0, False, 1, 1.0, True, 5e-324, math.inf, "x"):
            assert value_key(v) is v

    def test_attributes_replay_from_their_keys(self):
        attrs = {"pattern": NAN, "replacement": -0.0}
        replayed = attrs_from_data(attr_data(attrs))
        assert math.isnan(replayed["pattern"])
        assert math.copysign(1.0, replayed["replacement"]) == -1.0
        assert key_value(1.5) == 1.5


def _x(sess):
    return sess.read(np.full((3, 3), 5.0), "X")


@pytest.mark.filterwarnings("ignore:divide by zero")
class TestSignedZeroRegressions:
    """Both wrong answers returned ``+inf`` for ``-0.0``."""

    def test_one_block_keeps_both_literals(self):
        sess = Session(MemphisConfig.memphis())
        x = _x(sess)
        pos, neg = 1 / (x * 0.0), 1 / (x * -0.0)
        sess.evaluate([pos, neg])
        assert np.all(pos.compute() == math.inf)
        assert np.all(neg.compute() == -math.inf)

    def test_replacement_attribute_is_not_a_cache_hit(self):
        sess = Session(MemphisConfig.memphis())
        x = _x(sess)
        assert np.all((1 / x.replace(5.0, 0.0)).compute() == math.inf)
        assert np.all((1 / x.replace(5.0, -0.0)).compute() == -math.inf)

    def test_literal_in_a_later_block_is_not_a_cache_hit(self):
        sess = Session(MemphisConfig.memphis())
        x = _x(sess)
        assert np.all((1 / (x * 0.0)).compute() == math.inf)
        assert np.all((1 / (x * -0.0)).compute() == -math.inf)
