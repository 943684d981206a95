"""Canonical lineage: every item the runtime traces comes from the
substrate's interner, so structurally equal runtime items are one object
and probes, puts and namespacing never fall into a ``dags_equal`` walk
(docs/PERFORMANCE.md §2).  The interner must not merge literals that
replay or serialize differently.
"""

import math

import numpy as np
import pytest

import repro.lineage.item as item_mod
from repro.common.config import MemphisConfig
from repro.common.stats import SERVER_CROSS_HITS
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.lineage.item import LineageInterner
from repro.ml.l2svm import l2svm
from repro.server import pure_program

RNG = np.random.default_rng(7)


@pytest.fixture
def dags_equal_calls(monkeypatch):
    """Count structural DAG comparisons (``LineageItem.__eq__`` calls the
    module-level ``dags_equal`` whenever two distinct items meet)."""
    calls = []
    original = item_mod.dags_equal

    def counting(a, b, memo=None):
        calls.append((a, b))
        return original(a, b, memo)

    monkeypatch.setattr(item_mod, "dags_equal", counting)
    return calls


def _drive(program, session):
    """Run a server program (maybe a generator) to completion."""
    out = program(session)
    if hasattr(out, "__next__"):
        try:
            while True:
                next(out)
        except StopIteration as stop:
            return stop.value
    return out


class TestNoStructuralComparisons:
    def test_repeated_l2svm_configuration(self, dags_equal_calls):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(RNG.random((60, 5)), "X")
        y = sess.read(np.sign(RNG.random((60, 1)) - 0.5), "y")
        first = l2svm(sess, X, y, reg=0.1, max_iterations=3).compute()
        hits = sess.stats.get("cache/hits")
        second = l2svm(sess, X, y, reg=0.1, max_iterations=3).compute()
        assert np.array_equal(first, second)
        assert sess.stats.get("cache/hits") > hits
        assert dags_equal_calls == []

    def test_same_program_in_second_session(self, dags_equal_calls):
        substrate = Substrate.shared_substrate(
            MemphisConfig.server_session())
        program = pure_program()
        results = [
            _drive(program, Session(MemphisConfig.server_session(),
                                    substrate=substrate))
            for _ in range(2)
        ]
        assert results[0] == results[1]
        assert substrate.stats.get(SERVER_CROSS_HITS) > 0
        assert dags_equal_calls == []

    def test_repeated_function_call(self, dags_equal_calls):
        sess = Session(MemphisConfig.memphis())
        calls = []

        @sess.function("gram")
        def gram(X, reg):
            calls.append(reg)
            return X.t() @ X + reg

        X = sess.read(RNG.random((20, 4)), "X")
        first = gram(X, 0.5).compute()
        second = gram(X, 0.5).compute()
        assert calls == [0.5]
        assert np.array_equal(first, second)
        assert sess.stats.get("cache/function_hits") == 1
        assert dags_equal_calls == []


class TestInternerKeys:
    def test_literals_are_canonical(self):
        interner = LineageInterner()
        assert interner.literal(0.5) is interner.literal(0.5)
        assert interner.dataset("X") is interner.dataset("X")

    @pytest.mark.parametrize("a, b", [
        (0.0, -0.0), (1, 1.0), (1, True), (1.0, True), (0, False),
        (np.float64(2.0), 2.0),
    ])
    def test_equal_but_distinguishable_literals_stay_apart(self, a, b):
        interner = LineageInterner()
        left, right = interner.literal(a), interner.literal(b)
        assert left is not right
        assert repr(left.data[0]) == repr(a)
        assert repr(right.data[0]) == repr(b)

    def test_nan_keys_by_identity(self):
        interner = LineageInterner()
        nan = float("nan")
        assert interner.literal(nan) is interner.literal(nan)
        assert interner.literal(nan) is not interner.literal(float("nan"))


class TestLiteralsReplayAsTraced:
    def test_negative_zero_serializes_and_replays(self):
        data = RNG.random((6, 3)) + 1.0
        sess = Session(MemphisConfig.memphis())
        X = sess.read(data, "X")
        (X * 0.0).compute()
        log = sess.serialize_lineage(X * -0.0)
        assert "f:-0.0" in log
        replayed = Session(MemphisConfig.memphis()).recompute(log, {"X": data})
        assert np.all(np.signbit(replayed))

    def test_nan_serializes_and_replays(self):
        data = RNG.random((6, 3))
        sess = Session(MemphisConfig.memphis())
        X = sess.read(data, "X")
        log = sess.serialize_lineage(X * math.nan)
        assert "f:nan" in log
        replayed = Session(MemphisConfig.memphis()).recompute(log, {"X": data})
        assert np.all(np.isnan(replayed))


class TestCanonicalDataLeavesStayScoped:
    def test_different_bytes_under_one_name(self):
        substrate = Substrate.shared_substrate(
            MemphisConfig.server_session())
        sessions = [Session(MemphisConfig.server_session(),
                            substrate=substrate) for _ in range(2)]
        handles = [s.read(RNG.random((16, 4)), "X") for s in sessions]
        # one canonical leaf object for the name ...
        assert handles[0].lineage is handles[1].lineage
        for sess, X in zip(sessions, handles):
            (X.t() @ X).compute()
        # ... yet the second reader's keys are scoped to its session
        leaf = handles[1].lineage
        assert substrate.shareable(sessions[0]._ctx, leaf)
        assert not substrate.shareable(sessions[1]._ctx, leaf)
        assert sessions[1]._ctx.namespaced(leaf) is not leaf
        assert substrate.stats.get(SERVER_CROSS_HITS) == 0
