"""Shared test fixture: a fresh runtime context per test.

Everything process-wide a test could leak — trace / explain / analysis
collectors, a fault plan, a shared substrate, config overrides — and the id space numbering HOPs, lineage items, RDDs,
broadcasts and GPU pointers lives on one
:class:`~repro.common.runtime.RuntimeContext`.  Running each test inside
its own fresh context gives it ids from 1 and no collaborators, and
leaving the ``with`` drops whatever the test activated, however it ended.
"""

from __future__ import annotations

import pytest

from repro.backends.spark.rdd import RDD
from repro.common.runtime import RuntimeContext
from repro.core.substrate import SessionContext


@pytest.fixture(autouse=True)
def _fresh_runtime():
    with RuntimeContext():
        yield


@pytest.fixture
def rdd_names(monkeypatch):
    """Names of the RDDs built while the test runs, in creation order
    (a ``SparkContext`` keeps no registry of its RDDs)."""
    names: list[str] = []
    init = RDD.__init__

    def recording(self, context, deps, num_partitions, name):
        init(self, context, deps, num_partitions, name)
        names.append(name)

    monkeypatch.setattr(RDD, "__init__", recording)
    return names


@pytest.fixture
def cross_session_keys(monkeypatch):
    """Keys of the cache hits a session took on another session's entry,
    in hit order, on any shared substrate."""
    keys: list = []
    note_hit = SessionContext.note_hit

    def recording(ctx, entry):
        if entry.owner not in (None, ctx.uid):
            keys.append(entry.key)
        note_hit(ctx, entry)

    monkeypatch.setattr(SessionContext, "note_hit", recording)
    return keys
