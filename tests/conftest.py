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

from repro.common.runtime import RuntimeContext


@pytest.fixture(autouse=True)
def _fresh_runtime():
    with RuntimeContext():
        yield
