"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper table/figure: the pytest-benchmark
fixture measures wall-clock of the experiment driver, while the printed
table reports the *simulated* times that reproduce the paper's series
(who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

import pytest

from repro.common.runtime import RuntimeContext


def pytest_collection_modifyitems(items) -> None:
    """Everything under benchmarks/ is tier 2 (select with -m tier2_bench)."""
    marker = pytest.mark.tier2_bench
    for item in items:
        item.add_marker(marker)


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Ids from 1 and no collaborators per benchmark, as in tests/."""
    with RuntimeContext():
        yield


def report(result) -> None:
    """Print an experiment table into the benchmark output."""
    print()
    print(result.table)


@pytest.fixture(scope="session")
def print_report():
    return report
