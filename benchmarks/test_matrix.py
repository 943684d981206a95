"""The cross-feature matrix: every program under every feature combination.

A cell is one :class:`~repro.common.runtime.RuntimeContext`:
``faults`` none / ``FaultPlan.randomize(0)`` / ``(1)``, and a
``configure`` hook that sets the CP, GPU and Spark eviction policies to
the region defaults or one ``EvictionPolicyName``.  A program is one of
the nine ``targets.py`` workloads (private substrates) or the
four-session server demo (one shared substrate: the combinations
``--server`` refuses on the command line).  Every cell runs under an
``AnalysisCollector`` in a fresh context — so every session plans and
verifies each block — and must complete with the plain cell's results
(``WorkloadResult.metric`` exactly; the server's per-request values),
no error-severity diagnostic, every memory-plan bound (predicted peak >=
observed), and a passing ``Substrate.audit()`` /
``SparkCacheManager.audit()`` / ``GpuMemoryManager.audit()`` on every
substrate, Spark tier and GPU memory manager built.

Every program gets the full cross of the two axes, except Fig. 12(a)/(b),
which run in the policy-only cells, where every policy must still reuse
and the Eq. 1 default must be deterministic (``test_memory_guard.py``
holds its counters to the recorded baseline).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from typing import NamedTuple, Optional

import pytest

from benchmarks.targets import TARGETS
from repro.analysis import AnalysisCollector
from repro.backends.gpu import GpuMemoryManager
from repro.common.config import EvictionPolicyName, MemphisConfig
from repro.common.runtime import RuntimeContext
from repro.common.stats import CACHE_HITS, CACHE_MISSES
from repro.core.spark_cache import SparkCacheManager
from repro.core.substrate import Substrate
from repro.faults import FaultPlan
from repro.harness import runner
from repro.server import ServerReport, run_server_demo
from repro.workloads.base import WorkloadResult


class Cell(NamedTuple):
    faults: Optional[int]                    # FaultPlan.randomize seed
    policy: Optional[EvictionPolicyName]

    def __str__(self) -> str:
        return (f"faults{'-' if self.faults is None else self.faults}-"
                f"{self.policy.value if self.policy else 'default'}")

    def configure(self, config: MemphisConfig) -> None:
        """The cell's ``RuntimeContext.configure`` hook."""
        if self.policy is not None:
            config.cache.policy = config.gpu.policy = self.policy
            config.cache.spark_policy = config.spark.policy = self.policy


AXES = ((None, 0, 1), (None, *EvictionPolicyName))
CROSS = [Cell(*values) for values in itertools.product(*AXES)]
PLAIN = CROSS[0]
POLICY_ONLY = [PLAIN._replace(policy=policy) for policy in EvictionPolicyName]

PROGRAMS = dict(TARGETS)
PROGRAMS["server"] = lambda: run_server_demo(4, seed=11)
FIG12 = {"fig12a": runner.run_experiment_fig12a,
         "fig12b": runner.run_experiment_fig12b}
PROGRAMS.update(FIG12)


def _cells(program: str) -> list[Cell]:
    return POLICY_ONLY if program in FIG12 else CROSS


@contextlib.contextmanager
def audited():
    """Audit every substrate, Spark cache manager and GPU memory manager
    built inside, once its run is over.

    The programs run their sessions one after another, so what one
    built is audited (and let go) when the next substrate is built, the
    last one's on exit; an ``AssertionError`` names the violated law.
    """
    inits = {cls: cls.__init__
             for cls in (Substrate, SparkCacheManager, GpuMemoryManager)}
    built: list = []

    def audit_built():
        while built:
            built.pop().audit()

    def recording(cls):
        def recording_init(self, *args, **kwargs):
            if cls is Substrate:
                audit_built()
            inits[cls](self, *args, **kwargs)
            built.append(self)
        return recording_init

    for cls in inits:
        cls.__init__ = recording(cls)
    try:
        yield
        audit_built()
    finally:
        for cls, init in inits.items():
            cls.__init__ = init


def run_cell(program: str, cell: Cell):
    """Run ``program`` in ``cell``; returns (result, analysis)."""
    analysis = AnalysisCollector()
    faults = None if cell.faults is None else FaultPlan.randomize(cell.faults)
    with RuntimeContext(analysis=analysis, faults=faults,
                        configure=cell.configure), audited():
        return PROGRAMS[program](), analysis


def outcome(result):
    """What a program computed, reduced to comparable values."""
    if isinstance(result, WorkloadResult):
        return result.metric
    if isinstance(result, (tuple, list)):
        return [outcome(item) for item in result]
    if isinstance(result, runner.ExperimentResult):
        return [w.metric for w in result.workloads()]
    if isinstance(result, ServerReport):
        assert result.ok, [r.error for r in result.results if not r.ok]
        return {r.name: r.value for r in result.results}
    return result


@functools.lru_cache(maxsize=None)
def plain_outcome(program: str):
    return outcome(run_cell(program, PLAIN)[0])


def hit_rate(grid: dict) -> float:
    """Aggregate lineage-cache hit rate over one experiment grid
    (the no-reuse ``Base`` column has nothing to hit)."""
    cells = [result for row in grid.values()
             for label, result in row.items() if label != "Base"]
    hits = sum(r.counter(CACHE_HITS) for r in cells)
    return hits / max(hits + sum(r.counter(CACHE_MISSES) for r in cells), 1)


@pytest.mark.parametrize("program,cell", [
    pytest.param(program, cell, id=f"{program}-{cell}")
    for program in PROGRAMS for cell in _cells(program)
])
def test_cell(program, cell):
    result, analysis = run_cell(program, cell)
    assert outcome(result) == plain_outcome(program)
    errors = analysis.merged().errors()
    assert not errors, "\n".join(diag.format() for diag in errors)
    rows = analysis.check_bounds()
    assert rows, "no session registered with the analysis collector"
    bad = [row for row in rows if not row[-1]]
    assert not bad, f"predicted peak < observed: {bad}"
    if program in FIG12:
        # raw hit count is the wrong axis to rank policies on (Eq. 1
        # maximises compute cost saved), so the only cross-policy
        # demand is that each one still reuses
        rate = hit_rate(result.grid)
        print(f"[matrix] {program} {cell.policy.value}: hit rate {rate:.3f}")
        assert rate > 0.0
        if cell.policy is EvictionPolicyName.COST_SIZE:
            again = run_cell(program, cell)[0]
            assert [w.counters for w in again.workloads()] \
                == [w.counters for w in result.workloads()]
