"""Diagnostic and memory-plan collection across sessions.

An :class:`AnalysisCollector` on the runtime context
(``runtime.scope(analysis=AnalysisCollector())``) makes every
:class:`~repro.core.session.Session` built under it plan and verify each
compiled block — the one way to turn static analysis on.  The session
registers its :class:`~repro.analysis.memplan.SessionMemPlanner` here
and deposits each block's diagnostics; the block's plan is made once and
checked by the verifier's ``memory_plan`` pass.  Nothing raises, so
partially broken programs still run to completion.  This is what powers
the harness ``--verify-ir`` flag, which analyzes whole workloads made of
many sessions::

    with runtime.scope(analysis=AnalysisCollector()) as rt:
        run_workload(...)
    assert not rt.analysis.errors()
    assert all(ok for *_, ok in rt.analysis.check_bounds())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

if TYPE_CHECKING:
    from repro.analysis.memplan import SessionMemPlanner


class AnalysisCollector:
    """Accumulates diagnostic reports and session planners."""

    def __init__(self) -> None:
        self.reports: list[DiagnosticReport] = []
        self.blocks_verified = 0
        #: (label, planner) of every session built under the collector.
        self.planners: list[tuple[str, "SessionMemPlanner"]] = []

    def add(self, report: DiagnosticReport) -> None:
        self.blocks_verified += 1
        if report:
            self.reports.append(report)

    def register(self, planner: "SessionMemPlanner") -> None:
        label = f"{planner.config.reuse_mode.value}#{len(self.planners)}"
        self.planners.append((label, planner))

    def merged(self) -> DiagnosticReport:
        """All diagnostics of all blocks, deduplicated.

        The same hop DAG is often recompiled every loop iteration; a
        finding repeated with identical rule/hop/message is reported
        once.
        """
        seen: set[tuple] = set()
        out = DiagnosticReport()
        for report in self.reports:
            for diag in report:
                key = (diag.rule, diag.hop, diag.opcode, diag.message)
                if key in seen:
                    continue
                seen.add(key)
                out.add(diag)
        return out

    def errors(self) -> list[Diagnostic]:
        return self.merged().errors()

    def check_bounds(self) -> list[tuple[str, str, int, int, bool]]:
        """``(label, region, predicted, observed, ok)`` rows of every
        registered planner; ok = the prediction is an upper bound."""
        return [
            (label, name, pred, obs, ok)
            for label, planner in self.planners
            for name, pred, obs, ok in planner.check_bounds()
        ]
