"""Diagnostic collection across sessions.

An :class:`AnalysisCollector` on the runtime context
(``runtime.scope(analysis=AnalysisCollector())``) makes every
:class:`~repro.core.session.Session` built under it verify each compiled
block and deposit the resulting diagnostics here — the one way to turn
verification on.  Nothing raises, so partially broken programs still
run to completion.  This is what powers
``python -m repro.analysis`` and the harness ``--verify-ir`` flag, both
of which analyze whole workloads made of many sessions::

    with runtime.scope(analysis=AnalysisCollector()) as rt:
        run_workload(...)
    assert not rt.analysis.errors()
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport


class AnalysisCollector:
    """Accumulates diagnostic reports from every verified block."""

    def __init__(self) -> None:
        self.reports: list[DiagnosticReport] = []
        self.blocks_verified = 0

    def add(self, report: DiagnosticReport) -> None:
        self.blocks_verified += 1
        if report:
            self.reports.append(report)

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
