"""The pass manager: runs analysis passes over one compiled program.

:func:`analyze` is the pure core — DAG + stream in, diagnostics out.
:func:`verify_ir` is the compiler-pipeline entry point wired into
``Session.evaluate`` when the runtime context carries an analysis
collector: it additionally emits every diagnostic as a structured trace
event (``analysis/diagnostic``), bumps the stats counters and feeds the
collector.  It reports; it never aborts a block.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# importing the rule modules populates the pass registry
import repro.analysis.dag_rules  # noqa: F401
import repro.analysis.memplan  # noqa: F401
import repro.analysis.stream_rules  # noqa: F401
from repro.analysis.base import (
    AnalysisContext,
    AnalysisPass,
    registered_passes,
)
from repro.analysis.dataflow import walk_dag
from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.common.config import MemphisConfig
from repro.compiler.ir import Hop

#: canonical pass order: structural checks first, then placement, then
#: the stream analyses, then cross-cutting determinism.
DEFAULT_PASS_ORDER = (
    "dag-verify",
    "placement-legality",
    "linearization-soundness",
    "liveness-leak",
    "async-race",
    "lineage-determinism",
    "memory-plan",
)

#: stats counters bumped by :func:`verify_ir`.
IR_PASSES_RUN = "analysis/passes_run"
IR_DIAGNOSTICS = "analysis/diagnostics"
IR_ERRORS = "analysis/errors"


class PassManager:
    """Runs a configured subset of the registered passes in order."""

    def __init__(self, passes: Optional[Sequence[str]] = None) -> None:
        registry = registered_passes()
        names = list(passes) if passes is not None else [
            n for n in DEFAULT_PASS_ORDER if n in registry
        ]
        unknown = [n for n in names if n not in registry]
        if unknown:
            raise ValueError(
                f"unknown analysis passes: {unknown} "
                f"(registered: {sorted(registry)})"
            )
        self.passes: list[AnalysisPass] = [registry[n]() for n in names]

    def run(self, roots: Sequence[Hop],
            order: Optional[Sequence[Hop]] = None,
            config: Optional[MemphisConfig] = None) -> DiagnosticReport:
        """Analyze one compiled program; returns all diagnostics."""
        roots = list(roots)
        nodes, back_edges = walk_dag(roots)
        ctx = AnalysisContext(
            roots=roots,
            order=list(order) if order is not None else None,
            config=config or MemphisConfig(),
            nodes=nodes,
            cyclic=bool(back_edges),
        )
        report = DiagnosticReport()
        for pass_ in self.passes:
            if pass_.runs_on == "stream" and ctx.order is None:
                continue
            if pass_.requires_acyclic and ctx.cyclic:
                continue
            report.extend(pass_.run(ctx))
        return report


def analyze(roots: Sequence[Hop],
            order: Optional[Sequence[Hop]] = None,
            config: Optional[MemphisConfig] = None,
            passes: Optional[Sequence[str]] = None) -> DiagnosticReport:
    """Run the (default) pass pipeline over one compiled program."""
    return PassManager(passes).run(roots, order, config)


def verify_ir(roots: Sequence[Hop], order: Sequence[Hop],
              config: MemphisConfig, tracer=None, stats=None,
              collector=None) -> DiagnosticReport:
    """Compiler-pipeline verification (``runtime.scope(analysis=...)``).

    Runs the full pipeline and publishes diagnostics to the tracer /
    stats / context collector; the report is returned, never raised.
    """
    report = analyze(roots, order, config)
    if stats is not None:
        stats.inc(IR_PASSES_RUN, len(DEFAULT_PASS_ORDER))
        if report:
            stats.inc(IR_DIAGNOSTICS, len(report))
        if report.errors():
            stats.inc(IR_ERRORS, len(report.errors()))
    if tracer is not None and getattr(tracer, "enabled", False):
        from repro.obs.events import EV_IR_DIAG, LANE_CP

        for diag in report:
            tracer.instant(
                EV_IR_DIAG, LANE_CP,
                rule=diag.rule, severity=diag.severity.label,
                hop=diag.hop, opcode=diag.opcode,
                message=diag.message,
            )
    if collector is not None:
        collector.add(report)
    return report


def check_linearization(roots: Iterable[Hop],
                        order: Sequence[Hop]) -> list:
    """Soundness-check one proposed linearization (test helper).

    Returns the error-severity diagnostics of the
    linearization-soundness pass — empty iff ``order`` is a valid,
    duplicate-free, complete topological order of the DAGs under
    ``roots``.
    """
    report = analyze(list(roots), order,
                     passes=("linearization-soundness",))
    return report.at_least(Severity.ERROR)
