"""The verifier: runs the analysis passes over one compiled program.

:func:`analyze` is the pure core — DAG + stream in, diagnostics out.
:func:`verify_ir` is the compiler-pipeline entry point wired into
``Session.evaluate`` when the runtime context carries an analysis
collector: it additionally emits every diagnostic as a structured trace
event (``analysis/diagnostic``), bumps the stats counters and feeds the
collector.  It reports; it never aborts a block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.base import AnalysisContext
from repro.analysis.dag_rules import (
    dag_verify,
    lineage_determinism,
    placement_legality,
)
from repro.analysis.dataflow import StreamDefUse, walk_dag
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.memplan import memory_plan
from repro.analysis.stream_rules import (
    async_race,
    linearization_soundness,
    liveness_leak,
)
from repro.common.config import MemphisConfig
from repro.compiler.ir import Hop

if TYPE_CHECKING:
    from repro.analysis.memplan import BlockMemPlan

#: the pass pipeline, in order: structural checks first, then placement,
#: then the stream analyses, then cross-cutting determinism and memory.
DEFAULT_PASS_ORDER = (
    dag_verify,
    placement_legality,
    linearization_soundness,
    liveness_leak,
    async_race,
    lineage_determinism,
    memory_plan,
)

#: passes over the linearized stream, skipped when no order is given.
_STREAM_PASSES = frozenset(
    (linearization_soundness, liveness_leak, async_race, memory_plan))

#: stats counters bumped by :func:`verify_ir`.
IR_PASSES_RUN = "analysis/passes_run"
IR_DIAGNOSTICS = "analysis/diagnostics"
IR_ERRORS = "analysis/errors"


def analyze(roots: Sequence[Hop],
            order: Optional[Sequence[Hop]] = None,
            config: Optional[MemphisConfig] = None,
            passes: Sequence[Callable] = DEFAULT_PASS_ORDER,
            plan: Optional["BlockMemPlan"] = None,
            flags: Optional[dict[int, int]] = None) -> DiagnosticReport:
    """Run ``passes`` (default: all) over one compiled program.

    A pass is a plain function ``(AnalysisContext) -> list[Diagnostic]``.

    Only :func:`dag_verify` runs on a cyclic DAG (most dataflow is
    undefined there; it reports the cycle), and the stream passes only
    when an ``order`` is given.  ``plan`` is the block's memory plan
    when the caller already has one; otherwise ``memory_plan`` makes it.
    """
    roots = list(roots)
    nodes, back_edges = walk_dag(roots)
    stream = list(order) if order is not None else None
    ctx = AnalysisContext(
        roots=roots,
        order=stream,
        config=config or MemphisConfig(),
        nodes=nodes,
        cyclic=bool(back_edges),
        defuse=StreamDefUse(stream, roots) if stream is not None else None,
        plan=plan,
        flags=flags or {},
    )
    report = DiagnosticReport()
    for pass_ in passes:
        if ctx.cyclic and pass_ is not dag_verify:
            continue
        if stream is None and pass_ in _STREAM_PASSES:
            continue
        report.extend(pass_(ctx))
    return report


def verify_ir(roots: Sequence[Hop], order: Sequence[Hop],
              config: MemphisConfig, tracer=None, stats=None,
              collector=None,
              plan: Optional["BlockMemPlan"] = None,
              flags: Optional[dict[int, int]] = None) -> DiagnosticReport:
    """Compiler-pipeline verification (``runtime.scope(analysis=...)``).

    Runs the full pipeline and publishes diagnostics to the tracer /
    stats / context collector; the report is returned, never raised.
    """
    report = analyze(roots, order, config, plan=plan, flags=flags)
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
