"""Static IR verification & dataflow linting for compiled programs.

``repro.analysis`` runs a fixed tuple of passes over (a) post-rewrite
HOP DAGs and (b) linearized instruction streams, checking the invariants
the compiler and runtime otherwise assume silently: DAG structure and
shape consistency, backend-placement legality, def-before-use soundness
of any proposed linearization (Algorithm 2 included), liveness/leaks,
async-operator hazards (§5.1), lineage-key determinism (§3) and
per-region memory peaks (the static memory planner).

One switch, reporting rather than raising:
``runtime.scope(analysis=AnalysisCollector())`` — every session built in
the scope plans and verifies each block it compiles inside
:meth:`Session.evaluate`, before it executes, into the collector.  One
command: ``python -m repro.harness ... --verify-ir`` runs experiments
under that scope, prints the merged report and exits 1 on an error
finding or a predicted peak below the observed one.

See ``docs/ANALYSIS.md`` for the rule catalog.
"""

from repro.analysis.base import AnalysisContext
from repro.analysis.dag_rules import (
    dag_verify,
    lineage_determinism,
    placement_legality,
)
from repro.analysis.dataflow import StreamDefUse, walk_dag
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.hook import AnalysisCollector
from repro.analysis.manager import (
    DEFAULT_PASS_ORDER,
    analyze,
    verify_ir,
)
from repro.analysis.memplan import (
    BlockMemPlan,
    SessionMemPlanner,
    format_footprint_table,
    format_region_peaks,
    memory_plan,
    plan_block,
    plan_diagnostics,
)
from repro.analysis.stream_rules import (
    async_race,
    linearization_soundness,
    liveness_leak,
)

__all__ = [
    "AnalysisCollector",
    "AnalysisContext",
    "BlockMemPlan",
    "DEFAULT_PASS_ORDER",
    "Diagnostic",
    "DiagnosticReport",
    "SessionMemPlanner",
    "Severity",
    "StreamDefUse",
    "analyze",
    "async_race",
    "dag_verify",
    "format_footprint_table",
    "format_region_peaks",
    "lineage_determinism",
    "linearization_soundness",
    "liveness_leak",
    "memory_plan",
    "placement_legality",
    "plan_block",
    "plan_diagnostics",
    "verify_ir",
    "walk_dag",
]
