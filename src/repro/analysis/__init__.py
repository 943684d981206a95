"""Static IR verification & dataflow linting for compiled programs.

``repro.analysis`` is a pass manager over (a) post-rewrite HOP DAGs and
(b) linearized instruction streams, checking the invariants the
compiler and runtime otherwise assume silently: DAG structure and shape
consistency, backend-placement legality, def-before-use soundness of
any proposed linearization (Algorithm 2 included), liveness/leaks,
async-operator hazards (§5.1), and lineage-key determinism (§3).

Three entry points, all reporting rather than raising:

* ``runtime.scope(analysis=AnalysisCollector())`` — every block a
  session built in the scope compiles is verified inside
  :meth:`Session.evaluate`, before it executes, into the collector;
* ``python -m repro.analysis [workload ...]`` — run registered
  workloads under ``runtime.scope(analysis=AnalysisCollector())`` and
  report all findings;
* ``python -m repro.harness ... --verify-ir`` — same collector wired
  into the experiment harness.

See ``docs/ANALYSIS.md`` for the rule catalog.
"""

from repro.analysis.base import (
    AnalysisContext,
    AnalysisPass,
    register_pass,
    registered_passes,
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
    PassManager,
    analyze,
    check_linearization,
    verify_ir,
)
from repro.analysis.memplan import (
    BlockMemPlan,
    MemplanCollector,
    SessionMemPlanner,
    format_footprint_table,
    format_region_peaks,
    plan_block,
    plan_diagnostics,
)

__all__ = [
    "AnalysisCollector",
    "AnalysisContext",
    "AnalysisPass",
    "BlockMemPlan",
    "DEFAULT_PASS_ORDER",
    "Diagnostic",
    "DiagnosticReport",
    "MemplanCollector",
    "PassManager",
    "SessionMemPlanner",
    "Severity",
    "StreamDefUse",
    "analyze",
    "check_linearization",
    "format_footprint_table",
    "format_region_peaks",
    "plan_block",
    "plan_diagnostics",
    "register_pass",
    "registered_passes",
    "verify_ir",
    "walk_dag",
]
