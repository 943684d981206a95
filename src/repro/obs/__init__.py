"""Structured tracing & profiling for the MEMPHIS reproduction.

``repro.obs`` turns the simulator's internal mechanics — reuse probes,
evictions, spills, prefetch overlap, Spark jobs/stages, GPU copies and
pointer recycling, federated round-trips — into a typed event stream
over the simulated clock, kept in one bounded in-memory ring buffer and
written out by a Chrome-trace/Perfetto exporter that renders a whole
run as a timeline with one lane per backend.

Enable for every session built in a scope (``with
runtime.scope(trace=TraceCollector()) as rt: ...``, see
``repro.common.runtime`` — the one activation), or from the CLI
(``python -m repro.harness fig11a --trace out.json``).  See
``docs/OBSERVABILITY.md`` for the event taxonomy and a worked example.

Two sibling layers:

* ``repro.obs.metrics`` — the gauge sampler: region occupancy, cache
  size, GPU residency, ... emitted as counter events (``ph: "C"``) on
  the same tracer, so they share its ring buffer, request stamping and
  Perfetto export; ``format_summary`` renders their sparkline digest;
* ``repro.obs.explain`` — plan-level EXPLAIN of the post-rewrite HOP
  DAG and the linearized instruction stream, with reuse/prefetch/
  checkpoint/evict annotations and inline verifier diagnostics.
"""

from repro.obs.chrome import (
    chrome_trace_dict,
    export_chrome_trace,
    load_chrome_trace,
)
from repro.obs.explain import (
    ExplainCollector,
    ExplainPlan,
    HopSnapshot,
    LEVEL_FULL,
    LEVEL_HOPS,
    LEVEL_RUNTIME,
    LEVELS,
    plan_to_dot,
    render_dot,
    render_plan,
    snapshot_plan,
)
from repro.obs.events import (
    EV_BROADCAST,
    EV_SERVER_ATTRIBUTION,
    EV_SERVER_REQUEST,
    EV_CACHE_DELAY,
    EV_CACHE_EVICT,
    EV_CACHE_PUT,
    EV_CACHE_RESTORE,
    EV_CACHE_SPILL,
    EV_FED_REQUEST,
    EV_GPU_D2H,
    EV_GPU_DEFRAG,
    EV_GPU_EVICT_D2H,
    EV_GPU_FREE,
    EV_GPU_H2D,
    EV_GPU_KERNEL,
    EV_GPU_MALLOC,
    EV_GPU_RECYCLE,
    EV_GPU_REUSE,
    EV_INSTR,
    EV_IR_DIAG,
    EV_PREFETCH,
    EV_PREFETCH_DONE,
    EV_PROBE,
    EV_SPARK_JOB,
    EV_SPARK_PART_EVICT,
    EV_SPARK_PART_SPILL,
    EV_SPARK_SHUFFLE_REUSE,
    EV_SPARK_STAGE,
    Event,
    LANE_CP,
    LANE_FED,
    LANE_GPU,
    LANE_SP,
    LANES,
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
)
from repro.obs.schema import (
    TRACE_SCHEMA,
    validate_chrome_trace,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.request import RequestContext
from repro.obs.summary import (
    TraceSummary,
    format_summary,
    sparkline,
    summarize,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceCollector,
    Tracer,
)

__all__ = [
    "EV_BROADCAST",
    "EV_CACHE_DELAY",
    "EV_SERVER_ATTRIBUTION",
    "EV_SERVER_REQUEST",
    "EV_CACHE_EVICT",
    "EV_CACHE_PUT",
    "EV_CACHE_RESTORE",
    "EV_CACHE_SPILL",
    "EV_FED_REQUEST",
    "EV_GPU_D2H",
    "EV_GPU_DEFRAG",
    "EV_GPU_EVICT_D2H",
    "EV_GPU_FREE",
    "EV_GPU_H2D",
    "EV_GPU_KERNEL",
    "EV_GPU_MALLOC",
    "EV_GPU_RECYCLE",
    "EV_GPU_REUSE",
    "EV_INSTR",
    "EV_IR_DIAG",
    "EV_PREFETCH",
    "EV_PREFETCH_DONE",
    "EV_PROBE",
    "EV_SPARK_JOB",
    "EV_SPARK_PART_EVICT",
    "EV_SPARK_PART_SPILL",
    "EV_SPARK_SHUFFLE_REUSE",
    "EV_SPARK_STAGE",
    "Event",
    "ExplainCollector",
    "ExplainPlan",
    "HopSnapshot",
    "LANE_CP",
    "LANE_FED",
    "LANE_GPU",
    "LANE_SP",
    "LANES",
    "LEVEL_FULL",
    "LEVEL_HOPS",
    "LEVEL_RUNTIME",
    "LEVELS",
    "NULL_TRACER",
    "NullTracer",
    "PHASE_COUNTER",
    "PHASE_INSTANT",
    "PHASE_SPAN",
    "RequestContext",
    "RingBufferSink",
    "Span",
    "TRACE_SCHEMA",
    "TraceCollector",
    "TraceSummary",
    "Tracer",
    "chrome_trace_dict",
    "export_chrome_trace",
    "format_summary",
    "load_chrome_trace",
    "plan_to_dot",
    "render_dot",
    "render_plan",
    "snapshot_plan",
    "sparkline",
    "summarize",
    "validate_chrome_trace",
]
