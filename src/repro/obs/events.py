"""Typed trace events: the observability vocabulary of the system.

Every runtime mechanism the paper evaluates (reuse probes, evictions,
prefetch overlap, Spark stage barriers, GPU pointer recycling, federated
round-trips) emits one of the event types below, carrying sim-clock
timestamps, a backend *lane*, and — where applicable — the lineage-item
id and hop opcode that make the event attributable to a specific
instruction.  The taxonomy is deliberately flat and string-keyed so that
the ring buffer and the Chrome-trace exporter need no per-type code.

Phases follow the Chrome Trace Event Format: ``X`` is a *complete* event
(``ts`` + ``dur``), ``i`` an *instant* event, ``C`` a *counter* sample
(``args["value"]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# --------------------------------------------------------------------- lanes

#: driver / local CPU instruction stream (sim timeline ``host``).
LANE_CP = "CP"
#: Spark cluster (sim timeline ``cluster``).
LANE_SP = "SP"
#: GPU device stream (sim timeline ``device``).
LANE_GPU = "GPU"
#: federated worker fleet (timestamps on the coordinator's host clock).
LANE_FED = "FED"

LANES = (LANE_CP, LANE_SP, LANE_GPU, LANE_FED)

# -------------------------------------------------------------------- phases

PHASE_SPAN = "X"
PHASE_INSTANT = "i"
#: counter event — one gauge sample (``Tracer.counter``, fed by the
#: sampler in ``repro.obs.metrics``); Perfetto renders a counter track
#: per (pid, name).  Track names are the gauge / stats-counter names.
PHASE_COUNTER = "C"

# ------------------------------------------------------------ event taxonomy

#: span — one instruction of the Fig. 4 main loop (args: opcode, hop,
#: backend, lineage).
EV_INSTR = "instr"

#: instant — lineage probe against the multi-backend cache
#: (args: hit, opcode, key).
EV_PROBE = "cache/probe"
#: instant — a result was stored under its lineage key.
EV_CACHE_PUT = "cache/put"
#: instant — delayed caching skipped a put (placeholder bump, §5.2).
EV_CACHE_DELAY = "cache/delay"
#: instant — a payload was evicted from a cache region (args: region).
EV_CACHE_EVICT = "cache/evict"
#: instant — a driver entry was spilled to local disk (§3.3).
EV_CACHE_SPILL = "cache/spill"
#: instant — a spilled entry was restored into the driver cache.
EV_CACHE_RESTORE = "cache/restore"

#: instant — an asynchronous prefetch/broadcast was issued (§5.1).
EV_PREFETCH = "async/prefetch"
#: instant — a prefetch future was waited on and resolved.
EV_PREFETCH_DONE = "async/prefetch_done"
EV_BROADCAST = "async/broadcast"

#: span — one Spark job on the cluster lane (args: rdd, stages, tasks).
EV_SPARK_JOB = "spark/job"
#: span — one stage inside a job (args: kind, tasks, stage).
EV_SPARK_STAGE = "spark/stage"
#: instant — shuffle files of a dependency were reused (§4.1).
EV_SPARK_SHUFFLE_REUSE = "spark/shuffle_reuse"
#: instant — a cached partition was lost with its executor.
EV_SPARK_PART_EVICT = "spark/partition_evicted"
#: instant — a partition was stored on executor-local disk.
EV_SPARK_PART_SPILL = "spark/partition_spilled"

#: span — host-to-device copy on the GPU lane.
EV_GPU_H2D = "gpu/h2d"
#: span — device-to-host copy (synchronization barrier).
EV_GPU_D2H = "gpu/d2h"
#: span — one kernel on the device timeline.
EV_GPU_KERNEL = "gpu/kernel"
EV_GPU_MALLOC = "gpu/malloc"
EV_GPU_FREE = "gpu/free"
#: instant — a Free-list pointer was recycled in place (Algorithm 1).
EV_GPU_RECYCLE = "gpu/recycle"
#: instant — a lineage-cache hit moved a pointer Free -> Live (Fig. 8(c)).
EV_GPU_REUSE = "gpu/reuse"

#: instant — a region reservation failed (``repro.memory``; args:
#: region, nbytes, ok).
EV_MEM_RESERVE = "memory/reserve"
#: instant — the arbiter drove one eviction in a region (args: region,
#: nbytes, plus backend-specific detail).
EV_MEM_EVICT = "memory/evict"
#: instant — a payload moved to a slower tier under arbiter control.
EV_MEM_SPILL = "memory/spill"
#: instant — a payload was restored from a slower tier.
EV_MEM_RESTORE = "memory/restore"
#: instant — a static plan's predicted peaks were refused admission
#: (args: region, nbytes, ok=False; see ``MemoryArbiter.admissible``).
EV_MEM_PLAN_RESERVE = "memory/plan_reserve"

#: instant — a block was refused admission by the shared substrate
#: (args: tenant, region, nbytes; surfaced to schedulers as backpressure).
EV_SERVER_BACKPRESSURE = "server/backpressure"
#: instant — the scheduler dispatched one step of a request (args:
#: tenant, request, step).
EV_SERVER_STEP = "server/step"
#: instant — one cross-session hit, attributed to its producer (args:
#: producer, consumer, request_id, producer_request, key, nbytes,
#: cost_avoided; the per-tenant-pair benefit matrix aggregates these).
EV_SERVER_ATTRIBUTION = "server/attribution"
#: instant — one request finished (args: request_id, tenant, ok,
#: latency_s, steps, retries).
EV_SERVER_REQUEST = "server/request"

#: span — one federated request round-trip (submit -> last response).
EV_FED_REQUEST = "fed/request"

#: instant — one finding of the static IR verifier (``repro.analysis``;
#: args: rule, severity, hop, opcode, message).
EV_IR_DIAG = "analysis/diagnostic"

#: instant — an injected fault fired (``repro.faults``; args: kind + site
#: details such as task/round/worker ids).
EV_FAULT_INJECT = "fault/inject"
#: instant — a recovery path completed after one or more injected faults
#: (args: kind, attempts, and what was recomputed/retried).
EV_FAULT_RECOVER = "fault/recover"


@dataclass
class Event:
    """One structured trace event.

    ``ts``/``dur`` are simulated seconds; the Chrome exporter converts
    to microseconds.  ``session`` distinguishes concurrently traced
    :class:`~repro.core.session.Session` objects (one Perfetto process
    group each).
    """

    name: str
    ph: str
    ts: float
    lane: str = LANE_CP
    dur: float = 0.0
    session: int = 0
    args: Optional[dict] = None

    def to_json(self) -> dict:
        """Plain-dict form (what two event streams are compared by)."""
        out = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts,
            "lane": self.lane,
            "session": self.session,
        }
        if self.ph == PHASE_SPAN:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out
