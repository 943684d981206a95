"""Request-scoped observability for the multi-tenant reuse server.

Per-session traces answer *what did this session do*; a shared
substrate raises operator questions they cannot: which request was
slow, which tenant tripped admission control, whose cached entry
another tenant is hitting, what was in flight when an
:class:`~repro.common.errors.AdmissionError` fired.  This module is
the request-scoped layer that answers them:

* :class:`RequestContext` — the trace context the
  :class:`~repro.server.scheduler.Scheduler` mints per request and
  binds onto the tracers of the request's session and of the shared
  substrate.  While bound, every span, instant, and diagnostic the
  session/substrate emit carries ``request_id``/``tenant`` args (see
  :meth:`repro.obs.tracer.Tracer.bind_request`), so a Chrome-trace
  export can group lanes per tenant and a timeline viewer can answer
  *which request caused this eviction*.
* :class:`FlightRecorder` — an always-on bounded ring of recent
  request-level events (scheduler steps, backpressure, retries,
  completions; plus full spans whenever the run is traced).
  It reuses the :class:`~repro.obs.sinks.RingBufferSink` and costs one
  deque append per scheduler quantum — cheap enough to stay on even
  when tracing is off, which is the point: when an
  ``AdmissionError``/``VerificationError`` escapes or an injected
  fault recovers, the scheduler dumps the window automatically and the
  post-mortem context is *already there*.

Zero-overhead contract: nothing in this module touches the
per-instruction hot path.  The recorder only sees scheduler-quantum
events, tracer binding is a no-op on :data:`~repro.obs.tracer.NULL_TRACER`,
and with observability off the interpreter still selects the fast
dispatch loop (``tests/test_dispatch_equivalence.py`` pins this).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import Event, LANE_CP, PHASE_INSTANT
from repro.obs.sinks import RingBufferSink


class RequestContext:
    """Trace context of one server request (id, tenant, interleave seed).

    Minted by the scheduler — one per submitted request, with a
    deterministic id derived from the submission index — and carried
    through ``Session.evaluate`` into every layer that emits events:
    the dispatch loops, the memory arbiter, the lineage cache, and the
    shared substrate all trace through tracers this context is bound
    to, so their events inherit ``request_id``/``tenant`` without any
    per-call-site plumbing.
    """

    __slots__ = ("request_id", "tenant", "seed", "name")

    def __init__(self, request_id: str, tenant: str, seed: int = 0,
                 name: str = "") -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.seed = seed
        self.name = name or request_id

    def as_args(self) -> dict:
        """The args every event under this request carries."""
        return {"request_id": self.request_id, "tenant": self.tenant}

    def __repr__(self) -> str:
        return (f"RequestContext({self.request_id!r}, "
                f"tenant={self.tenant!r}, seed={self.seed})")


class FlightRecorder:
    """Always-on bounded window of recent server events, dumped on faults.

    The scheduler records one instant per scheduling quantum (and, for
    the duration of a traced ``Scheduler.run``, receives every traced
    event as an extra collector sink).  :meth:`dump` snapshots the
    window with a reason — ``admission_error``, the escaping exception
    type, or ``fault_recovery`` — giving a post-mortem view without full
    tracing enabled.  Dumps are plain JSON-friendly dicts, deterministic
    on the sim clock, and accumulate on :attr:`dumps` for the server
    report.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.ring = RingBufferSink(capacity)
        #: post-mortem snapshots, in dump order.
        self.dumps: list[dict] = []

    # -- sink protocol (collector attachment) --------------------------------

    def emit(self, event: Event) -> None:
        """Receive one event (sink protocol, used via ``add_sink``)."""
        self.ring.emit(event)

    # -- direct recording (no tracer required) -------------------------------

    def record(self, name: str, ts: float, session: int = -1,
               ctx: Optional[RequestContext] = None, **args) -> None:
        """Record one request-level instant straight into the ring."""
        if ctx is not None:
            args.setdefault("request_id", ctx.request_id)
            args.setdefault("tenant", ctx.tenant)
        self.ring.emit(Event(name, PHASE_INSTANT, ts, LANE_CP, 0.0,
                             session, args or None))

    # -- post-mortem ---------------------------------------------------------

    def dump(self, reason: str, ts: float = 0.0,
             ctx: Optional[RequestContext] = None, **detail) -> dict:
        """Snapshot the current window under ``reason``; returns the dump."""
        record = {
            "reason": reason,
            "ts": ts,
            "request_id": ctx.request_id if ctx is not None else None,
            "tenant": ctx.tenant if ctx is not None else None,
            "dropped": self.ring.dropped,
            "events": [e.to_json() for e in self.ring.events()],
        }
        if detail:
            record["detail"] = detail
        self.dumps.append(record)
        return record

    def events(self) -> list[Event]:
        """The current window, oldest first."""
        return self.ring.events()

    def __len__(self) -> int:
        return len(self.ring)
