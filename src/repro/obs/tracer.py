"""The tracer: nested spans and typed events over the simulated clock.

A :class:`Tracer` is bound to one session's :class:`SimClock` and stamps
every event with the simulated time of the backend lane it belongs to
(``CP`` -> host timeline, ``SP`` -> cluster, ``GPU`` -> device).  Spans
nest: while an instruction span is open, every event emitted by the
cache, the Spark simulator, or the GPU memory manager is automatically
attributed to that instruction (``args["instr"]``), which is what lets a
timeline viewer answer *which instruction caused this eviction*.

Tracing is opt-in and designed to cost ~zero when off: the module-level
:data:`NULL_TRACER` singleton has ``enabled = False`` and no-op methods,
and every hot-path call site guards on ``tracer.enabled`` before
building argument dictionaries.

A :class:`TraceCollector` aggregates events across *multiple* sessions
— the benchmark harness traces whole experiment grids into one
timeline, one Perfetto process per session.
"""

from __future__ import annotations

from typing import Optional

from repro.common.simclock import CLUSTER, DEVICE, HOST, SimClock
from repro.obs.events import (
    EV_INSTR,
    Event,
    LANE_CP,
    LANE_FED,
    LANE_GPU,
    LANE_SP,
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
)
from repro.obs.sinks import RingBufferSink

#: lane -> sim-clock timeline whose "now" stamps the lane's events.
LANE_TIMELINES = {
    LANE_CP: HOST,
    LANE_SP: CLUSTER,
    LANE_GPU: DEVICE,
    LANE_FED: HOST,
}


class Span:
    """Context manager recording one complete (``X``) event on exit."""

    __slots__ = ("tracer", "name", "lane", "args", "start", "label")

    def __init__(self, tracer: "Tracer", name: str, lane: str,
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.lane = lane
        self.args = args
        self.start = 0.0
        #: attribution label for nested events (opcode#hop when present).
        if args and "opcode" in args:
            self.label = f"{args['opcode']}#{args.get('hop', '?')}"
        else:
            self.label = name

    def __enter__(self) -> "Span":
        self.start = self.tracer.now(self.lane)
        self.tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        end = self.tracer.now(self.lane)
        self.tracer.emit(Event(
            self.name, PHASE_SPAN, self.start, self.lane,
            max(0.0, end - self.start), self.tracer.session_id, self.args,
        ))
        return None


class Tracer:
    """Per-session event producer writing into one ring buffer: its
    collector's (shared by every session traced into it), or — for a
    standalone tracer — its own."""

    enabled = True

    def __init__(self, clock: SimClock, session_id: int = 0,
                 ring: Optional[RingBufferSink] = None) -> None:
        self.clock = clock
        self.session_id = session_id
        self.ring = ring if ring is not None else RingBufferSink()
        self._stack: list[Span] = []
        #: bound request context (``repro.obs.request``): while set,
        #: every emitted event inherits ``request_id``/``tenant`` args.
        self.request = None
        #: last emitted value per counter track (emit-on-change).
        self._counters: dict[str, float] = {}

    # -- request binding -----------------------------------------------------

    def bind_request(self, ctx) -> None:
        """Bind (or clear, with ``None``) the active request context.

        The server scheduler binds the advancing request's
        :class:`~repro.obs.request.RequestContext` here on every
        scheduling quantum, so the whole stack below ``Session.evaluate``
        — dispatch, arbiter, cache, substrate — emits request-stamped
        events without per-call-site plumbing.
        """
        self.request = ctx

    # -- time ---------------------------------------------------------------

    def now(self, lane: str = LANE_CP) -> float:
        """Simulated time of ``lane``'s backing timeline."""
        return self.clock.now(LANE_TIMELINES[lane])

    # -- emission -----------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Append one finished event to the ring.

        Request stamping happens here — the single choke point every
        span/instant/complete passes through — so bound
        ``request_id``/``tenant`` fields reach events emitted by *any*
        layer, including :class:`Span` exits that construct their event
        directly.  Explicit per-event args win over the binding.
        """
        request = self.request
        if request is not None:
            args = event.args
            if args is None:
                event.args = dict(request.as_args())
            else:
                args.setdefault("request_id", request.request_id)
                args.setdefault("tenant", request.tenant)
        self.ring.emit(event)

    def instant(self, name: str, lane: str = LANE_CP,
                ts: Optional[float] = None, **args) -> None:
        """Record a point-in-time event (``ph: i``)."""
        self.emit(Event(
            name, PHASE_INSTANT,
            self.now(lane) if ts is None else ts,
            lane, 0.0, self.session_id, self._attributed(args),
        ))

    def span(self, name: str, lane: str = LANE_CP, **args) -> Span:
        """Open a nested span; the event is emitted when the span exits."""
        return Span(self, name, lane, args or None)

    def complete(self, name: str, lane: str, start: float, end: float,
                 **args) -> None:
        """Record a span whose interval is already known (async work)."""
        self.emit(Event(
            name, PHASE_SPAN, start, lane, max(0.0, end - start),
            self.session_id, self._attributed(args),
        ))

    def counter(self, name: str, value: float) -> None:
        """Record one gauge sample (``ph: C``) on the host timeline.

        A counter track is a step function from zero, so a sample equal
        to this tracer's last one of ``name`` (or a first one of 0) says
        nothing and is not emitted.
        """
        if self._counters.get(name, 0) != value:
            self._counters[name] = value
            self.emit(Event(
                name, PHASE_COUNTER, self.now(), LANE_CP, 0.0,
                self.session_id, {"value": value},
            ))

    # -- attribution --------------------------------------------------------

    @property
    def current_instruction(self) -> Optional[str]:
        """Label of the innermost open instruction span, if any."""
        for span in reversed(self._stack):
            if span.name == EV_INSTR:
                return span.label
        return None

    def _attributed(self, args: dict) -> Optional[dict]:
        if self._stack and "instr" not in args:
            instr = self.current_instruction
            if instr is not None:
                args["instr"] = instr
        return args or None

    # -- convenience --------------------------------------------------------

    def events(self) -> list[Event]:
        """The ring's buffered events (a shared ring: every session's)."""
        return self.ring.events()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Hot paths check :attr:`enabled` (a plain attribute load) before
    constructing event arguments, so a session without tracing pays no
    measurable cost per instruction — the dispatch loop reads the flag
    once per run, so there it is one local-boolean test.
    See docs/ARCHITECTURE.md "Zero overhead when disabled".
    """

    enabled = False
    session_id = -1
    request = None

    def now(self, lane: str = LANE_CP) -> float:
        return 0.0

    def bind_request(self, ctx) -> None:
        # no-op: the singleton must stay stateless — the scheduler binds
        # unconditionally, traced or not.
        pass

    def emit(self, event: Event) -> None:
        pass

    def instant(self, name: str, lane: str = LANE_CP,
                ts: Optional[float] = None, **args) -> None:
        pass

    def span(self, name: str, lane: str = LANE_CP, **args) -> "_NullSpan":
        return _NULL_SPAN

    def complete(self, name: str, lane: str, start: float, end: float,
                 **args) -> None:
        pass

    def counter(self, name: str, value: float) -> None:
        pass

    @property
    def current_instruction(self) -> Optional[str]:
        return None

    def events(self) -> list[Event]:
        return []


class _NullSpan:
    """Reusable no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: process-wide disabled tracer shared by every untraced session.
NULL_TRACER = NullTracer()


class TraceCollector:
    """Shared event store for one traced run (possibly many sessions).

    Sessions built under a runtime context carrying a collector
    (``runtime.scope(trace=TraceCollector())`` — how ``python -m
    repro.harness --trace`` captures sessions created deep inside
    workload drivers) register here: each gets a fresh
    :class:`Tracer` with a distinct session id writing into the
    collector's ring buffer.
    """

    def __init__(self, capacity: int = 1 << 18) -> None:
        self.ring = RingBufferSink(capacity)
        self.session_labels: dict[int, str] = {}
        self._next_session = 0

    def tracer(self, clock: SimClock, label: str = "") -> Tracer:
        """Create the tracer for one session."""
        session_id = self._next_session
        self._next_session += 1
        self.session_labels[session_id] = label or f"session-{session_id}"
        return Tracer(clock, session_id, self.ring)

    def events(self) -> list[Event]:
        """All buffered events across sessions."""
        return self.ring.events()

    @property
    def num_sessions(self) -> int:
        return self._next_session
