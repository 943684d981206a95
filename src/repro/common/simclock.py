"""Simulated time for deterministic multi-backend performance modelling.

The paper's experiments run on a Spark cluster and NVIDIA A40 GPUs; this
reproduction replaces wall-clock measurement with a discrete simulated
clock so that performance *shapes* (speedups, crossovers) are reproducible
on any machine.

Timelines
---------
Each backend owns a timeline:

* ``host``    — the driver/CPU instruction stream (always advances).
* ``cluster`` — the Spark cluster; jobs submitted asynchronously complete
  on this timeline without blocking the host.
* ``device``  — the GPU stream; kernels are asynchronous w.r.t. the host,
  but synchronization barriers (``cudaFree``, device-to-host copies)
  join the host timeline to the device timeline.

A synchronous remote operation advances the host to the remote completion
time.  An asynchronous operation (``prefetch``, ``broadcast``) records a
future ``ready_time``; waiting on the future advances the host to
``max(host_now, ready_time)``.  This is the standard abstraction used by
discrete-event simulators for overlapped computation and communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field


HOST = "host"
CLUSTER = "cluster"
DEVICE = "device"


@dataclass
class SimClock:
    """Multi-timeline simulated clock (seconds, float)."""

    timelines: dict[str, float] = field(
        default_factory=lambda: {HOST: 0.0, CLUSTER: 0.0, DEVICE: 0.0}
    )

    def now(self, timeline: str = HOST) -> float:
        """Current simulated time of ``timeline``."""
        return self.timelines[timeline]

    def advance(self, seconds: float, timeline: str = HOST) -> float:
        """Advance ``timeline`` by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        timelines = self.timelines
        now = timelines[timeline] + seconds
        timelines[timeline] = now
        return now

    def advance_to(self, when: float, timeline: str = HOST) -> float:
        """Move ``timeline`` forward to ``when`` (no-op if already later)."""
        if when > self.timelines[timeline]:
            self.timelines[timeline] = when
        return self.timelines[timeline]

    def sync(self, timeline: str, to: str = HOST) -> float:
        """Join two timelines: both jump to the max of the two.

        Models a synchronization barrier, e.g. the host thread waiting for
        all pending GPU kernels before a deallocation.
        """
        t = max(self.timelines[timeline], self.timelines[to])
        self.timelines[timeline] = t
        self.timelines[to] = t
        return t

    def reset(self) -> None:
        """Zero every timeline."""
        for key in self.timelines:
            self.timelines[key] = 0.0


@dataclass
class SimFuture:
    """Handle to an asynchronously produced value on a remote timeline.

    ``ready_time`` is the simulated time at which the value becomes
    available.  ``wait()`` advances the host timeline accordingly and
    returns the value — the core mechanism behind the paper's ``prefetch``
    and ``broadcast`` operators (§5.1).
    """

    clock: SimClock
    ready_time: float
    value: object = None
    label: str = ""
    _done: bool = False

    def wait(self) -> object:
        """Block (in simulated time) until the value is ready."""
        self.clock.advance_to(self.ready_time, HOST)
        self._done = True
        return self.value

    @property
    def done(self) -> bool:
        """Whether the host already waited, or the value is ready by now."""
        return self._done or self.clock.now(HOST) >= self.ready_time
