"""The event sink: a bounded in-memory ring buffer.

Every :class:`~repro.obs.events.Event` a tracer emits lands in one
ring: its collector's, or a standalone tracer's own.  O(1) append and
bounded memory; files are written from it after the run
(:func:`~repro.obs.chrome.export_chrome_trace`).
"""

from __future__ import annotations

from collections import deque

from repro.obs.events import Event


class RingBufferSink:
    """Bounded FIFO of the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 1 << 18) -> None:
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._total = 0

    def emit(self, event: Event) -> None:
        self._events.append(event)
        self._total += 1

    def events(self) -> list[Event]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow (oldest-first)."""
        return max(0, self._total - len(self._events))

    def __len__(self) -> int:
        return len(self._events)
