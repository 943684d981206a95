"""Event sinks: bounded in-memory ring buffer and streaming JSONL writer.

Sinks receive every :class:`~repro.obs.events.Event` a tracer emits.
The ring buffer is the default (always-on-cheap: O(1) append, bounded
memory); the JSONL sink streams events to disk for workloads whose
traces exceed the ring capacity or that need post-mortem inspection.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, Optional, Union

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


class JsonlSink:
    """Writes one JSON object per line; usable as a context manager."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False

    def emit(self, event: Event) -> None:
        self._file.write(json.dumps(event.to_json(), sort_keys=True))
        self._file.write("\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None


def write_jsonl(events: Iterable[Event], path: str) -> int:
    """Dump ``events`` to a JSONL file; returns the number written."""
    count = 0
    with JsonlSink(path) as sink:
        for event in events:
            sink.emit(event)
            count += 1
    return count


def read_jsonl(path: str) -> list[Event]:
    """Load events back from a JSONL file (round-trip of the sink)."""
    out: list[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Event.from_json(json.loads(line)))
    return out
