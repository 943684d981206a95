"""Chrome-trace export: render a traced run as a multi-lane timeline.

Converts :class:`~repro.obs.events.Event` streams to the Chrome Trace
Event Format (the JSON dialect understood by ``chrome://tracing`` and
https://ui.perfetto.dev), so a whole workload run renders as a timeline:
one *process* per traced session, one *thread lane* per backend (CP, SP,
GPU, FED).  Sim-clock seconds become microseconds; instants become
thread-scoped ``i`` events; spans become complete ``X`` events whose
nesting Perfetto reconstructs per lane; gauge samples (``C``) become one
counter track per ``(session, name)`` inside the session's process group.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.obs.events import (
    Event,
    LANES,
    PHASE_INSTANT,
    PHASE_SPAN,
)

#: stable thread id per lane (also the top-to-bottom display order).
LANE_TIDS = {lane: i + 1 for i, lane in enumerate(LANES)}

#: tid offset between successive per-tenant lane groups: events carrying
#: a ``tenant`` arg (request-scoped tracing, ``repro.obs.request``) get
#: their own ``<lane> [<tenant>]`` thread row so a multi-tenant server
#: trace renders one lane group per tenant under each session process.
TENANT_LANE_STRIDE = 16

_S_TO_US = 1e6


def chrome_trace_dict(events: Iterable[Event],
                      session_labels: Optional[dict[int, str]] = None
                      ) -> dict:
    """Build the Chrome Trace Event Format document for ``events``."""
    labels = session_labels or {}
    trace_events: list[dict] = []
    seen: set[tuple[int, str]] = set()
    #: tenant -> lane-group index, in first-seen (deterministic) order.
    tenant_groups: dict[str, int] = {}

    for event in events:
        pid = event.session if event.session >= 0 else 0
        tid = LANE_TIDS.get(event.lane, len(LANE_TIDS) + 1)
        lane_label = event.lane
        tenant = event.args.get("tenant") if event.args else None
        if tenant is not None:
            group = tenant_groups.setdefault(tenant, len(tenant_groups))
            tid += (group + 1) * TENANT_LANE_STRIDE
            lane_label = f"{event.lane} [{tenant}]"
        if (pid, lane_label) not in seen:
            seen.add((pid, lane_label))
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": labels.get(pid, f"session-{pid}")},
            })
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": lane_label},
            })
            trace_events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": tid, "args": {"sort_index": tid},
            })
        record: dict = {
            "name": event.name,
            "cat": event.name.split("/", 1)[0],
            "ph": event.ph,
            "pid": pid,
            "tid": tid,
            "ts": event.ts * _S_TO_US,
        }
        if event.ph == PHASE_SPAN:
            record["dur"] = event.dur * _S_TO_US
        elif event.ph == PHASE_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = event.args
        trace_events.append(record)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs (MEMPHIS reproduction)"},
    }


def export_chrome_trace(events: Iterable[Event], path: str,
                        session_labels: Optional[dict[int, str]] = None
                        ) -> dict:
    """Write the Chrome-trace JSON for ``events`` to ``path``."""
    doc = chrome_trace_dict(events, session_labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def load_chrome_trace(path: str) -> dict:
    """Read an exported trace document back (for validation/tests)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
