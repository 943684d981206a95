"""Post-run trace analysis: the harness's ``--trace-summary`` report.

Distills an event stream into the answers the paper's evaluation keeps
asking (§6): where did the time go (top-k slowest instructions), did
reuse work (hit rate per reuse site, i.e. per opcode that was probed),
who paid for memory pressure (eviction counts per cache region), and
how did occupancy develop (a sparkline digest of the gauge counter
tracks, with sliding-window rates derived from the cumulative ones).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.common.stats import (
    CACHE_HITS,
    GPU_MALLOCS,
    GPU_RECYCLED,
    LINEAGE_PROBES,
)
from repro.obs.events import (
    EV_CACHE_EVICT,
    EV_CACHE_SPILL,
    EV_GPU_RECYCLE,
    EV_INSTR,
    EV_PROBE,
    EV_SPARK_PART_EVICT,
    EV_SPARK_PART_SPILL,
    Event,
    PHASE_COUNTER,
)

#: eviction-flavoured event name -> reported cache region.
_EVICTION_REGIONS = {
    EV_CACHE_EVICT: "driver-cache",
    EV_CACHE_SPILL: "driver-disk-spill",
    EV_SPARK_PART_EVICT: "spark-storage",
    EV_SPARK_PART_SPILL: "spark-disk-spill",
    EV_GPU_RECYCLE: "gpu-recycled",
}

#: sliding-window length of the derived rate tracks, in changes of the
#: rate's denominator.
RATE_WINDOW = 8

#: derived rate track -> (numerator, denominator parts), all cumulative
#: counter tracks the sampler emits (``repro.obs.metrics.RATE_COUNTERS``).
_RATES = {
    "cache/hit_rate": (CACHE_HITS, (LINEAGE_PROBES,)),
    "gpu/recycle_rate": (GPU_RECYCLED, (GPU_RECYCLED, GPU_MALLOCS)),
}

Track = list[tuple[float, float]]


@dataclass
class ReuseSite:
    """Probe outcomes for one reuse site (opcode)."""

    opcode: str
    hits: int = 0
    misses: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0


@dataclass
class TraceSummary:
    """Aggregates computed by :func:`summarize`."""

    num_events: int = 0
    num_sessions: int = 0
    #: slowest individual instruction spans, descending duration.
    slowest: list[Event] = field(default_factory=list)
    #: opcode -> (count, total seconds) over all instruction spans.
    by_opcode: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: opcode -> probe hit/miss tallies.
    reuse_sites: dict[str, ReuseSite] = field(default_factory=dict)
    #: cache region -> eviction count.
    evictions: dict[str, int] = field(default_factory=dict)
    #: the most-sampled session, whose counter tracks are digested.
    gauge_session: Optional[int] = None
    #: track name -> ``(ts, value)`` samples of that session, plus the
    #: derived :data:`_RATES` windows.
    gauges: dict[str, Track] = field(default_factory=dict)


def summarize(events: Iterable[Event], top_k: int = 10) -> TraceSummary:
    """Single pass over ``events`` building a :class:`TraceSummary`."""
    summary = TraceSummary()
    sessions: set[int] = set()
    spans: list[Event] = []
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    tracks: dict[int, dict[str, Track]] = {}
    for event in events:
        summary.num_events += 1
        sessions.add(event.session)
        if event.ph == PHASE_COUNTER:
            tracks.setdefault(event.session, {}).setdefault(
                event.name, []).append((event.ts, event.args["value"]))
        elif event.name == EV_INSTR:
            spans.append(event)
            opcode = (event.args or {}).get("opcode", "?")
            totals[opcode][0] += 1
            totals[opcode][1] += event.dur
        elif event.name == EV_PROBE:
            args = event.args or {}
            opcode = args.get("opcode", "?")
            site = summary.reuse_sites.setdefault(opcode, ReuseSite(opcode))
            if args.get("hit"):
                site.hits += 1
            else:
                site.misses += 1
        elif event.name in _EVICTION_REGIONS:
            region = _EVICTION_REGIONS[event.name]
            summary.evictions[region] = summary.evictions.get(region, 0) + 1
    spans.sort(key=lambda e: e.dur, reverse=True)
    summary.slowest = spans[:top_k]
    summary.by_opcode = {op: (c, t) for op, (c, t) in totals.items()}
    summary.num_sessions = len(sessions)
    if tracks:
        # one session's curves, not a blend of independent clocks: the
        # one that moved most (lowest id on ties)
        summary.gauge_session = max(
            sorted(tracks),
            key=lambda sid: sum(map(len, tracks[sid].values())))
        summary.gauges = tracks[summary.gauge_session]
        for name, (num, den) in _RATES.items():
            rate = window_rate(summary.gauges, num, den)
            if rate:
                summary.gauges[name] = rate
    return summary


def window_rate(tracks: dict[str, Track], num: str, den: tuple[str, ...],
                window: int = RATE_WINDOW) -> Track:
    """Sliding-window ``Δnum / Δden`` of cumulative step tracks.

    One point per change of the summed ``den`` tracks, over the last
    ``window`` such changes (counters start at 0).
    """
    involved = [tracks.get(name, []) for name in (num, *den)]
    cursor = [0] * len(involved)
    value = [0.0] * len(involved)
    points = [(0.0, 0.0)]  # cumulative (num, den) at each den change
    out: Track = []
    for ts in sorted({ts for track in involved for ts, _ in track}):
        for i, track in enumerate(involved):
            while cursor[i] < len(track) and track[cursor[i]][0] <= ts:
                value[i] = track[cursor[i]][1]
                cursor[i] += 1
        total = sum(value[1:])
        if total != points[-1][1]:
            points.append((value[0], total))
            base_num, base_den = points[max(0, len(points) - 1 - window)]
            out.append((ts, (value[0] - base_num) / (total - base_den)))
    return out


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 32) -> str:
    """Unicode sparkline of ``values`` downsampled to ``width`` chars."""
    if not values:
        return ""
    if len(values) > width:
        # mean-pool into `width` buckets
        bucketed = []
        n = len(values)
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round((v - vmin) / span * top))] for v in values
    )


def _format_value(value: float) -> str:
    if abs(value) >= 1000 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.4g}"


def format_summary(events: Iterable[Event], top_k: int = 10) -> str:
    """Human-readable report over one traced run."""
    s = summarize(events, top_k)
    lines = ["=== trace summary ==="]
    lines.append(f"events: {s.num_events}   sessions: {s.num_sessions}")

    if s.slowest:
        lines.append("")
        lines.append(f"-- top {len(s.slowest)} slowest instructions --")
        for event in s.slowest:
            args = event.args or {}
            label = f"{args.get('opcode', '?')}#{args.get('hop', '?')}"
            backend = args.get("backend", "?")
            lines.append(
                f"{label:<24s} {backend:<4s} {event.dur * 1e3:10.3f} ms"
                f"  @ {event.ts * 1e3:.3f} ms  [s{event.session}]"
            )

    if s.by_opcode:
        lines.append("")
        lines.append("-- time by opcode --")
        ranked = sorted(
            s.by_opcode.items(), key=lambda kv: kv[1][1], reverse=True
        )
        for opcode, (count, total) in ranked[:top_k]:
            lines.append(
                f"{opcode:<24s} {count:>6d} x {total * 1e3:10.3f} ms total"
            )

    if s.reuse_sites:
        lines.append("")
        lines.append("-- reuse hit rate per site --")
        ranked_sites = sorted(
            s.reuse_sites.values(), key=lambda r: r.probes, reverse=True
        )
        for site in ranked_sites[:top_k]:
            lines.append(
                f"{site.opcode:<24s} {site.hits:>6d}/{site.probes:<6d}"
                f" hits ({site.hit_rate:6.1%})"
            )

    if s.evictions:
        lines.append("")
        lines.append("-- evictions per region --")
        for region in sorted(s.evictions):
            lines.append(f"{region:<24s} {s.evictions[region]:>8d}")

    if s.gauges:
        lines.append("")
        lines.append(
            f"-- gauges, one point per change [s{s.gauge_session}] --")
        for name in sorted(s.gauges):
            values = [v for _, v in s.gauges[name]]
            lines.append(
                f"{name:<34s} {sparkline(values):<32s} "
                f"n={len(values):<5d} "
                f"min={_format_value(min(values)):<9s} "
                f"max={_format_value(max(values)):<9s} "
                f"last={_format_value(values[-1])}"
            )

    return "\n".join(lines)
