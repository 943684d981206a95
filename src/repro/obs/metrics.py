"""Metrics time-series: typed gauges/histograms sampled on the sim clock.

Where the tracer (``repro.obs.tracer``) records *events* — discrete
spans and instants — this module records *trajectories*: how the memory
regions fill up, how the lineage-cache hit-rate evolves over a sliding
window of probes, what fraction of Spark's unified memory is holding
cached storage, how GPU residency and pointer recycling develop, and how
fast the interpreter is retiring instructions.  These are exactly the
curves the paper plots (cache occupancy vs. budget, reuse hit-rates over
iterations, GPU residency under eviction) and that end-of-run counter
totals cannot show.

The design mirrors the tracer's zero-overhead-when-disabled pattern:
the module-level :data:`NULL_METRICS` singleton has ``enabled = False``
and the interpreter's only per-instruction cost without metrics is one
attribute check.  When enabled, a :class:`MetricsRegistry` samples every
source once per ``interval`` executed instructions (plus once at the end
of every evaluated block), stamping samples with the host sim-clock.

Three renderings are supported:

* **JSONL** (:func:`write_metrics_jsonl` / :func:`read_metrics_jsonl`)
  — one line per series, arrays of ``t``/``v``; the benchmark telemetry
  pipeline digests these;
* **text sparklines** (:func:`format_metrics`) — a terminal summary;
* **Chrome counter tracks** (:func:`counter_tracks`) — ``ph: "C"``
  events the Chrome exporter merges into Perfetto timelines, so series
  render under the same process groups as the span lanes.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    CACHE_HITS,
    GPU_MALLOCS,
    GPU_RECYCLED,
    INSTRUCTIONS_EXECUTED,
    LINEAGE_PROBES,
    Stats,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session

#: default sampling period, in executed instructions.
DEFAULT_INTERVAL = 8
#: default sliding-window length for rate gauges, in samples.
DEFAULT_WINDOW = 8

#: counters whose inter-sample deltas feed the rate gauges.
_RATE_COUNTERS = (
    CACHE_HITS, LINEAGE_PROBES, GPU_RECYCLED, GPU_MALLOCS,
    INSTRUCTIONS_EXECUTED,
)

#: default bucket edges (sim seconds) of per-tenant request-latency
#: histograms (``server/tenant/<t>/request_latency_s``).
SLO_LATENCY_BOUNDS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Exact (no interpolation, no bucketing) and deterministic — the
    server SLO report uses it on raw per-request sim latencies, where
    histogram approximation would hide small regressions.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class MetricSeries:
    """One gauge time-series: ``(sim-time, value)`` samples."""

    __slots__ = ("name", "unit", "samples")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.samples: list[tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.samples.append((t, float(value)))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    @property
    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    def digest(self) -> dict:
        """Summary statistics (the benchmark report's series digest)."""
        values = self.values
        if not values:
            return {"n": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0}
        return {
            "n": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "last": values[-1],
        }


class Histogram:
    """Fixed-bucket histogram (bounds are upper edges; +inf implied)."""

    __slots__ = ("name", "unit", "bounds", "counts", "count", "total",
                 "vmin", "vmax")

    def __init__(self, name: str, bounds: tuple[float, ...],
                 unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        i = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            i = len(self.bounds)
        self.counts[i] += 1
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def digest(self) -> dict:
        return {
            "n": self.count,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "mean": self.mean,
            "last": self.mean,  # histograms have no "last"; mean stands in
        }


class MetricsRegistry:
    """Per-session typed metric registry sampled on the sim clock.

    ``interval`` is the sampling period in executed instructions;
    ``window`` the sliding-window length (in samples) of the rate gauges
    (lineage-cache hit-rate, GPU recycle rate).
    """

    enabled = True

    def __init__(self, clock: SimClock, session_id: int = 0,
                 label: str = "", interval: int = DEFAULT_INTERVAL,
                 window: int = DEFAULT_WINDOW) -> None:
        self.clock = clock
        self.session_id = session_id
        self.label = label
        self.interval = max(1, int(interval))
        self.window = max(1, int(window))
        self._series: dict[str, MetricSeries] = {}
        self._histograms: dict[str, Histogram] = {}
        self._ticks = 0
        self._last_counters: dict[str, int] = {}
        self._last_t: Optional[float] = None
        self._deltas: deque[dict[str, int]] = deque(maxlen=self.window)

    # -- typed registration -------------------------------------------------

    def gauge(self, name: str, unit: str = "") -> MetricSeries:
        """The gauge series ``name``, created on first use."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = MetricSeries(name, unit)
        return series

    def histogram(self, name: str, bounds: tuple[float, ...],
                  unit: str = "") -> Histogram:
        """The histogram ``name``, created on first use."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds, unit)
        return hist

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = SLO_LATENCY_BOUNDS,
                unit: str = "") -> None:
        """Record one observation into the labeled histogram ``name``.

        The label is part of the series name (e.g.
        ``server/tenant/alpha/request_latency_s``), following the
        ``subsystem/.../metric`` convention everywhere else — this is
        how the server scheduler feeds per-tenant SLO series without
        the registry knowing about tenants.
        """
        self.histogram(name, bounds, unit).observe(value)

    def series(self) -> dict[str, MetricSeries]:
        return dict(self._series)

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def subsystems(self) -> set[str]:
        """Subsystem prefixes with at least one non-empty series."""
        return {
            name.split("/", 1)[0]
            for name, series in self._series.items() if series.samples
        }

    def num_samples(self) -> int:
        """Total samples recorded across all gauge series."""
        return sum(len(series) for series in self._series.values())

    # -- sampling -----------------------------------------------------------

    def tick(self, session: "Session") -> None:
        """Per-instruction hook: samples every ``interval`` instructions."""
        self._ticks += 1
        if self._ticks % self.interval == 0:
            self.sample(session)

    def sample(self, session: "Session") -> None:
        """Take one sample of every metric source, stamped at host now."""
        t = self.clock.now(HOST)
        # per-region occupancy/pinned/reserved (repro.memory ledgers)
        for region in session.arbiter.regions():
            base = f"memory/{region.name}"
            self.gauge(base + "/used", "B").record(t, region.used)
            self.gauge(base + "/pinned", "B").record(t, region.pinned)
            self.gauge(base + "/reserved", "B").record(t, region.reserved)
            if not region.unlimited and region.capacity > 0:
                self.gauge(base + "/occupancy").record(t, region.occupancy)
        # manager-specific gauges (each manager knows its own curve)
        for source in (session.cache, session.spark_context.block_manager,
                       session.spark_mgr, session.gpu.memory):
            for name, value in source.metrics_gauges().items():
                self.gauge(name).record(t, value)
        # multi-tenant occupancy (shared substrate only): per-tenant CP
        # usage plus the attached-session count, under server/
        if session.substrate.shared:
            for name, value in session.substrate.metrics_gauges().items():
                self.gauge(name, "B" if name.endswith("cp_used")
                           else "").record(t, value)
        self._sample_rates(t, session.stats)

    def _sample_rates(self, t: float, stats: Stats) -> None:
        """Sliding-window rate gauges from stats-counter deltas."""
        current = {name: stats.get(name) for name in _RATE_COUNTERS}
        delta = {
            name: current[name] - self._last_counters.get(name, 0)
            for name in _RATE_COUNTERS
        }
        dt = t - self._last_t if self._last_t is not None else 0.0
        self._deltas.append(delta)
        hits = sum(d[CACHE_HITS] for d in self._deltas)
        probes = sum(d[LINEAGE_PROBES] for d in self._deltas)
        if probes > 0:
            self.gauge("cache/hit_rate").record(t, hits / probes)
        recycled = sum(d[GPU_RECYCLED] for d in self._deltas)
        mallocs = sum(d[GPU_MALLOCS] for d in self._deltas)
        if recycled + mallocs > 0:
            self.gauge("gpu/recycle_rate").record(
                t, recycled / (recycled + mallocs)
            )
        if dt > 0 and delta[INSTRUCTIONS_EXECUTED] > 0:
            self.gauge("runtime/instr_per_s").record(
                t, delta[INSTRUCTIONS_EXECUTED] / dt
            )
            self.histogram(
                "runtime/instr_latency_s",
                (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1), "s",
            ).observe(dt / delta[INSTRUCTIONS_EXECUTED])
        self._last_counters = current
        self._last_t = t


class NullMetrics:
    """Disabled registry: the per-instruction cost is one attribute load.

    One of the three null singletons of the zero-overhead pattern
    (docs/ARCHITECTURE.md "Zero overhead when disabled").
    """

    enabled = False
    session_id = -1
    label = ""

    def gauge(self, name: str, unit: str = "") -> MetricSeries:
        return MetricSeries(name, unit)  # detached throwaway

    def histogram(self, name: str, bounds: tuple[float, ...],
                  unit: str = "") -> Histogram:
        return Histogram(name, bounds, unit)

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = SLO_LATENCY_BOUNDS,
                unit: str = "") -> None:
        pass

    def tick(self, session: "Session") -> None:
        pass

    def sample(self, session: "Session") -> None:
        pass

    def series(self) -> dict[str, MetricSeries]:
        return {}

    def histograms(self) -> dict[str, Histogram]:
        return {}

    def subsystems(self) -> set[str]:
        return set()

    def num_samples(self) -> int:
        return 0


#: process-wide disabled registry shared by every unmetered session.
NULL_METRICS = NullMetrics()


class MetricsCollector:
    """Shared metric store for one metered run (possibly many sessions).

    Mirrors :class:`~repro.obs.tracer.TraceCollector`: sessions built
    under ``runtime.scope(metrics=MetricsCollector())`` register a fresh
    :class:`MetricsRegistry` here, and contribute their ``Stats`` for
    aggregate reporting.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 window: int = DEFAULT_WINDOW) -> None:
        self.interval = interval
        self.window = window
        self.registries: list[MetricsRegistry] = []
        self.session_labels: dict[int, str] = {}
        self._stats: list[Stats] = []
        self._next_session = 0

    def registry(self, clock: SimClock, label: str = "",
                 stats: Optional[Stats] = None) -> MetricsRegistry:
        """Create the registry for one session; registers its stats."""
        session_id = self._next_session
        self._next_session += 1
        self.session_labels[session_id] = label or f"session-{session_id}"
        registry = MetricsRegistry(
            clock, session_id, self.session_labels[session_id],
            interval=self.interval, window=self.window,
        )
        self.registries.append(registry)
        if stats is not None:
            self._stats.append(stats)
        return registry

    def aggregate_stats(self) -> Stats:
        """Merge every registered session's counters into one registry."""
        total = Stats()
        for stats in self._stats:
            total.merge(stats)
        return total

    @property
    def num_sessions(self) -> int:
        return self._next_session

    def num_samples(self) -> int:
        return sum(
            len(series)
            for registry in self.registries
            for series in registry.series().values()
        )

    def subsystems(self) -> set[str]:
        out: set[str] = set()
        for registry in self.registries:
            out |= registry.subsystems()
        return out

    def merged_digests(self) -> dict[str, dict]:
        """Per-series digests with same-named series merged across sessions."""
        merged: dict[str, MetricSeries] = {}
        for registry in self.registries:
            for name, series in registry.series().items():
                target = merged.setdefault(name, MetricSeries(name, series.unit))
                target.samples.extend(series.samples)
        digests = {name: s.digest() for name, s in sorted(merged.items())}
        for registry in self.registries:
            for name, hist in registry.histograms().items():
                digests.setdefault(name, hist.digest())
        return digests


# -- renderings --------------------------------------------------------------

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


def _format_value(value: float, unit: str) -> str:
    if unit == "B":
        for suffix, factor in (("GB", 1024**3), ("MB", 1024**2),
                               ("KB", 1024)):
            if abs(value) >= factor:
                return f"{value / factor:.1f}{suffix}"
        return f"{value:.0f}B"
    if abs(value) >= 1000 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.4g}"


def format_metrics(registry: MetricsRegistry,
                   max_series: Optional[int] = None) -> str:
    """Text sparkline summary of one registry, grouped by subsystem."""
    lines = [f"=== metrics (session {registry.session_id}"
             f"{': ' + registry.label if registry.label else ''}) ==="]
    shown = 0
    last_subsystem = None
    for name in sorted(registry.series()):
        series = registry.series()[name]
        if not series.samples:
            continue
        if max_series is not None and shown >= max_series:
            lines.append(f"... ({len(registry.series()) - shown} more series)")
            break
        subsystem = name.split("/", 1)[0]
        if subsystem != last_subsystem:
            lines.append(f"-- {subsystem} --")
            last_subsystem = subsystem
        digest = series.digest()
        lines.append(
            f"{name:<34s} {sparkline(series.values):<32s} "
            f"n={digest['n']:<5d} "
            f"min={_format_value(digest['min'], series.unit):<9s} "
            f"mean={_format_value(digest['mean'], series.unit):<9s} "
            f"last={_format_value(digest['last'], series.unit)}"
        )
        shown += 1
    for name in sorted(registry.histograms()):
        hist = registry.histograms()[name]
        if not hist.count:
            continue
        lines.append(
            f"{name:<34s} {sparkline([float(c) for c in hist.counts]):<32s} "
            f"n={hist.count:<5d} "
            f"min={_format_value(hist.vmin, hist.unit):<9s} "
            f"mean={_format_value(hist.mean, hist.unit):<9s} "
            f"max={_format_value(hist.vmax, hist.unit)}"
        )
    return "\n".join(lines)


def write_metrics_jsonl(collector: MetricsCollector, path: str) -> int:
    """Dump every series (one JSON line each) to ``path``; returns count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for registry in collector.registries:
            for name in sorted(registry.series()):
                series = registry.series()[name]
                if not series.samples:
                    continue
                fh.write(json.dumps({
                    "kind": "gauge",
                    "session": registry.session_id,
                    "label": registry.label,
                    "series": name,
                    "unit": series.unit,
                    "t": [t for t, _ in series.samples],
                    "v": [v for _, v in series.samples],
                }, sort_keys=True))
                fh.write("\n")
                count += 1
            for name in sorted(registry.histograms()):
                hist = registry.histograms()[name]
                if not hist.count:
                    continue
                fh.write(json.dumps({
                    "kind": "histogram",
                    "session": registry.session_id,
                    "label": registry.label,
                    "series": name,
                    "unit": hist.unit,
                    "bounds": list(hist.bounds),
                    "counts": list(hist.counts),
                    "n": hist.count,
                    "mean": hist.mean,
                }, sort_keys=True))
                fh.write("\n")
                count += 1
    return count


def read_metrics_jsonl(path: str) -> list[dict]:
    """Load metric records back from a JSONL file."""
    out: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def counter_tracks(collector: MetricsCollector) -> list[tuple[int, str, list]]:
    """Chrome counter-track tuples ``(pid, series, [(t, v), ...])``.

    Fed to :func:`repro.obs.chrome.chrome_trace_dict` so metric series
    render as Perfetto counter tracks inside each session's process
    group, aligned with the span lanes.
    """
    tracks: list[tuple[int, str, list]] = []
    for registry in collector.registries:
        for name in sorted(registry.series()):
            series = registry.series()[name]
            if series.samples:
                tracks.append(
                    (registry.session_id, name, list(series.samples))
                )
    return tracks
