"""Tests for repro.obs.metrics: registry, sampling, export, overhead."""

import json

import numpy as np
import pytest

from repro.common.config import MemphisConfig
from repro.common.simclock import HOST, SimClock
from repro.common.stats import Stats
from repro.core.session import Session
from repro.common.runtime import IdSpace, current, scope
from repro.obs import (
    ExplainCollector,
    Histogram,
    MetricSeries,
    MetricsCollector,
    MetricsRegistry,
    NULL_METRICS,
    chrome_trace_dict,
    counter_tracks,
    format_metrics,
    read_metrics_jsonl,
    sparkline,
    validate_chrome_trace,
    write_metrics_jsonl,
)


# ------------------------------------------------------------ primitives


class TestMetricSeries:
    def test_record_and_digest(self):
        s = MetricSeries("cache/entries")
        for t, v in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            s.record(t, v)
        d = s.digest()
        assert d["n"] == 3
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert d["mean"] == 2.0 and d["last"] == 2.0

    def test_empty_digest(self):
        d = MetricSeries("x").digest()
        assert d == {"n": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0}


class TestHistogram:
    def test_observe_buckets(self):
        h = Histogram("runtime/lat", (1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.counts == [1, 1, 1]  # <=1, <=10, +inf
        assert h.mean == pytest.approx(55.5 / 3)
        d = h.digest()
        assert d["n"] == 3 and d["min"] == 0.5 and d["max"] == 50.0


class TestSparkline:
    def test_width_and_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_empty(self):
        assert sparkline([]) == ""


# ------------------------------------------------------------ registry


class TestMetricsRegistry:
    def test_gauge_created_once(self):
        reg = MetricsRegistry(SimClock())
        g1 = reg.gauge("cache/entries")
        g2 = reg.gauge("cache/entries")
        assert g1 is g2

    def test_num_samples_and_subsystems(self):
        reg = MetricsRegistry(SimClock())
        reg.gauge("cache/entries").record(0.0, 1.0)
        reg.gauge("gpu/residency").record(0.0, 0.5)
        reg.gauge("empty/one")  # registered but never sampled
        assert reg.num_samples() == 2
        assert reg.subsystems() == {"cache", "gpu"}


# ------------------------------------------------------------ session sampling


def _metered_workload() -> Session:
    with scope(metrics=MetricsCollector()):
        return _run_workload(MemphisConfig())


def _run_workload(cfg: MemphisConfig) -> Session:
    # fresh ids, the caller's collectors: metered and plain runs compare
    with scope(ids=IdSpace()):
        sess = Session(cfg)
        a = sess.read(np.arange(256.0).reshape(16, 16))
        w = sess.read(np.ones((16, 1)))
        for _ in range(4):
            w = (a @ w) * 0.5
            sess.evaluate([w])
        return sess


class TestSessionSampling:
    def test_disabled_by_default(self):
        sess = Session(MemphisConfig())
        assert sess.metrics is NULL_METRICS
        assert not sess.metrics.enabled
        assert sess.metrics_collector is None

    def test_config_flag_creates_registry(self):
        sess = _metered_workload()
        assert sess.metrics.enabled
        assert sess.metrics.num_samples() > 0

    def test_covers_required_subsystems(self):
        sess = _metered_workload()
        assert {"memory", "cache", "spark", "gpu"} <= sess.metrics.subsystems()

    def test_region_occupancy_series(self):
        sess = _metered_workload()
        series = sess.metrics.series()
        assert "memory/CP/used" in series
        assert series["memory/CP/used"].last > 0

    def test_ambient_collector_registers_sessions(self):
        collector = MetricsCollector(interval=2)
        with scope(metrics=collector):
            first = _run_workload(MemphisConfig())
            _run_workload(MemphisConfig())
        assert collector.num_sessions == 2
        assert collector.num_samples() > 0
        # the collector's own sampling period is the sessions' period
        assert first.metrics.interval == 2
        assert [r.interval for r in collector.registries] == [2, 2]

    def test_metering_contextmanager(self):
        collector = MetricsCollector()
        with scope(metrics=collector):
            assert current().metrics is collector
            _run_workload(MemphisConfig())
        assert current().metrics is None
        assert collector.num_sessions == 1


class TestZeroOverhead:
    def test_metered_run_identical_to_plain(self):
        """Sampling must never advance the sim clock or touch counters."""
        plain = _run_workload(MemphisConfig())
        with scope(metrics=MetricsCollector(), explain=ExplainCollector()):
            metered = _run_workload(MemphisConfig())
        assert metered.clock.now(HOST) == plain.clock.now(HOST)
        assert metered.stats.counters() == plain.stats.counters()
        assert metered.stats.timers() == plain.stats.timers()

    def test_null_metrics_is_shared_and_inert(self):
        sess = Session(MemphisConfig())
        g = NULL_METRICS.gauge("x")
        g.record(0.0, 1.0)
        assert NULL_METRICS.series() == {}
        assert NULL_METRICS.num_samples() == 0
        NULL_METRICS.tick(sess)
        NULL_METRICS.sample(sess)
        assert NULL_METRICS.subsystems() == set()


# ------------------------------------------------------------ export


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        collector = MetricsCollector()
        with scope(metrics=collector):
            _run_workload(MemphisConfig())
        path = str(tmp_path / "metrics.jsonl")
        written = write_metrics_jsonl(collector, path)
        assert written > 0
        rows = read_metrics_jsonl(path)
        assert len(rows) == written
        gauges = [r for r in rows if r["kind"] == "gauge"]
        assert gauges
        for row in gauges:
            assert len(row["t"]) == len(row["v"])
        names = {r["series"] for r in gauges}
        assert "memory/CP/used" in names

    def test_lines_are_json_objects(self, tmp_path):
        collector = MetricsCollector()
        with scope(metrics=collector):
            _run_workload(MemphisConfig())
        path = str(tmp_path / "metrics.jsonl")
        write_metrics_jsonl(collector, path)
        with open(path) as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)


class TestCounterTracks:
    def test_tracks_and_chrome_export(self):
        collector = MetricsCollector()
        with scope(metrics=collector):
            _run_workload(MemphisConfig())
        tracks = counter_tracks(collector)
        assert tracks
        session_id, name, samples = tracks[0]
        assert session_id >= 0 and "/" in name and samples
        doc = chrome_trace_dict([], counters=tracks)
        counter_events = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counter_events
        assert all("value" in e["args"] for e in counter_events)
        assert validate_chrome_trace(doc) == []


class TestFormatMetrics:
    def test_sparkline_summary(self):
        collector = MetricsCollector()
        with scope(metrics=collector):
            _run_workload(MemphisConfig())
        registry = collector.registries[0]
        text = format_metrics(registry)
        assert text.startswith("=== metrics")
        assert "-- memory --" in text
        assert "memory/CP/used" in text


# ------------------------------------------------------------ aggregation


class TestMetricsCollector:
    def test_aggregate_stats_merges_sessions(self):
        collector = MetricsCollector()
        for hits in (2, 3):
            stats = Stats()
            stats.inc("cache/hits", hits)
            collector.registry(SimClock(), stats=stats)
        assert collector.aggregate_stats().get("cache/hits") == 5

    def test_merged_digests_across_sessions(self):
        collector = MetricsCollector()
        for value in (1.0, 3.0):
            reg = collector.registry(SimClock())
            reg.gauge("cache/entries").record(0.0, value)
        digests = collector.merged_digests()
        assert digests["cache/entries"]["n"] == 2
        assert digests["cache/entries"]["mean"] == 2.0
