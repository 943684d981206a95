"""Tests for repro.obs.metrics: gauge samples as counter events on the
tracer — coverage, emit-on-change, export, overhead, request stamping."""

from types import SimpleNamespace

import numpy as np

from repro.common.config import MemphisConfig
from repro.common.simclock import HOST, SimClock
from repro.core.session import Session
from repro.common.runtime import IdSpace, RuntimeContext, current, scope
from repro.obs import (
    ExplainCollector,
    NULL_TRACER,
    PHASE_COUNTER,
    TraceCollector,
    Tracer,
    chrome_trace_dict,
    format_summary,
    sparkline,
    summarize,
    validate_chrome_trace,
)
from repro.obs.metrics import RATE_COUNTERS, SAMPLE_EVERY, sample
from repro.obs.summary import window_rate
from repro.server import run_server_demo


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


# ------------------------------------------------------------ session sampling


def _run_workload(cfg: MemphisConfig) -> Session:
    # fresh ids, the caller's collectors: traced and plain runs compare
    with scope(ids=IdSpace()):
        sess = Session(cfg)
        a = sess.read(np.arange(256.0).reshape(16, 16))
        w = sess.read(np.ones((16, 1)))
        for _ in range(4):
            w = (a @ w) * 0.5
            sess.evaluate([w])
        return sess


def _traced_workload() -> Session:
    with scope(trace=TraceCollector()):
        return _run_workload(MemphisConfig())


def _tracks(events) -> dict[str, list]:
    """Counter events as ``name -> [value, ...]`` in emission order."""
    out: dict[str, list] = {}
    for event in events:
        if event.ph == PHASE_COUNTER:
            out.setdefault(event.name, []).append(event.args["value"])
    return out


def _sampled(sess: Session) -> dict[str, float]:
    """Everything one ``sample(sess)`` hands to ``Tracer.counter``."""
    sampled: dict[str, float] = {}
    sess.tracer = SimpleNamespace(counter=sampled.__setitem__)
    sample(sess)
    return sampled


class TestSessionSampling:
    def test_disabled_by_default(self):
        sess = _run_workload(MemphisConfig())
        assert sess.tracer is NULL_TRACER
        assert sess.trace_events() == []
        assert not hasattr(sess, "metrics")

    def test_config_flag_creates_registry(self):
        """A trace collector in scope is the one switch: its sessions'
        gauge samples arrive as counter events beside their spans."""
        sess = _traced_workload()
        phases = {e.ph for e in sess.trace_events()}
        assert {"X", "i", PHASE_COUNTER} <= phases

    def test_covers_required_subsystems(self):
        sampled = _sampled(_run_workload(MemphisConfig()))
        assert {name.split("/", 1)[0] for name in sampled} \
            == {"memory", "cache", "spark", "gpu", "runtime"}
        # only what moved off zero becomes a track: this one is CP-only
        tracks = _tracks(_traced_workload().trace_events())
        assert {name.split("/", 1)[0] for name in tracks} \
            == {"memory", "cache", "runtime"}

    def test_covers_every_region_and_manager(self):
        sess = _run_workload(MemphisConfig())
        sampled = _sampled(sess)
        for region in sess.arbiter.regions():
            for ledger in ("used", "reserved", "occupancy"):
                assert f"memory/{region.name}/{ledger}" in sampled
        assert sampled["memory/CP/used"] == sess.cache.cp_bytes > 0
        for manager in (sess.cache, sess.spark_context.block_manager,
                        sess.gpu.memory):
            assert manager.metrics_gauges().items() <= sampled.items()
        for name in RATE_COUNTERS:
            assert sampled[name] == sess.stats.get(name)

    def test_region_occupancy_series(self):
        tracks = _tracks(_traced_workload().trace_events())
        assert tracks["memory/CP/used"][-1] > 0

    def test_emit_on_change(self):
        sess = _traced_workload()
        for name, values in _tracks(sess.trace_events()).items():
            assert all(a != b for a, b in zip(values, values[1:])), name
        # a sample of unchanged state emits nothing at all
        before = len(sess.trace_events())
        sample(sess)
        assert len(sess.trace_events()) == before

    def test_samples_every_n_instructions_and_at_block_end(self):
        with scope(trace=TraceCollector()):
            sess = Session(MemphisConfig())
            x = sess.read(np.ones((8, 8)))
            for _ in range(3 * SAMPLE_EVERY):
                x = x + 1.0
            sess.evaluate([x])
        executed = _tracks(sess.trace_events())[
            "runtime/instructions_executed"]
        # a sample precedes every SAMPLE_EVERY-th instruction's span, and
        # one follows the block
        n = SAMPLE_EVERY
        assert executed == [n - 1, 2 * n - 1, 3 * n - 1, 3 * n]

    def test_sampling_reads_stats_without_inserting(self):
        with scope(trace=TraceCollector()):
            sess = Session(MemphisConfig())
            sample(sess)
        assert sess.stats.counters() == {}
        # a track that never leaves zero has no events at all
        assert sess.trace_events() == []

    def test_ambient_collector_registers_sessions(self):
        collector = TraceCollector()
        with scope(trace=collector):
            first = _run_workload(MemphisConfig())
            _run_workload(MemphisConfig())
        assert collector.num_sessions == 2
        sampled = {e.session for e in collector.events()
                   if e.ph == PHASE_COUNTER}
        assert sampled == {0, 1}
        # each session's tracks are its own: same workload, same curve
        assert _tracks(first.trace_events()) == _tracks(
            e for e in collector.events() if e.session == 1)

    def test_metering_contextmanager(self):
        collector = TraceCollector()
        with scope(trace=collector):
            assert current().trace is collector
            _run_workload(MemphisConfig())
        assert current().trace is None
        assert "metrics" not in RuntimeContext.__slots__


class TestZeroOverhead:
    def test_metered_run_identical_to_plain(self):
        """Sampling must never advance the sim clock or touch counters."""
        plain = _run_workload(MemphisConfig())
        with scope(trace=TraceCollector(), explain=ExplainCollector()):
            metered = _run_workload(MemphisConfig())
        assert _tracks(metered.trace_events())
        assert metered.clock.now(HOST) == plain.clock.now(HOST)
        assert metered.clock.timelines == plain.clock.timelines
        assert metered.stats.counters() == plain.stats.counters()

    def test_null_tracer_counter_is_inert(self):
        NULL_TRACER.counter("cache/entries", 3)
        assert NULL_TRACER.events() == []
        assert not hasattr(NULL_TRACER, "_counters")


class TestTracerCounter:
    def test_counter_event_shape(self):
        clock = SimClock()
        tracer = Tracer(clock, session_id=4)
        clock.advance(0.5, HOST)
        tracer.counter("cache/entries", 0)   # still zero: not emitted
        tracer.counter("cache/entries", 3)
        tracer.counter("cache/entries", 3)   # unchanged: not emitted
        tracer.counter("cache/entries", 4)
        events = tracer.events()
        assert [(e.name, e.ph, e.ts, e.session, e.args) for e in events] == [
            ("cache/entries", PHASE_COUNTER, 0.5, 4, {"value": 3}),
            ("cache/entries", PHASE_COUNTER, 0.5, 4, {"value": 4}),
        ]

    def test_counter_not_attributed_to_open_instruction(self):
        tracer = Tracer(SimClock())
        with tracer.span("instr", opcode="+", hop=1):
            tracer.counter("cache/entries", 1)
        assert tracer.events()[0].args == {"value": 1}


# ------------------------------------------------------------ export


class TestCounterTracks:
    def test_tracks_and_chrome_export(self):
        collector = TraceCollector()
        with scope(trace=collector):
            _run_workload(MemphisConfig())
        doc = chrome_trace_dict(collector.events(), collector.session_labels)
        counter_events = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        # the export keeps every counter sample
        assert len(counter_events) \
            == sum(map(len, _tracks(collector.events()).values()))
        assert all("value" in e["args"] for e in counter_events)
        assert {e["cat"] for e in counter_events} \
            == {"memory", "cache", "runtime"}
        # a counter track lives in its session's process group
        assert {e["pid"] for e in counter_events} == {0}
        assert validate_chrome_trace(doc) == []

    def test_server_counter_events_carry_request(self):
        """Gauge samples pass through ``Tracer.emit`` like every event,
        so on a shared substrate they are request-stamped."""
        with scope(trace=TraceCollector()) as rt:
            report = run_server_demo(4, seed=3)
        assert report.ok
        counters = [e for e in rt.trace.events() if e.ph == PHASE_COUNTER]
        assert counters
        request_ids = {r.request_id for r in report.results}
        tenants = {r.tenant for r in report.results}
        assert all(e.args["request_id"] in request_ids and
                   e.args["tenant"] in tenants for e in counters)
        names = {e.name for e in counters}
        # the shared arbiter's regions and the substrate's tenant gauges
        assert {"memory/CP/used", "server/sessions"} <= names
        assert any(n.startswith("server/tenant/") and n.endswith("/cp_used")
                   for n in names)
        doc = chrome_trace_dict(rt.trace.events(), rt.trace.session_labels)
        assert validate_chrome_trace(doc) == []


class TestFormatMetrics:
    def test_sparkline_summary(self):
        collector = TraceCollector()
        with scope(trace=collector):
            _run_workload(MemphisConfig())
        text = format_summary(collector.events())
        assert "-- gauges" in text
        assert "memory/CP/used" in text
        # a track that never left zero (no disk spill here) does not exist
        assert "memory/DISK/used" not in text
        summary = summarize(collector.events())
        assert summary.gauge_session == 0
        # probes without a hit: the derived window sits at 0
        assert {v for _, v in summary.gauges["cache/hit_rate"]} == {0.0}

    def test_window_rate_derivation(self):
        tracks = {
            "hits": [(2.0, 1), (3.0, 2), (5.0, 3)],
            "probes": [(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4), (5.0, 5)],
        }
        # cumulative from zero until the window fills ...
        assert window_rate(tracks, "hits", ("probes",), window=8) == [
            (1.0, 0.0), (2.0, 0.5), (3.0, 2 / 3), (4.0, 0.5), (5.0, 0.6)]
        # ... then over the last `window` changes of the denominator
        assert window_rate(tracks, "hits", ("probes",), window=2) == [
            (1.0, 0.0), (2.0, 0.5), (3.0, 1.0), (4.0, 0.5), (5.0, 0.5)]
        # denominators sum; an absent track reads as zero
        assert window_rate(tracks, "hits", ("hits", "nope")) == [
            (2.0, 1.0), (3.0, 1.0), (5.0, 1.0)]
        assert window_rate({}, "hits", ("probes",)) == []
