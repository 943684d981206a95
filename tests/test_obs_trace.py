"""Tests for the structured tracing subsystem (``repro.obs``)."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.runtime import current, scope
from repro.common.simclock import CLUSTER, DEVICE, HOST, SimClock
from repro.common.stats import Stats
from repro.obs import (
    EV_INSTR,
    EV_PROBE,
    EV_SPARK_JOB,
    Event,
    LANE_CP,
    LANE_GPU,
    LANE_SP,
    NULL_TRACER,
    PHASE_INSTANT,
    PHASE_SPAN,
    RingBufferSink,
    TraceCollector,
    Tracer,
    chrome_trace_dict,
    export_chrome_trace,
    format_summary,
    load_chrome_trace,
    summarize,
    validate_chrome_trace,
)


@pytest.fixture
def tracer():
    return Tracer(SimClock())


# ---------------------------------------------------------------- span nesting


class TestSpans:
    def test_span_records_clock_interval(self, tracer):
        with tracer.span("instr", LANE_CP, opcode="+", hop=7):
            tracer.clock.advance(0.25, HOST)
        (event,) = tracer.events()
        assert event.ph == PHASE_SPAN
        assert event.ts == pytest.approx(0.0)
        assert event.dur == pytest.approx(0.25)
        assert event.args == {"opcode": "+", "hop": 7}

    def test_nested_event_attributed_to_instruction(self, tracer):
        with tracer.span(EV_INSTR, LANE_CP, opcode="ba+*", hop=42):
            tracer.instant(EV_PROBE, hit=True, opcode="ba+*")
        probe, instr = tracer.events()
        assert probe.args["instr"] == "ba+*#42"
        assert instr.name == EV_INSTR

    def test_attribution_uses_innermost_instruction(self, tracer):
        with tracer.span(EV_INSTR, LANE_CP, opcode="outer", hop=1):
            with tracer.span(EV_INSTR, LANE_CP, opcode="inner", hop=2):
                tracer.instant("cache/put")
        put = tracer.events()[0]
        assert put.args["instr"] == "inner#2"

    def test_no_attribution_outside_spans(self, tracer):
        tracer.instant(EV_PROBE, hit=False)
        (event,) = tracer.events()
        assert "instr" not in (event.args or {})
        assert tracer.current_instruction is None

    def test_complete_spans_carry_explicit_interval(self, tracer):
        tracer.complete(EV_SPARK_JOB, LANE_SP, 1.0, 3.5, rdd="X")
        (event,) = tracer.events()
        assert event.ts == 1.0 and event.dur == 2.5
        assert event.lane == LANE_SP


# ------------------------------------------------------- sim-clock ordering


class TestClockOrdering:
    def test_lanes_stamp_their_own_timelines(self, tracer):
        clock = tracer.clock
        clock.advance(1.0, HOST)
        clock.advance(2.0, CLUSTER)
        clock.advance(3.0, DEVICE)
        tracer.instant("a", LANE_CP)
        tracer.instant("b", LANE_SP)
        tracer.instant("c", LANE_GPU)
        a, b, c = tracer.events()
        assert (a.ts, b.ts, c.ts) == (1.0, 2.0, 3.0)

    def test_events_emitted_in_monotone_order_per_lane(self, tracer):
        for _ in range(5):
            tracer.instant("tick", LANE_CP)
            tracer.clock.advance(0.1, HOST)
        stamps = [e.ts for e in tracer.events()]
        assert stamps == sorted(stamps)

    def test_span_duration_never_negative(self, tracer):
        with tracer.span("noop", LANE_CP):
            pass
        assert tracer.events()[0].dur == 0.0


# ----------------------------------------------------------------------- sinks


class TestSinks:
    def test_ring_buffer_drops_oldest(self):
        ring = RingBufferSink(capacity=3)
        for i in range(5):
            ring.emit(Event("e", PHASE_INSTANT, float(i)))
        assert [e.ts for e in ring.events()] == [2.0, 3.0, 4.0]
        assert ring.dropped == 2

    def test_tracers_of_a_collector_share_its_ring(self):
        """One ring per collector; a standalone tracer keeps its own."""
        collector = TraceCollector()
        a = collector.tracer(SimClock())
        b = collector.tracer(SimClock())
        a.instant("x", LANE_CP)
        b.instant("y", LANE_CP)
        assert a.ring is b.ring is collector.ring
        assert [(e.name, e.session) for e in collector.events()] \
            == [("x", 0), ("y", 1)]
        alone = Tracer(SimClock())
        alone.instant("z", LANE_CP)
        assert [e.name for e in alone.events()] == ["z"]
        assert len(collector.events()) == 2


# ------------------------------------------------------------- chrome export


class TestChromeExport:
    def _sample_events(self):
        return [
            Event("instr", PHASE_SPAN, 0.001, LANE_CP, 0.002, 0,
                  {"opcode": "+", "hop": 1}),
            Event("spark/job", PHASE_SPAN, 0.002, LANE_SP, 0.004, 0,
                  {"rdd": "X"}),
            Event("gpu/kernel", PHASE_SPAN, 0.003, LANE_GPU, 0.001, 1),
            Event("cache/probe", PHASE_INSTANT, 0.0015, LANE_CP, 0.0, 0,
                  {"hit": True, "instr": "+#1"}),
        ]

    def test_round_trip_and_schema(self, tmp_path):
        path = str(tmp_path / "trace.json")
        export_chrome_trace(self._sample_events(), path, {0: "full", 1: "base"})
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []

    def test_lanes_become_distinct_threads(self):
        doc = chrome_trace_dict(self._sample_events())
        rows = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                if e["ph"] != "M"}
        # session 0 uses CP+SP threads, session 1 the GPU thread
        assert len(rows) == 3
        tids = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert tids["CP"] != tids["SP"]

    def test_timestamps_converted_to_microseconds(self):
        doc = chrome_trace_dict(self._sample_events())
        instr = next(e for e in doc["traceEvents"] if e["name"] == "instr")
        assert instr["ts"] == pytest.approx(1000.0)
        assert instr["dur"] == pytest.approx(2000.0)

    def test_session_labels_name_processes(self):
        doc = chrome_trace_dict(self._sample_events(), {0: "full", 1: "base"})
        names = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {0: "full", 1: "base"}

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        span = {"name": "e", "ph": "X", "pid": 0, "tid": 1, "ts": 0.0,
                "dur": 1.0}
        assert validate_chrome_trace({"traceEvents": [span]}) == []
        # one field broken (None: dropped) at a time; the problem names it
        for field, bad in [
            ("ph", "Q"), ("name", ""), ("pid", -1), ("tid", "1"),
            ("pid", True),              # a boolean is not an integer
            ("ts", -1.0), ("ts", None), ("dur", None), ("dur", "1"),
            ("args", [1]), ("s", "zzz"), ("cat", 5),
        ]:
            event = {**span, field: bad}
            if bad is None:
                del event[field]
            problems = validate_chrome_trace({"traceEvents": [event]})
            assert any(field in p for p in problems), (field, bad)
        # phase-conditional fields: instants need ts, counters ts + args
        for event in [{**span, "ph": "i", "ts": None},
                      {**span, "ph": "C"}]:
            event = {k: v for k, v in event.items() if v is not None}
            assert validate_chrome_trace({"traceEvents": [event]}) != []
        assert any("displayTimeUnit" in p for p in validate_chrome_trace(
            {"traceEvents": [span], "displayTimeUnit": "weeks"}))


# ------------------------------------------------------ disabled == no events


class TestDisabledTracing:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("instr", LANE_CP, opcode="+"):
            NULL_TRACER.instant("cache/probe", hit=True)
        assert NULL_TRACER.events() == []

    def test_disabled_session_emits_nothing(self):
        assert current().trace is None
        sess = Session(MemphisConfig.memphis())
        assert sess.tracer is NULL_TRACER
        assert sess.trace_collector is None
        X = sess.read(np.random.default_rng(0).random((64, 8)), "X")
        (X.t() @ X).compute()
        assert sess.trace_events() == []

    def test_all_session_components_share_null_tracer(self):
        sess = Session(MemphisConfig.memphis())
        assert sess.cache.tracer is NULL_TRACER
        assert sess.spark_context.tracer is NULL_TRACER
        assert sess.gpu.stream.tracer is NULL_TRACER
        assert sess.gpu.memory.tracer is NULL_TRACER


# ----------------------------------------------------------- session / ambient


class TestSessionIntegration:
    def _run_workload(self, sess):
        rng = np.random.default_rng(0)
        X = sess.read(rng.random((256, 16)), "X")
        y = sess.read(rng.random((256, 1)), "y")
        for reg in (0.1, 0.1):
            A = X.t() @ X
            b = (y.t() @ X).t()
            sess.solve(A + sess.eye(16) * reg, b).compute()

    def test_config_flag_enables_private_collector(self):
        with scope(trace=TraceCollector()):
            sess = Session(MemphisConfig.memphis())
        self._run_workload(sess)
        events = sess.trace_events()
        names = {e.name for e in events}
        assert EV_INSTR in names and EV_PROBE in names
        hits = [e for e in events
                if e.name == EV_PROBE and e.args.get("hit")]
        assert hits, "second grid iteration must produce probe hits"
        assert all(e.session == sess.tracer.session_id for e in events)

    def test_ambient_collector_captures_multiple_sessions(self):
        collector = TraceCollector()
        with scope(trace=collector):
            for config in (MemphisConfig.base(), MemphisConfig.memphis()):
                self._run_workload(Session(config))
        assert current().trace is None
        assert collector.num_sessions == 2
        sessions = {e.session for e in collector.events()}
        assert sessions == {0, 1}
        assert set(collector.session_labels) == {0, 1}
        # the collector's own capacity bounds its sessions' ring
        small = TraceCollector(capacity=4)
        with scope(trace=small):
            sess = Session(MemphisConfig.memphis())
        self._run_workload(sess)
        assert len(sess.trace_events()) == 4 and small.ring.dropped > 0

    def test_instruction_attribution_in_real_run(self):
        with scope(trace=TraceCollector()):
            sess = Session(MemphisConfig.memphis())
        self._run_workload(sess)
        probes = [e for e in sess.trace_events() if e.name == EV_PROBE]
        assert probes
        assert all("instr" in e.args for e in probes)

    def test_export_trace_validates(self, tmp_path):
        with scope(trace=TraceCollector()):
            sess = Session(MemphisConfig.memphis())
        self._run_workload(sess)
        path = str(tmp_path / "session.json")
        sess.export_trace(path)
        assert validate_chrome_trace(load_chrome_trace(path)) == []


# --------------------------------------------------------------------- summary


class TestSummary:
    def _events(self):
        return [
            Event(EV_INSTR, PHASE_SPAN, 0.0, LANE_CP, 0.5, 0,
                  {"opcode": "ba+*", "hop": 1, "backend": "CP"}),
            Event(EV_INSTR, PHASE_SPAN, 0.5, LANE_CP, 0.1, 0,
                  {"opcode": "+", "hop": 2, "backend": "CP"}),
            Event(EV_PROBE, PHASE_INSTANT, 0.1, LANE_CP, 0.0, 0,
                  {"hit": True, "opcode": "ba+*"}),
            Event(EV_PROBE, PHASE_INSTANT, 0.2, LANE_CP, 0.0, 0,
                  {"hit": False, "opcode": "ba+*"}),
            Event("cache/evict", PHASE_INSTANT, 0.3, LANE_CP, 0.0, 0,
                  {"backend": "CP"}),
        ]

    def test_summarize_counts(self):
        summary = summarize(self._events())
        assert summary.num_events == 5
        assert summary.slowest[0].args["opcode"] == "ba+*"
        site = summary.reuse_sites["ba+*"]
        assert site.hits == 1 and site.misses == 1
        assert summary.evictions == {"driver-cache": 1}

    def test_format_summary_sections(self):
        text = format_summary(self._events())
        assert text.startswith("=== trace summary ===")
        assert "slowest instructions" in text
        assert "50.0%" in text
        assert "driver-cache" in text

    def test_empty_trace(self):
        assert "0" in format_summary([])


# ------------------------------------------------------------ stats merge


class TestStatsMerge:
    def test_merge_sums_counters_and_accumulators(self):
        a, b = Stats(), Stats()
        a.inc("cache/hits", 2)
        b.inc("cache/hits", 3)
        b.inc("spark/jobs")
        a.merge(b)
        assert a.get("cache/hits") == 5
        assert a.get("spark/jobs") == 1

    def test_report_groups_by_subsystem(self):
        stats = Stats()
        stats.inc("cache/hits")
        stats.inc("spark/jobs")
        report = stats.report()
        assert report.splitlines()[0] == "=== statistics ==="
        assert "-- cache --" in report
        assert "-- spark --" in report

    def test_get_does_not_insert_keys(self):
        stats = Stats()
        assert stats.get("cache/hits") == 0
        assert stats.counters() == {}

    def test_report_derived_ratios(self):
        stats = Stats()
        stats.inc("cache/probes", 10)
        stats.inc("cache/hits", 4)
        stats.inc("gpu/pointers_recycled", 3)
        stats.inc("gpu/cuda_mallocs", 1)
        ratios = stats.derived_ratios()
        assert ratios["cache/hit_rate"] == pytest.approx(0.4)
        assert ratios["gpu/recycle_rate"] == pytest.approx(0.75)
        report = stats.report()
        assert "cache/hit_rate" in report
        assert "gpu/recycle_rate" in report

    def test_report_ratios_absent_without_denominator(self):
        stats = Stats()
        stats.inc("cache/hits", 4)  # hits but zero probes
        assert "cache/hit_rate" not in stats.report()

    def test_report_widens_name_column(self):
        stats = Stats()
        long_name = "subsystem/" + "x" * 60
        stats.inc(long_name)
        stats.inc("cache/hits")
        report = stats.report()
        for line in report.splitlines():
            if line.startswith("cache/hits"):
                assert len(line.split()[0]) == len("cache/hits")
                # value column starts after the widened name column
                assert line.index("1") > len(long_name)


# ------------------------------------------------------------ empty traces


class TestEmptyTraceSummary:
    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.num_events == 0

    def test_format_summary_empty_is_complete(self):
        text = format_summary([])
        assert text.startswith("=== trace summary ===")
        # no crash, no per-site sections with stale data
        assert "0" in text
