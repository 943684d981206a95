"""End-to-end request observability for the reuse server (tier 2).

Covers the ``repro.obs.request`` layer: trace-context propagation (every
span/instant emitted while a request is scheduled carries its
``request_id``/``tenant``), deterministic per-tenant SLO metrics and
cost attribution under a fixed interleave seed, the always-on flight
recorder and its automatic post-mortem dumps, per-tenant Chrome-trace
lanes, and the ``SERVER_SCHEMA`` JSONL stream.  Everything is marked
``tier2_server`` (``pytest -m tier2_server``) and fast enough for
tier 1.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.tier2_server

from repro.common.config import MemphisConfig
from repro.common.runtime import scope
from repro.harness.telemetry import (
    SERVER_SLO_KEYS,
    read_server_jsonl,
    server_report_records,
    validate_server_records,
    write_server_jsonl,
)
from repro.obs import (
    FlightRecorder,
    RequestContext,
    chrome_trace_dict,
    TraceCollector,
)
from repro.server import Scheduler, pure_program, run_server_demo
from repro.server.scheduler import percentile
from repro.server.demo import impure_program


def three_tenant_scheduler(seed: int = 7, quota=None,
                           max_retries: int = 8) -> Scheduler:
    """Three tenants, five requests, shared pure pipeline + one impure."""
    scheduler = Scheduler(config=MemphisConfig.server_session(),
                          seed=seed, max_retries=max_retries)
    for tenant in ("alpha", "beta", "gamma"):
        scheduler.add_tenant(tenant, quota)
    for i, tenant in enumerate(("alpha", "beta", "gamma", "alpha")):
        scheduler.submit(tenant, pure_program(), name=f"pure{i}")
    scheduler.submit("gamma", impure_program(), name="impure0")
    return scheduler


class TestRequestPropagation:
    def test_every_event_carries_request_id_and_tenant(self):
        tc = TraceCollector()
        with scope(trace=tc):
            report = three_tenant_scheduler().run()
        assert report.ok
        events = tc.events()
        assert len(events) > 50  # instruction spans, probes, steps, ...
        by_id = {r.request_id: r.tenant for r in report.results}
        unstamped = [e for e in events
                     if not e.args or "request_id" not in e.args]
        assert unstamped == []
        for event in events:
            assert event.args["request_id"] in by_id, event
            assert event.args["tenant"] \
                == by_id[event.args["request_id"]], event

    def test_request_ids_are_deterministic(self):
        report = three_tenant_scheduler().run()
        assert [r.request_id for r in report.results] == [
            "req-000-pure0", "req-001-pure1", "req-002-pure2",
            "req-003-pure3", "req-004-impure0",
        ]

    def test_substrate_events_stamped_with_consumer_request(self):
        """Cross-session hits fire on the substrate tracer mid-quantum;
        the stamp must name the *consuming* request, the attribution
        args the *producing* tenant."""
        tc = TraceCollector()
        with scope(trace=tc):
            report = three_tenant_scheduler().run()
        by_id = {r.request_id: r.tenant for r in report.results}
        attributions = [e for e in tc.events()
                        if e.name == "server/attribution"]
        assert attributions, "pure pipeline must cross-hit"
        for event in attributions:
            assert event.args["consumer"] == by_id[event.args["request_id"]]
            assert event.args["producer"] in ("alpha", "beta", "gamma")

    def test_binding_cleared_after_run(self):
        with scope(trace=TraceCollector()):
            scheduler = three_tenant_scheduler()
            scheduler.run()
            assert scheduler.substrate.tracer.request is None

    def test_tenant_lanes_in_chrome_export(self):
        tc = TraceCollector()
        with scope(trace=tc):
            three_tenant_scheduler().run()
        doc = chrome_trace_dict(tc.events(), tc.session_labels)
        thread_names = {e["args"]["name"] for e in doc["traceEvents"]
                        if e.get("name") == "thread_name"}
        assert any("[alpha]" in name for name in thread_names)
        assert any("[gamma]" in name for name in thread_names)
        # tenant lanes must not collide with the base backend lanes
        tids = {}
        for e in doc["traceEvents"]:
            if e.get("name") == "thread_name":
                tids.setdefault((e["pid"], e["args"]["name"]), e["tid"])
        assert len(set(tids.values())) >= 2


class TestDeterministicAttribution:
    def test_attribution_matrix_identical_across_same_seed_runs(self):
        first = three_tenant_scheduler(seed=7).run()
        second = three_tenant_scheduler(seed=7).run()
        assert first.attribution == second.attribution
        assert first.attribution, "shared pure pipeline must attribute"
        assert first.slo == second.slo
        assert first.as_record() == second.as_record()

    def test_attribution_cells_are_producer_consumer_sorted(self):
        report = three_tenant_scheduler(seed=7).run()
        pairs = [(c["producer"], c["consumer"]) for c in report.attribution]
        assert pairs == sorted(pairs)
        for cell in report.attribution:
            assert cell["hits"] >= 1
            assert cell["bytes"] > 0
            assert cell["cost_avoided"] > 0

    def test_slo_rows_cover_every_tenant(self):
        report = three_tenant_scheduler(seed=7).run()
        assert sorted(report.slo) == ["alpha", "beta", "gamma"]
        for row in report.slo.values():
            assert set(SERVER_SLO_KEYS) <= set(row)
            assert row["requests"] == row["completed"] + row["failed"]
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert row["latency_p99_s"] >= row["latency_p50_s"] >= 0.0

    def test_latency_includes_only_own_session_time(self):
        report = three_tenant_scheduler(seed=7).run()
        for result, session in zip(report.results, report.sessions):
            assert result.sim_latency_s == pytest.approx(
                session.clock.timelines.get("host", 0.0))


class TestFlightRecorder:
    def test_dump_on_admission_exhaustion(self):
        scheduler = three_tenant_scheduler(seed=3, quota=512,
                                           max_retries=2)
        report = scheduler.run()
        assert not report.ok
        failed = [r for r in report.results if not r.ok]
        assert failed
        assert report.flight_dumps, "exhausted retries must dump"
        reasons = {d["reason"] for d in report.flight_dumps}
        assert "admission_error" in reasons
        dump = next(d for d in report.flight_dumps
                    if d["reason"] == "admission_error")
        assert dump["request_id"] in {r.request_id for r in failed}
        assert dump["tenant"] in ("alpha", "beta", "gamma")
        assert dump["events"], "dump must carry the recent-event window"
        # the dumped window was recorded with tracing fully off
        for session in report.sessions:
            assert not session.tracer.enabled

    def test_dump_on_program_exception(self):
        scheduler = Scheduler(config=MemphisConfig.server_session(), seed=0)
        scheduler.add_tenant("alpha")

        def boom(session):
            raise ValueError("injected failure")

        scheduler.submit("alpha", boom, name="boom")
        report = scheduler.run()
        assert not report.ok
        assert report.results[0].error == "ValueError: injected failure"
        assert [d["reason"] for d in report.flight_dumps] == ["ValueError"]
        assert report.flight_dumps[0]["request_id"] == "req-000-boom"

    def test_no_dumps_on_clean_run(self):
        report = three_tenant_scheduler(seed=7).run()
        assert report.flight_dumps == []

    def test_recorder_detached_from_collector_after_run(self):
        """Regression: ``run`` used to leave its recorder on the
        collector's sinks (1 -> 2 -> 3 over two demos), so a finished
        scheduler's window kept filling with later servers' events."""
        tc = TraceCollector()
        with scope(trace=tc):
            before = len(tc.sinks)
            assert run_server_demo(2, seed=0).ok
            assert run_server_demo(2, seed=0).ok
            assert len(tc.sinks) == before
            first = three_tenant_scheduler()
            first.run()
            window = (len(first.flight), first.flight.ring.dropped)
            assert window[0] > 0
            three_tenant_scheduler().run()
            assert (len(first.flight), first.flight.ring.dropped) == window
            assert len(tc.sinks) == before

    def test_recorder_detached_when_run_raises(self):
        tc = TraceCollector()
        with scope(trace=tc):
            scheduler = three_tenant_scheduler()
            scheduler._config_factory = lambda: 1 / 0
            with pytest.raises(ZeroDivisionError):
                scheduler.run()
        assert scheduler.flight not in tc.sinks

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        ctx = RequestContext("req-x", "alpha")
        for i in range(10):
            recorder.record("server/step", float(i), ctx=ctx, step=i)
        assert len(recorder) == 4
        dump = recorder.dump("test", ts=10.0, ctx=ctx)
        assert dump["dropped"] == 6
        assert [e["args"]["step"] for e in dump["events"]] == [6, 7, 8, 9]


class TestServerSchema:
    def test_records_round_trip_and_validate(self, tmp_path):
        report = run_server_demo(4, seed=11)
        records = server_report_records(report, 4, 11)
        assert validate_server_records(records) == []
        # the pure pipelines must credit a producer tenant: an empty
        # attribution matrix means cross-session hits went unattributed
        assert any(r["kind"] == "attribution" for r in records)
        path = tmp_path / "server.jsonl"
        write_server_jsonl(str(path), records)
        assert read_server_jsonl(str(path)) == records

    def test_jsonl_byte_identical_for_same_seed(self, tmp_path):
        paths = []
        for i in range(2):
            report = run_server_demo(4, seed=11)
            path = tmp_path / f"server{i}.jsonl"
            write_server_jsonl(str(path),
                               server_report_records(report, 4, 11))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_validator_rejects_malformed_streams(self):
        report = run_server_demo(3, seed=0)
        records = server_report_records(report, 3, 0)
        assert validate_server_records(records) == []
        assert validate_server_records([]) != []
        # stream structure: first and only header, >= 1 SLO row, counters
        assert validate_server_records(records[1:]) != []
        assert validate_server_records(records[:1] + records) != []
        for kind in ("tenant_slo", "counters"):
            assert any(kind in p for p in validate_server_records(
                [r for r in records if r["kind"] != kind]))
        assert validate_server_records(records + [{"kind": "bogus"}]) != []
        # one field broken at a time; the problem names the field
        for kind, field, bad in [
            ("header", "format", "WRONG"),
            ("header", "seed", True),       # a boolean is not an integer
            ("header", "sessions", 0),
            ("header", "tenants", [""]),
            ("request", "steps", 0),        # every request ran a quantum
            ("request", "sim_latency_s", True),
            ("tenant_slo", "hit_rate", 1.5),
            ("tenant_slo", "tenant", ""),
            ("tenant_slo", "latency_p99_s", -1.0),
            ("attribution", "hits", 0),
            ("counters", "counters", {"cache/hits": True}),
        ]:
            broken = [dict(r) for r in records]
            next(r for r in broken if r["kind"] == kind)[field] = bad
            assert any(field in p for p in validate_server_records(broken)), \
                (kind, field, bad)

    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
