"""End-to-end request observability for the reuse server (tier 2).

Covers the ``repro.obs.request`` layer: trace-context propagation (every
span/instant emitted while a request is scheduled carries its
``request_id``/``tenant``), deterministic per-tenant SLO metrics and
cost attribution under a fixed interleave seed, per-tenant Chrome-trace
lanes, and the post-mortem of a failed request: the same seed re-run
under a trace reports what the untraced run did.  Everything is marked
``tier2_server`` (``pytest -m tier2_server``) and fast enough for
tier 1.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.tier2_server

from repro.common.runtime import RuntimeContext, scope
from repro.obs import chrome_trace_dict, TraceCollector
from repro.server import Scheduler, pure_program, run_server_demo
from repro.server.scheduler import percentile
from repro.server.demo import impure_program


def three_tenant_scheduler(seed: int = 7, quota=None,
                           max_retries: int = 8) -> Scheduler:
    """Three tenants, five requests, shared pure pipeline + one impure."""
    scheduler = Scheduler(seed=seed, max_retries=max_retries)
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
            assert row["requests"] == row["completed"] + row["failed"]
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert row["latency_p99_s"] >= row["latency_p50_s"] >= 0.0

    def test_latency_includes_only_own_session_time(self):
        report = three_tenant_scheduler(seed=7).run()
        for result, session in zip(report.results, report.sessions):
            assert result.sim_latency_s == pytest.approx(
                session.clock.timelines.get("host", 0.0))


def _raising_scheduler() -> Scheduler:
    """One request whose program raises, beside one that completes."""
    scheduler = Scheduler(seed=0)
    scheduler.add_tenant("alpha")

    def boom(session):
        raise ValueError("injected failure")

    scheduler.submit("alpha", boom, name="boom")
    scheduler.submit("alpha", pure_program(), name="pure0")
    return scheduler


#: server runs by name: a clean demo, one whose admission retries run
#: out, and one whose program raises.
REPLAYED = {
    "demo": lambda: run_server_demo(4, seed=11),
    "admission_exhausted": lambda: three_tenant_scheduler(
        seed=3, quota=512, max_retries=2).run(),
    "raising": lambda: _raising_scheduler().run(),
}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_traced_rerun_reports_what_the_untraced_run_did(name):
    """A failed request's post-mortem is the same seed re-run under a
    trace: tracing changes neither the report nor any request's error,
    and every failed request's events are in the trace."""
    with RuntimeContext():
        plain = REPLAYED[name]()
    with RuntimeContext(trace=TraceCollector()) as rt:
        traced = REPLAYED[name]()
    assert traced.as_record() == plain.as_record()
    assert [(r.request_id, r.error, r.value) for r in traced.results] \
        == [(r.request_id, r.error, r.value) for r in plain.results]
    failed = {r.request_id for r in plain.results if not r.ok}
    assert bool(failed) == (name != "demo")
    stamped = {e.args["request_id"] for e in rt.trace.events()}
    assert failed <= stamped


class TestServerSchema:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
