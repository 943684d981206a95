"""Shared-substrate server tests: cross-session dedup, tenant fairness,
deterministic scheduling (docs/SERVER.md).

The multi-session scenario tests are additionally marked
``tier2_server`` so the server suite can be selected on its own
(``pytest -m tier2_server``); all of them are fast enough for tier 1.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.config import MemphisConfig
from repro.analysis import AnalysisCollector
from repro.common.errors import AdmissionError, GpuOutOfMemoryError
from repro.common.runtime import current, scope
from repro.common.stats import (
    MEMPLAN_BLOCKS_PLANNED,
    SERVER_ADMITTED,
    SERVER_BACKPRESSURE,
    SERVER_CROSS_HITS,
    SERVER_DEDUP_BYTES,
    SERVER_QUOTA_REFUSALS,
    SERVER_SCOPED_KEYS,
    SERVER_SESSIONS,
)
from repro.core.session import Session
from repro.core.substrate import SessionContext, Substrate, fingerprint
from repro.lineage.item import LineageItem
from repro.memory import REGION_CP
from repro.server import Scheduler, pure_program, run_server_demo


def _data(rows=32, cols=4, offset=0.0):
    return ((np.arange(rows * cols, dtype=np.float64) + offset)
            % 11.0).reshape(rows, cols)


def _ridge(session, data, labels, name="X"):
    """A fully deterministic (pure) pipeline over named datasets."""
    X = session.read(data, name)
    y = session.read(labels, name + "_y")
    gram = X.t() @ X
    xty = (y.t() @ X).t()
    beta = session.solve(gram + 0.1 * session.eye(data.shape[1]), xty)
    return session.compute(beta)


def _noise_sum(session, seed=None):
    """A pipeline rooted at ``rand`` (impure under the sharing rules)."""
    noise = session.rand(16, 4, seed=seed)
    return session.compute((noise.t() @ noise).sum())


def _shared(config=None):
    return Substrate.shared_substrate(
        config or MemphisConfig.server_session()
    )


# --------------------------------------------------------------- namespacing


class TestCrossSessionDedup:
    @pytest.mark.tier2_server
    def test_second_session_hits_pure_subexpressions(self):
        sub = _shared()
        data, labels = _data(), _data(32, 1, offset=5.0)
        s1 = Session(MemphisConfig.server_session(), substrate=sub,
                     tenant="alpha")
        r1 = _ridge(s1, data, labels)
        assert sub.stats.get(SERVER_CROSS_HITS) == 0
        s2 = Session(MemphisConfig.server_session(), substrate=sub,
                     tenant="beta")
        r2 = _ridge(s2, data, labels)
        assert sub.stats.get(SERVER_CROSS_HITS) > 0
        assert sub.stats.get(SERVER_DEDUP_BYTES) > 0
        assert sub.stats.get(SERVER_SESSIONS) == 2
        assert np.array_equal(r1, r2)

    @pytest.mark.tier2_server
    def test_shared_result_byte_identical_to_isolated(self):
        data, labels = _data(), _data(32, 1, offset=5.0)
        isolated = _ridge(Session(MemphisConfig.server_session()),
                          data, labels)
        sub = _shared()
        Session(MemphisConfig.server_session(), substrate=sub)  # warm
        first = Session(MemphisConfig.server_session(), substrate=sub,
                        tenant="alpha")
        warm = _ridge(first, data, labels)
        second = Session(MemphisConfig.server_session(), substrate=sub,
                         tenant="beta")
        reused = _ridge(second, data, labels)
        assert np.array_equal(isolated, warm)
        assert np.array_equal(isolated, reused)

    @pytest.mark.tier2_server
    def test_seeded_rand_stays_session_scoped(self):
        sub = _shared()
        s1 = Session(MemphisConfig.server_session(), substrate=sub)
        s2 = Session(MemphisConfig.server_session(), substrate=sub)
        r1 = _noise_sum(s1, seed=7)
        r2 = _noise_sum(s2, seed=7)
        # numerically equal (same seed) but never unified: zero
        # cross-session hits, every rand-rooted key wrapped per session
        assert np.array_equal(r1, r2)
        assert sub.stats.get(SERVER_CROSS_HITS) == 0
        assert sub.stats.get(SERVER_SCOPED_KEYS) > 0

    @pytest.mark.tier2_server
    def test_unseeded_rand_stays_session_scoped(self):
        sub = _shared()
        s1 = Session(MemphisConfig.server_session(), substrate=sub)
        s2 = Session(MemphisConfig.server_session(), substrate=sub)
        _noise_sum(s1)
        _noise_sum(s2)
        assert sub.stats.get(SERVER_CROSS_HITS) == 0

    @pytest.mark.tier2_server
    def test_conflicting_datasets_never_unify(self):
        sub = _shared()
        a, b = _data(), _data(offset=3.0)
        la, lb = _data(32, 1, offset=5.0), _data(32, 1, offset=6.0)
        s1 = Session(MemphisConfig.server_session(), substrate=sub)
        s2 = Session(MemphisConfig.server_session(), substrate=sub)
        r1 = _ridge(s1, a, la, name="D")
        r2 = _ridge(s2, b, lb, name="D")
        # same dataset *names*, different bytes: no false hits, each
        # session sees its own answer
        assert sub.stats.get(SERVER_CROSS_HITS) == 0
        assert np.array_equal(
            r1, _ridge(Session(MemphisConfig.server_session()), a, la,
                       name="D"))
        assert np.array_equal(
            r2, _ridge(Session(MemphisConfig.server_session()), b, lb,
                       name="D"))

    def test_fingerprint_distinguishes_content_not_name(self):
        assert fingerprint(_data()) == fingerprint(_data())
        assert fingerprint(_data()) != fingerprint(_data(offset=1.0))
        assert fingerprint(2.0) != fingerprint(3.0)


class TestPrivateSubstrateUnchanged:
    def test_default_session_is_private(self):
        session = Session(MemphisConfig.memphis())
        assert session.substrate.shared is False
        assert session._ctx is None
        assert session.cache._scope is None
        # ownership moved, object graph did not: the session's cache,
        # arbiter, and interner are exactly the substrate's
        assert session.cache is session.substrate.cache
        assert session.arbiter is session.substrate.arbiter
        assert session.lineage_interner is session.substrate.interner

    def test_private_sessions_byte_identical(self):
        data, labels = _data(), _data(32, 1, offset=5.0)
        r1 = _ridge(Session(MemphisConfig.memphis()), data, labels)
        r2 = _ridge(Session(MemphisConfig.memphis()), data, labels)
        assert np.array_equal(r1, r2)

    def test_private_session_reports_no_server_counters(self):
        session = Session(MemphisConfig.memphis())
        _ridge(session, _data(), _data(32, 1, offset=5.0))
        for name in (SERVER_CROSS_HITS, SERVER_DEDUP_BYTES,
                     SERVER_SCOPED_KEYS, SERVER_SESSIONS):
            assert session.stats.get(name) == 0


# ---------------------------------------------------------------- tenancy


def _small_cp_config(cp_bytes):
    cfg = MemphisConfig.server_session()
    cfg.cache.driver_cache_bytes = cp_bytes
    cfg.cache.spill_to_disk = False
    return cfg


def _fill(sub, ctx, n, size, prefix):
    """Directly put ``n`` cached CP entries for ``ctx``'s tenant."""
    sub.activate(ctx)
    keys = []
    for i in range(n):
        key = sub.interner.intern(f"{prefix}{i}", (i,), ())
        sub.cache.put(key, object(), "CP", size, compute_cost=1e9,
                      delay_factor=1)
        keys.append(key)
    return keys


class TestTenantFairShare:
    @pytest.mark.tier2_server
    def test_quota_caps_tenant_occupancy(self):
        sub = _shared(_small_cp_config(16384))
        sub.set_quota("greedy", 4096)
        ctx = sub.attach(None, "greedy")
        _fill(sub, ctx, 6, 2048, "g")
        region = sub.arbiter.region(REGION_CP)
        assert region.tenant_usage("greedy") <= 4096
        sub.arbiter.check()

    @pytest.mark.tier2_server
    def test_greedy_tenant_cannot_evict_pinned_entry(self):
        sub = _shared(_small_cp_config(8192))
        victim = sub.attach(None, "victim")
        [vkey] = _fill(sub, victim, 1, 2048, "v")
        assert victim.pin(vkey)
        greedy = sub.attach(None, "greedy")
        _fill(sub, greedy, 8, 2048, "g")
        entry = sub.cache._entries[vkey]
        assert entry.is_cached and entry.pinned
        assert sub.arbiter.region(REGION_CP).tenant_usage("victim") == 2048
        sub.arbiter.check()

    @pytest.mark.tier2_server
    def test_within_quota_tenant_protected_from_other_tenants(self):
        sub = _shared(_small_cp_config(8192))
        sub.set_quota("victim", 4096)
        victim = sub.attach(None, "victim")
        vkeys = _fill(sub, victim, 2, 2048, "v")
        greedy = sub.attach(None, "greedy")
        _fill(sub, greedy, 8, 2048, "g")
        region = sub.arbiter.region(REGION_CP)
        # the victim is within quota, so the greedy tenant could only
        # ever recycle its own bytes
        assert region.tenant_usage("victim") == 4096
        for key in vkeys:
            assert sub.cache._entries[key].is_cached
        sub.arbiter.check()

    @pytest.mark.tier2_server
    def test_over_quota_tenant_loses_protection(self):
        sub = _shared(_small_cp_config(8192))
        hog = sub.attach(None, "hog")
        _fill(sub, hog, 3, 2048, "h")  # unquota'd: 6144 bytes resident
        sub.set_quota("hog", 2048)  # quota set after the fact: over it
        other = sub.attach(None, "other")
        _fill(sub, other, 2, 2048, "o")
        region = sub.arbiter.region(REGION_CP)
        assert region.tenant_usage("other") == 4096
        sub.arbiter.check()

    def test_admit_refuses_over_quota_demand(self):
        sub = _shared(_small_cp_config(16384))
        sub.set_quota("t", 1024)
        ctx = sub.attach(None, "t")
        with pytest.raises(AdmissionError) as err:
            ctx.admit({REGION_CP: 4096})
        assert err.value.tenant == "t"
        assert sub.stats.get(SERVER_QUOTA_REFUSALS) == 1
        assert sub.stats.get(SERVER_BACKPRESSURE) == 1

    def test_admit_refuses_unsatisfiable_demand(self):
        sub = _shared(_small_cp_config(4096))
        ctx = sub.attach(None, "t")
        with pytest.raises(AdmissionError):
            ctx.admit({REGION_CP: 1 << 20})
        assert sub.stats.get(SERVER_BACKPRESSURE) == 1
        sub.arbiter.check()

    def test_admit_ignores_session_private_regions(self):
        sub = _shared(_small_cp_config(4096))
        ctx = sub.attach(None, "t")
        # GPU/Spark demands are per-session concerns; only the shared
        # CP/DISK subset is admitted here
        ctx.admit({"GPU": 1 << 40, REGION_CP: 512})
        sub.arbiter.check()


# --------------------------------------------------------------- scheduler


class TestScheduler:
    @pytest.mark.tier2_server
    def test_demo_reports_dedup_and_is_deterministic(self):
        first = run_server_demo(4, seed=3)
        second = run_server_demo(4, seed=3)
        assert first.ok
        assert first.server_counter(SERVER_CROSS_HITS) > 0
        assert first.server_counter(SERVER_DEDUP_BYTES) > 0
        assert first.as_record() == second.as_record()
        # one cached result served to every session running the pure
        # pipeline: they all computed the same answer
        pure = {r.value for r in first.results if r.name.startswith("pure")}
        assert len(pure) == 1

    @pytest.mark.tier2_server
    def test_different_seeds_same_results(self):
        a = run_server_demo(3, seed=0)
        b = run_server_demo(3, seed=99)
        values_a = {r.name: r.value for r in a.results}
        values_b = {r.name: r.value for r in b.results}
        # interleave changes, answers must not
        assert values_a == values_b

    @pytest.mark.tier2_server
    def test_quota_refusal_surfaces_as_failed_request(self):
        sub = _shared()
        scheduler = Scheduler(sub, seed=0, max_retries=2)
        scheduler.add_tenant("starved", 64)  # nothing fits in 64 bytes
        scheduler.add_tenant("normal")
        starved = scheduler.submit("starved", pure_program(), name="s")
        scheduler.submit("normal", pure_program(), name="n")
        report = scheduler.run()
        by_name = {r.name: r for r in report.results}
        assert not by_name["s"].ok
        assert "admission refused" in by_name["s"].error
        assert by_name["s"].retries == 3
        assert by_name["n"].ok  # fault isolation: the other tenant runs
        assert report.server_counter(SERVER_QUOTA_REFUSALS) > 0
        assert report.server_counter(SERVER_BACKPRESSURE) > 0
        assert starved.tenant == "starved"

    @pytest.mark.tier2_server
    def test_program_exception_is_isolated(self):
        scheduler = Scheduler(seed=0)

        def boom(session):
            raise RuntimeError("tenant bug")

        scheduler.submit("a", boom, name="bad")
        scheduler.submit("a", lambda session: 42, name="good")
        report = scheduler.run()
        by_name = {r.name: r for r in report.results}
        assert not by_name["bad"].ok
        assert "tenant bug" in by_name["bad"].error
        assert by_name["good"].ok and by_name["good"].value == 42

    @pytest.mark.tier2_server
    def test_report_tenant_occupancy(self):
        report = run_server_demo(2, quota=1 << 20)
        assert set(report.tenants) == {"alpha", "beta"}
        for occ in report.tenants.values():
            assert occ["quota"] == 1 << 20
            assert 0 <= occ["used"] <= occ["quota"]


# ------------------------------------------------------ quiescent ledgers


def _assert_quiescent(sub, sessions):
    """No hold outlives a statement: every region of the shared and of
    each session-private arbiter has ``reserved == 0``, ``pinned`` is
    what the pinned entries say, and the conservation audits pass."""
    for arbiter in [sub.arbiter] + [s.arbiter for s in sessions]:
        for region in arbiter.regions():
            assert region.reserved == 0, region.snapshot()
    cp = sub.arbiter.region(REGION_CP)
    assert cp.pinned == sum(e.cp_accounted for e in sub.cache.entries()
                            if e.pinned)
    sub.audit()
    for session in sessions:
        session.spark_mgr.audit()


class TestQuiescentLedgers:
    """Failure paths drain every ledger (ROADMAP: admission exhaustion
    and a rejected block leave nothing reserved behind)."""

    def _pinned_substrate(self):
        sub = _shared()
        holder = sub.attach(None, "holder")
        [key] = _fill(sub, holder, 1, 2048, "p")
        assert holder.pin(key)
        return sub

    def test_after_admission_retries_are_exhausted(self):
        sub = self._pinned_substrate()
        scheduler = Scheduler(sub, seed=0, max_retries=2)
        scheduler.add_tenant("starved", 64)  # nothing fits in 64 bytes
        scheduler.add_tenant("normal")
        scheduler.submit("starved", pure_program(), name="s")
        scheduler.submit("normal", pure_program(), name="n")
        report = scheduler.run()
        by_name = {r.name: r for r in report.results}
        assert not by_name["s"].ok and by_name["s"].retries == 3
        assert "admission refused" in by_name["s"].error
        assert by_name["n"].ok
        _assert_quiescent(sub, report.sessions)
        assert sub.arbiter.region(REGION_CP).pinned == 2048

    def test_after_verify_ir_reports_an_over_peak_gpu_block(self):
        """MEM002 on a shrunk device: admitted by the shared gate,
        reported by the verifier before a single instruction runs, then
        the device runs out exactly as predicted."""
        sub = self._pinned_substrate()
        cfg = MemphisConfig.server_session(gpu_enabled=True)
        cfg.gpu.device_memory = 64 * 1024
        with scope(analysis=AnalysisCollector()) as rt:
            session = Session(cfg, substrate=sub, tenant="t")
        h = session.read(np.random.default_rng(3).random((50, 50)), "X")
        for _ in range(10):  # 30 GPU ops of ~20 KB each: peak >> 64 KB
            h = (h * 1.001 + 0.5).relu()
        with pytest.raises(GpuOutOfMemoryError):
            session.evaluate([h])
        assert [d.rule for d in rt.analysis.errors()] == ["MEM002"]
        assert sub.stats.get(SERVER_ADMITTED) == 1
        _assert_quiescent(sub, [session])
        assert sub.arbiter.region(REGION_CP).pinned == 2048


# ----------------------------------------------------- context substrate


class TestAttachedSessionsPlan:
    """Planning follows the attachment, not a config flag: the shared
    substrate's admission gate has nothing to check without a plan."""

    def test_plain_memphis_session_plans_and_passes_the_gate(self):
        sub = _shared(MemphisConfig.memphis())
        session = Session(MemphisConfig.memphis(), substrate=sub,
                          tenant="t")
        assert session.memplanner is not None
        _ridge(session, _data(), _data(32, 1, offset=5.0))
        assert session.stats.get(MEMPLAN_BLOCKS_PLANNED) > 0
        assert sub.stats.get(SERVER_ADMITTED) > 0

    def test_private_session_does_not_plan(self):
        session = Session(MemphisConfig.memphis())
        _ridge(session, _data(), _data(32, 1, offset=5.0))
        assert session.memplanner is None
        assert session.stats.get(MEMPLAN_BLOCKS_PLANNED) == 0


class TestAmbientSubstrate:
    def test_install_makes_sessions_attach(self):
        sub = _shared()
        with scope(substrate=sub):
            session = Session(MemphisConfig.server_session())
            assert session.cache is sub.cache
            assert session._ctx is not None
        assert current().substrate is None


# ------------------------------------------------------------- namespacing unit


class TestNamespacingRules:
    def test_pure_dag_is_shareable_after_registration(self):
        sub = _shared()
        ctx = sub.attach(None, "t")
        sub.register_dataset(ctx, "X", _data())
        leaf = LineageItem("data", ("X",))
        item = LineageItem("ba+*", (), (leaf, leaf))
        assert sub.shareable(ctx, item)
        assert ctx.namespaced(item) is item

    def test_unregistered_dataset_is_scoped(self):
        sub = _shared()
        ctx = sub.attach(None, "t")
        item = LineageItem("ba+*", (), (LineageItem("data", ("X",)),))
        assert not sub.shareable(ctx, item)
        wrapped = ctx.namespaced(item)
        assert wrapped.is_namespaced
        assert wrapped.inputs == (item,)

    def test_mismatched_fingerprint_is_scoped(self):
        sub = _shared()
        first = sub.attach(None, "a")
        sub.register_dataset(first, "X", _data())
        second = sub.attach(None, "b")
        sub.register_dataset(second, "X", _data(offset=1.0))
        item = LineageItem("r'", (), (LineageItem("data", ("X",)),))
        assert sub.shareable(first, item)
        assert not sub.shareable(second, item)

    def test_rand_and_function_dags_are_scoped(self):
        sub = _shared()
        ctx = sub.attach(None, "t")
        rand = LineageItem("rand", (1, 2, 7))
        assert not sub.shareable(ctx, LineageItem("tsmm", (), (rand,)))
        func = LineageItem("func:train", (0,), ())
        assert not sub.shareable(ctx, func)

    def test_scoping_is_stable_and_per_session(self):
        sub = _shared()
        a, b = sub.attach(None, "t"), sub.attach(None, "t")
        item = sub.interner.intern("rand", (1, 1, 5), ())
        wrapped_a = a.namespaced(item)
        assert a.namespaced(item) is wrapped_a  # hash-consed
        assert b.namespaced(item) is not wrapped_a
        assert sub.stats.get(SERVER_SCOPED_KEYS) == 2


def _namespaced_without_slot(ctx, key):
    """``SessionContext.namespaced`` as it was before the one-slot memo."""
    sub = ctx.substrate
    if sub.shareable(ctx, key):
        return key
    return sub.scope_key(ctx.scope_opcode, key)


def _gram_before_and_after_reread(first, second):
    """One session evaluates ``X.t() @ X`` over ``first`` (its canonical
    ``X``), then over ``second`` re-read under the same name."""
    sub = _shared()
    session = Session(MemphisConfig.server_session(), substrate=sub,
                      tenant="t")
    X = session.read(first, "X")
    gram = X.t() @ X
    before = session.compute(gram)
    # the last key namespaced is the transpose's: the first key the
    # evaluation after the re-read namespaces
    session.compute(X.t())
    X = session.read(second, "X")
    after = session.compute(X.t() @ X)
    return sub, session._ctx, gram.lineage, before, after


class TestNamespacingSlot:
    @pytest.mark.tier2_server
    def test_rereading_a_name_clears_the_slot(self, monkeypatch):
        first, second = _data(), _data(offset=1.0)
        sub, ctx, key, before, after = _gram_before_and_after_reread(
            first, second)
        assert np.array_equal(before, first.T @ first)
        assert np.array_equal(after, second.T @ second)
        assert not sub.shareable(ctx, key)
        scoped = ctx.namespaced(key)
        assert scoped.is_namespaced and scoped.inputs == (key,)
        assert scoped in sub.cache._entries
        assert sub.stats.get(SERVER_CROSS_HITS) == 0
        monkeypatch.setattr(SessionContext, "namespaced",
                            _namespaced_without_slot)
        oracle = _gram_before_and_after_reread(first, second)[0]
        assert sub.stats.get(SERVER_SCOPED_KEYS) == \
            oracle.stats.get(SERVER_SCOPED_KEYS) > 0


def _scanned_occupancy(sub):
    """``Substrate.tenant_occupancy`` by a full scan of the entries."""
    region = sub.arbiter.region(REGION_CP)
    pins = {}
    for entry in sub.cache.entries():
        if entry.pinned:
            pins[entry.tenant] = pins.get(entry.tenant, 0) + 1
    return {
        tenant: {"used": region.tenant_usage(tenant),
                 "quota": sub.tenants[tenant],
                 "pinned_entries": pins.get(tenant, 0)}
        for tenant in sorted(sub.tenants)
    }


class TenantOccupancyMachine(RuleBasedStateMachine):
    """Puts, pins, unpins and evictions by two tenants on one small
    shared substrate: ``tenant_occupancy`` skips its entry scan while
    nothing is pinned, and always equals the full scan."""

    TAGS = st.integers(min_value=0, max_value=7)

    def __init__(self):
        super().__init__()
        self.sub = _shared(_small_cp_config(8192))
        self.sub.set_quota("alpha", 4096)
        self.ctxs = [self.sub.attach(None, t) for t in ("alpha", "beta")]

    def key(self, tag):
        return self.sub.interner.intern("occ", (tag,), ())

    @rule(which=st.integers(0, 1), tag=TAGS,
          size=st.sampled_from([512, 1024, 2048]))
    def put(self, which, tag, size):
        self.sub.activate(self.ctxs[which])
        self.sub.cache.put(self.key(tag), object(), "CP", size,
                           compute_cost=1e9, delay_factor=1)

    @rule(which=st.integers(0, 1), tag=TAGS, pin=st.booleans())
    def pin_or_unpin(self, which, tag, pin):
        ctx = self.ctxs[which]
        (ctx.pin if pin else ctx.unpin)(self.key(tag))

    @rule(tag=TAGS)
    def evict(self, tag):
        entry = self.sub.cache.get_entry(self.key(tag))
        if entry is not None:
            self.sub.cache.evict_cp(entry)

    @invariant()
    def occupancy_equals_the_scan(self):
        self.sub.audit()
        assert self.sub.tenant_occupancy() == _scanned_occupancy(self.sub)


TestTenantOccupancyStateful = TenantOccupancyMachine.TestCase
TestTenantOccupancyStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    derandomize=True)
