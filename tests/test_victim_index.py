"""The CP victim index never moves an eviction decision.

``repro.core.victim_index`` keeps the driver cache's victim order in
per-tenant heaps; ``LineageCache.audit()`` holds it to the full-scan
oracle.  These tests pin down the tie rule (equal scores leave in
creation order), run the audit after every op of an eviction-heavy
session and every scheduling quantum of the server demo, and count —
not time — what ``select_victim`` is handed on a full cache.
"""

import random

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import CacheConfig, EvictionPolicyName
from repro.common.simclock import SimClock
from repro.common.stats import Stats
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_CP, BACKEND_SP, EntryStatus
from repro.core.substrate import Substrate
from repro.lineage.item import LineageItem, dataset
from repro.ml.l2svm import l2svm_core_iteration
from repro.runtime.values import MatrixValue
from repro.server import Scheduler, run_server_demo

POLICIES = list(EvictionPolicyName)


def key(tag) -> LineageItem:
    return LineageItem("exp", (str(tag),), (dataset("X"),))


def value():
    return MatrixValue(np.ones((2, 2)))


def make_cache(budget, policy=EvictionPolicyName.COST_SIZE):
    cfg = CacheConfig(driver_cache_bytes=budget, policy=policy,
                      spill_to_disk=False)
    return LineageCache(cfg, Stats())


def level_scores(cache, entries):
    """Give ``entries`` identical score inputs under every policy."""
    for entry in entries:
        entry.hits = entry.misses = entry.jobs = 0
        entry.last_access = 0
        cache.touch(entry)


def drain_order(cache):
    """Evict everything through the arbiter; the order entries left in."""
    order = []
    evict = cache.evict_cp

    def recording(entry):
        if BACKEND_CP in entry.payloads:
            order.append(entry)
        evict(entry)

    cache.evict_cp = recording
    assert cache.make_space(BACKEND_CP, cache.config.driver_cache_bytes)
    return order


def scan_order(cache, entries):
    """What repeated full scans would evict: ``min`` keeps the first of
    equal scores, and ``_entries`` is in creation order."""
    now = cache._logical_time
    return sorted(entries, key=lambda e: (cache.policy.score(e, now), e.seq))


@pytest.mark.parametrize("policy", POLICIES)
class TestTieBreak:
    def fill(self, policy, n=6):
        cache = make_cache(n * 100, policy)
        entries = [cache.put(key(i), value(), BACKEND_CP, 100, 50.0)
                   for i in range(n)]
        level_scores(cache, entries)
        return cache, entries

    def test_equal_scores_leave_in_creation_order(self, policy):
        cache, entries = self.fill(policy)
        cache.audit()
        assert drain_order(cache) == entries

    def test_reput_with_unchanged_score_keeps_its_place(self, policy):
        cache, entries = self.fill(policy)
        cache.make_space(BACKEND_CP, 100)  # the index has scored them all
        cache.put(key(0), value(), BACKEND_CP, 100, 50.0)
        level_scores(cache, entries)
        cache.audit()
        assert drain_order(cache) == entries
        # evicted, then re-put under the same key: same entry, same seq
        again = cache.put(key(2), value(), BACKEND_CP, 100, 50.0)
        assert again is entries[2]
        others = [cache.put(key(i), value(), BACKEND_CP, 100, 50.0)
                  for i in (5, 1)]
        level_scores(cache, [again] + others)
        cache.audit()
        assert drain_order(cache) == [entries[1], entries[2], entries[5]]

    def test_sp_payload_enlarging_size_reorders_like_the_scan(self, policy):
        cache, entries = self.fill(policy)
        cache.make_space(BACKEND_CP, 100)
        grown = entries[3]
        # SparkCacheManager.cache_rdd: Eq. 1 divides by the larger size,
        # so this entry's score *falls* below records already in the heap
        grown.put_payload(BACKEND_SP, object(), 400, grown.compute_cost)
        cache.touch(grown)
        assert grown.size == 400
        cache.audit()
        expected = scan_order(cache, entries[1:])  # [0] made the space
        if policy is EvictionPolicyName.COST_SIZE:
            assert expected[0] is grown
        else:
            assert expected == entries[1:]
        assert drain_order(cache) == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_equal_scores_across_tenants_leave_in_creation_order(policy):
    # one heap per tenant: their tops must reach ``min()`` in seq order
    cfg = MemphisConfig.memphis()
    cfg.cache = CacheConfig(driver_cache_bytes=600, policy=policy,
                            spill_to_disk=False)
    sub = Substrate.shared_substrate(cfg)
    scopes = [sub.attach(None, tenant) for tenant in ("beta", "alpha")]
    for ctx in scopes:
        sub.register_dataset(ctx, "X", np.ones((2, 2)))
    entries = []
    for i in range(6):
        sub.activate(scopes[i % 2])
        entries.append(sub.cache.put(key(i), value(), BACKEND_CP, 100, 50.0))
    assert [e.tenant for e in entries[:2]] == ["beta", "alpha"]
    level_scores(sub.cache, entries)
    sub.audit()
    assert drain_order(sub.cache) == entries


@pytest.mark.parametrize("policy", POLICIES)
def test_restored_entry_is_a_candidate_again(policy):
    cfg = CacheConfig(driver_cache_bytes=1000, policy=policy,
                      disk_cache_bytes=10_000)
    cache = LineageCache(cfg, Stats(), clock=SimClock(),
                         disk_bytes_per_s=1e9, flops_per_s=1e12)
    first = cache.put(key("a"), value(), BACKEND_CP, 800, 1e12)
    cache.put(key("b"), value(), BACKEND_CP, 800, 1e12)  # spills a
    assert first.status is EntryStatus.SPILLED
    assert cache.probe(key("a")) is first  # restores a, spills b
    assert cache.stats.get("cache/disk_restores") == 1
    cache.audit()
    assert drain_order(cache) == [first]


@pytest.mark.parametrize("policy", POLICIES)
def test_audit_after_every_op_of_an_eviction_heavy_session(policy):
    # bench/workloads.py ``hpo_evict`` at smoke size: 80 KB input, 1 MB
    # driver cache, a working set far above it
    rng = np.random.default_rng(7)
    config = MemphisConfig.memphis()
    config.cache.driver_cache_bytes = 1 << 20
    config.cache.policy = policy
    config.spark_enabled = False
    sess = Session(config)
    X = sess.read(rng.random((640, 16)), "X")
    y = sess.read(np.where(rng.random((640, 1)) > 0.5, 1.0, -1.0), "y")
    w = sess.read(np.zeros((16, 1)), "w")
    regs = [float(r) for r in rng.random(60)]
    regs += [regs[i] for i in rng.integers(0, 60, size=30)]
    for reg in regs:
        l2svm_core_iteration(sess, X, y, w + reg, reg).sum().item()
        sess.substrate.audit()
    assert sess.stats.get("cache/evictions") > 100
    assert sess.stats.get("cache/hits") > 0


@pytest.mark.tier2_server
@pytest.mark.parametrize("quota", [None, 4096])
def test_audit_after_every_scheduling_quantum_of_the_server_demo(
        monkeypatch, quota):
    step = Scheduler._step
    audits = []

    def audited_step(self, task):
        done = step(self, task)
        self.substrate.audit()
        audits.append(done)
        return done

    monkeypatch.setattr(Scheduler, "_step", audited_step)
    report = run_server_demo(4, seed=0, quota=quota)
    assert report.ok
    assert sum(audits) == len(report.results) == 6
    if quota is not None:  # tenants shrank their own entries to fit
        assert report.server_counter("cache/evictions") > 0


class TestVictimScanLength:
    RESIDENT = 500
    FURTHER = 200

    def drive(self, cache):
        """Fill the cache, then ``FURTHER`` puts that each evict, with
        probes in between so scores keep moving."""
        rng = random.Random(3)
        lengths = []
        select = cache.arbiter.select_victim

        def counting_select(name, candidates, **kw):
            lengths.append(len(candidates))
            return select(name, candidates, **kw)

        cache.arbiter.select_victim = counting_select
        for i in range(self.RESIDENT):
            cache.put(key(i), value(), BACKEND_CP, 100,
                      rng.choice([10.0, 50.0, 50.0, 200.0]))
        assert cache.cached_count(BACKEND_CP) == self.RESIDENT
        assert not lengths
        for i in range(self.RESIDENT, self.RESIDENT + self.FURTHER):
            for _ in range(3):
                cache.probe(key(rng.randrange(i + 5)))
            cache.put(key(i), value(), BACKEND_CP, rng.choice([100, 200]),
                      rng.choice([10.0, 50.0, 50.0, 200.0]))
        resident = {e.key for e in cache.entries()
                    if BACKEND_CP in e.payloads and e.is_cached}
        return lengths, resident

    def test_full_cache_examines_a_constant_number_of_entries(self):
        cache = make_cache(self.RESIDENT * 100)
        lengths, resident = self.drive(cache)
        assert len(lengths) >= self.FURTHER
        assert sum(lengths) / len(lengths) <= 2
        del cache.arbiter.select_victim  # the audit's oracle scans
        cache.audit()

        # the same run with every victim found by the full scan
        reference = make_cache(self.RESIDENT * 100)
        reference._index = None
        ref_lengths, ref_resident = self.drive(reference)
        assert sum(ref_lengths) / len(ref_lengths) > self.RESIDENT * 0.9
        assert len(ref_lengths) == len(lengths)
        assert resident == ref_resident
        assert cache.stats.counters() == reference.stats.counters()
        assert cache.stats.get("cache/evictions") >= self.FURTHER
