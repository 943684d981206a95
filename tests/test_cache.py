"""Tests for the hierarchical lineage cache, policies, and Spark manager."""

import numpy as np
import pytest

from repro.backends.gpu import GpuPointer
from repro.backends.spark import SparkBackend, SparkContext
from repro.common.config import (
    CacheConfig,
    EvictionPolicyName,
    SparkConfig,
)
from repro.common.simclock import SimClock
from repro.common.stats import Stats
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_CP, BACKEND_SP, CacheEntry, EntryStatus
from repro.core.policies import (
    CostSizePolicy,
    LrcPolicy,
    LruPolicy,
    MrdPolicy,
    make_policy,
)
from repro.core.spark_cache import SparkCacheManager
from repro.lineage.item import LineageItem, dataset
from repro.runtime.values import MatrixValue


def key(tag: str) -> LineageItem:
    return LineageItem("exp", (tag,), (dataset("X"),))


def value(cells=100):
    return MatrixValue(np.ones((cells, 1)))


def make_cache(budget=10_000, policy=EvictionPolicyName.COST_SIZE,
               unlimited=False, delay=1):
    cfg = CacheConfig(driver_cache_bytes=budget, policy=policy,
                      unlimited=unlimited, delay_factor=delay)
    return LineageCache(cfg, Stats())


class TestLineageCacheBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        k = key("a")
        assert cache.probe(k) is None
        cache.put(k, value(), BACKEND_CP, 800, 100.0)
        entry = cache.probe(key("a"))  # structurally equal key
        assert entry is not None
        assert entry.hits == 1

    def test_put_returns_entry_when_cached(self):
        cache = make_cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        assert entry is not None
        assert entry.status is EntryStatus.CACHED

    def test_stats_counters(self):
        cache = make_cache()
        cache.probe(key("a"))
        cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        cache.probe(key("a"))
        stats = cache.stats
        assert stats.get("cache/probes") == 2
        assert stats.get("cache/misses") == 1
        assert stats.get("cache/hits") == 1
        assert stats.get("cache/puts") == 1

    def test_cp_budget_enforced(self):
        cache = make_cache(budget=2000)
        cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        cache.put(key("b"), value(), BACKEND_CP, 800, 1.0)
        cache.put(key("c"), value(), BACKEND_CP, 800, 1.0)
        assert cache.cp_bytes <= 2000
        assert cache.stats.get("cache/evictions") >= 1

    def test_oversized_object_not_cached(self):
        cache = make_cache(budget=100)
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        assert entry is None
        assert cache.cp_bytes == 0

    def test_unlimited_skips_eviction(self):
        cache = make_cache(budget=100, unlimited=True)
        for i in range(10):
            cache.put(key(str(i)), value(), BACKEND_CP, 800, 1.0)
        assert cache.cached_count(BACKEND_CP) == 10
        assert cache.stats.get("cache/evictions") == 0

    def test_cost_size_evicts_cheapest_per_byte(self):
        cache = make_cache(budget=2000)
        cheap = cache.put(key("cheap"), value(), BACKEND_CP, 900, 1.0)
        exp = cache.put(key("exp"), value(), BACKEND_CP, 900, 1e9)
        cache.put(key("new"), value(), BACKEND_CP, 900, 10.0)
        assert cheap.status is EntryStatus.EVICTED
        assert exp.status is EntryStatus.CACHED

    def test_remove_and_clear(self):
        cache = make_cache()
        cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        cache.remove(key("a"))
        assert cache.cp_bytes == 0
        cache.put(key("b"), value(), BACKEND_CP, 800, 1.0)
        cache.clear()
        assert len(cache) == 0


class TestDelayedCaching:
    def test_delay_two_defers_first_put(self):
        cache = make_cache(delay=2)
        assert cache.put(key("a"), value(), BACKEND_CP, 800, 1.0) is None
        assert cache.probe(key("a")) is None  # placeholder: still a miss
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        assert entry is not None
        assert cache.probe(key("a")) is not None

    def test_delay_counts_per_key(self):
        cache = make_cache(delay=3)
        for i in range(2):
            assert cache.put(key("a"), value(), BACKEND_CP, 800, 1.0) is None
        assert cache.put(key("a"), value(), BACKEND_CP, 800, 1.0) is not None
        # an unrelated key starts its own count
        assert cache.put(key("b"), value(), BACKEND_CP, 800, 1.0) is None

    def test_placeholder_tracks_misses(self):
        cache = make_cache(delay=5)
        cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        cache.probe(key("a"))
        entry = cache.get_entry(key("a"))
        assert entry.misses == 1
        assert cache.stats.get("cache/delayed_entries") == 1

    def test_override_delay_per_put(self):
        cache = make_cache(delay=4)
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0,
                          delay_factor=1)
        assert entry is not None


class TestPolicies:
    def _entry(self, hits, size, cost, last_access=0.0):
        entry = CacheEntry(key(f"{hits}-{size}-{cost}"), cost, size)
        entry.hits = hits
        entry.last_access = last_access
        entry.status = EntryStatus.CACHED
        return entry

    def test_factory(self):
        for name, cls in [
            (EvictionPolicyName.COST_SIZE, CostSizePolicy),
            (EvictionPolicyName.LRU, LruPolicy),
            (EvictionPolicyName.LRC, LrcPolicy),
            (EvictionPolicyName.MRD, MrdPolicy),
        ]:
            assert isinstance(make_policy(name), cls)

    def test_cost_size_ordering(self):
        policy = CostSizePolicy()
        cheap_big = self._entry(hits=0, size=1000, cost=1.0)
        costly_small = self._entry(hits=5, size=10, cost=1000.0)
        assert policy.score(cheap_big, 0) < policy.score(costly_small, 0)

    def test_lru_ordering(self):
        policy = LruPolicy()
        old = self._entry(0, 10, 1.0, last_access=1.0)
        recent = self._entry(0, 10, 1.0, last_access=9.0)
        assert policy.score(old, 10) < policy.score(recent, 10)

    def test_lrc_ordering(self):
        policy = LrcPolicy()
        rare = self._entry(hits=1, size=10, cost=1.0)
        frequent = self._entry(hits=50, size=10, cost=1.0)
        assert policy.score(rare, 0) < policy.score(frequent, 0)

    def test_mrd_far_and_rare_evicted_first(self):
        policy = MrdPolicy()
        far = self._entry(hits=1, size=10, cost=1.0, last_access=0.0)
        near = self._entry(hits=1, size=10, cost=1.0, last_access=90.0)
        assert policy.score(far, 100.0) < policy.score(near, 100.0)


class TestSparkCacheManager:
    def _setup(self, executor_memory=400_000, fraction=0.8, k=3):
        stats = Stats()
        clock = SimClock()
        spark_cfg = SparkConfig(block_size_rows=100, num_executors=1,
                                executor_memory=executor_memory)
        sc = SparkContext(spark_cfg, clock, stats)
        sb = SparkBackend(sc)
        cache_cfg = CacheConfig(spark_cache_fraction=fraction,
                                async_materialize_after_misses=k)
        cache = LineageCache(cache_cfg, stats)
        mgr = SparkCacheManager(cache, sc, cache_cfg, stats)
        return mgr, cache, sc, sb, stats

    def _dm(self, sb, rows=300, cols=4, seed=0):
        return sb.distribute(
            MatrixValue(np.random.default_rng(seed).random((rows, cols))),
        )

    def test_cache_rdd_persists_lazily(self):
        mgr, cache, sc, sb, stats = self._setup()
        dm = self._dm(sb)
        entry = CacheEntry(key("a"), 100.0, dm.nbytes)
        assert mgr.cache_rdd(entry, dm)
        assert dm.rdd.is_persisted
        assert not entry.rdd_materialized
        assert stats.get("spark/rdds_persisted") == 1

    def test_reuse_unmaterialized_rdd(self):
        mgr, cache, sc, sb, stats = self._setup()
        dm = self._dm(sb)
        entry = CacheEntry(key("a"), 100.0, dm.nbytes)
        mgr.cache_rdd(entry, dm)
        out = mgr.reuse_rdd(entry)
        assert out is dm
        assert stats.get("spark/rdds_reused") == 1

    def test_async_materialize_after_k_misses(self):
        mgr, cache, sc, sb, stats = self._setup(k=3)
        dm = self._dm(sb)
        entry = CacheEntry(key("a"), 100.0, dm.nbytes)
        mgr.cache_rdd(entry, dm)
        for _ in range(3):
            mgr.reuse_rdd(entry)
        assert stats.get("spark/async_materializations") == 1
        assert entry.rdd_materialized

    def test_lazy_gc_destroys_upstream_broadcasts(self):
        mgr, cache, sc, sb, stats = self._setup()
        base = self._dm(sb)
        bc = sb.broadcast(MatrixValue(np.ones((4, 2))))
        mapped = sb.mapmm(base, bc, 2)
        entry = CacheEntry(key("mm"), 100.0, mapped.nbytes)
        mgr.cache_rdd(entry, mapped)
        sc.collect(mapped.rdd)  # materialize
        mgr.reuse_rdd(entry)
        assert bc.destroyed
        assert stats.get("spark/dangling_cleaned") >= 1

    def test_eviction_on_budget_overflow(self):
        # budget = 400_000 * 0.6 * 0.5 * 0.8 = 96_000 bytes
        mgr, cache, sc, sb, stats = self._setup()
        entries = []
        for i in range(8):
            dm = self._dm(sb, rows=2000, cols=4, seed=i)  # 64_000 bytes each
            entry = cache.put(key(str(i)), dm, BACKEND_SP, dm.nbytes, 10.0)
            assert entry is not None
            mgr.cache_rdd(entry, dm)
            entries.append(entry)
        assert mgr.sp_bytes <= mgr.budget
        assert stats.get("spark/rdds_unpersisted") >= 1

    def test_make_space_rejects_oversized(self):
        mgr, cache, sc, sb, stats = self._setup()
        assert not mgr.make_space(mgr.budget + 1)

    def test_evicted_entry_loses_sp_payload(self):
        mgr, cache, sc, sb, stats = self._setup()
        dm = self._dm(sb)
        entry = cache.put(key("a"), dm, BACKEND_SP, dm.nbytes, 10.0)
        mgr.cache_rdd(entry, dm)
        mgr.evict(entry)
        assert BACKEND_SP not in entry.payloads
        assert not dm.rdd.is_persisted
        assert mgr.sp_bytes == 0
        mgr.audit()

    def test_ledger_releases_exactly_what_it_charged(self):
        """A re-put re-charges instead of double-charging, an entry
        this manager never persisted is not its victim, and an evicted
        entry gives back its own charge whatever ``entry.size`` says."""
        mgr, cache, sc, sb, stats = self._setup()
        small, large = self._dm(sb, rows=100), self._dm(sb, rows=300)
        entry = cache.put(key("a"), small, BACKEND_SP, small.nbytes, 10.0)
        assert mgr.cache_rdd(entry, small)
        entry = cache.put(key("a"), large, BACKEND_SP, large.nbytes, 10.0)
        assert mgr.cache_rdd(entry, large)
        assert mgr.sp_bytes == large.nbytes
        foreign = cache.put(key("b"), small, BACKEND_SP, small.nbytes, 1.0)
        assert mgr._candidates() == [entry]  # ``foreign`` was never charged
        mgr.audit()
        entry.size *= 2  # e.g. a larger copy on another backend
        mgr.evict(entry)
        assert mgr.sp_bytes == 0
        mgr.audit()


class TestGpuInvalidation:
    def test_invalidate_drops_gpu_payload(self):
        cache = make_cache()

        class FakeData:
            ptr = GpuPointer(7, 0, 1024)

        data = FakeData()
        entry = cache.put(key("g"), data, "GPU", 1024, 5.0)
        assert entry is not None
        cache.on_gpu_invalidate(data.ptr)
        assert "GPU" not in entry.payloads
        assert entry.status is EntryStatus.EVICTED

    def test_remove_and_clear_give_the_pointer_back(self):
        class FakeData:
            def __init__(self, ptr_id):
                self.ptr = GpuPointer(ptr_id, 0, 1024)

        cache = make_cache()
        removed, cleared = FakeData(7), FakeData(8)
        cache.put(key("g"), removed, "GPU", 1024, 5.0)
        cache.put(key("h"), cleared, "GPU", 1024, 5.0)
        assert removed.ptr.cached and cleared.ptr.cached
        cache.remove(key("g"))
        assert not removed.ptr.cached and 7 not in cache._gpu_index
        cache.clear()
        assert not cleared.ptr.cached and not cache._gpu_index
