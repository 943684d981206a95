"""Tests for disk spilling of evicted driver-cache entries (§3.3)."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import CacheConfig
from repro.common.simclock import SimClock
from repro.common.stats import Stats
from repro.core.cache import BACKEND_DISK, LineageCache
from repro.core.entry import BACKEND_CP, EntryStatus
from repro.lineage.item import LineageInterner, LineageItem
from repro.runtime.values import MatrixValue


@pytest.fixture(autouse=True)
def _fresh_interner():
    """The cache keys on canonical items: each test takes its keys from
    one interner."""
    global _interner
    _interner = LineageInterner()


def key(tag: str) -> LineageItem:
    return _interner.intern("exp", (tag,), (_interner.dataset("X"),))


def make_cache(budget=2000, spill=True, disk_budget=100_000):
    cfg = CacheConfig(driver_cache_bytes=budget, spill_to_disk=spill,
                      disk_cache_bytes=disk_budget)
    clock = SimClock()
    cache = LineageCache(cfg, Stats(), clock=clock,
                         disk_bytes_per_s=1e9, flops_per_s=1e12)
    return cache, clock


def value():
    return MatrixValue(np.ones((100, 1)))


class TestDiskSpill:
    def test_expensive_entry_spills_and_restores(self):
        cache, clock = make_cache()
        expensive = cache.put(key("a"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("c"), value(), BACKEND_CP, 900, 1e12)  # evicts one
        spilled = [e for e in cache.entries()
                   if e.status is EntryStatus.SPILLED]
        assert spilled, "an expensive entry must spill, not drop"
        assert cache.stats.get("cache/disk_spills") >= 1
        # probing the spilled key restores it (a hit, with disk read cost)
        t0 = clock.now()
        entry = cache.probe(spilled[0].key)
        assert entry is not None and entry.is_cached
        assert clock.now() > t0
        assert cache.stats.get("cache/disk_restores") == 1

    def test_cheap_entry_dropped_not_spilled(self):
        cache, _ = make_cache()
        cache.put(key("a"), value(), BACKEND_CP, 900, 1.0)  # trivial cost
        cache.put(key("b"), value(), BACKEND_CP, 900, 1.0)
        cache.put(key("c"), value(), BACKEND_CP, 900, 1.0)
        assert cache.stats.get("cache/disk_spills") == 0
        assert cache.stats.get("cache/evictions") >= 1

    def test_spill_disabled_by_config(self):
        cache, _ = make_cache(spill=False)
        cache.put(key("a"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("c"), value(), BACKEND_CP, 900, 1e12)
        assert cache.stats.get("cache/disk_spills") == 0

    def test_disk_budget_respected(self):
        cache, _ = make_cache(disk_budget=1000)
        for i in range(5):
            cache.put(key(str(i)), value(), BACKEND_CP, 900, 1e12)
        assert cache.disk_bytes <= 1000

    def test_spill_accounting(self):
        cache, _ = make_cache()
        cache.put(key("a"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("c"), value(), BACKEND_CP, 900, 1e12)
        assert cache.cp_bytes <= 2000
        assert cache.disk_bytes > 0
        total_disk = sum(
            e.size for e in cache.entries()
            if BACKEND_DISK in e.payloads
        )
        assert cache.disk_bytes == total_disk

    def test_restore_value_identical(self):
        cache, _ = make_cache()
        original = value()
        cache.put(key("a"), original, BACKEND_CP, 900, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 900, 1e12)
        cache.put(key("c"), value(), BACKEND_CP, 900, 1e12)
        spilled = [e for e in cache.entries()
                   if e.status is EntryStatus.SPILLED]
        entry = cache.probe(spilled[0].key)
        assert entry.get_payload(BACKEND_CP) is not None


class TestDiskLedger:
    """``REGION_DISK`` is charged exactly the spilled entries' bytes."""

    def spill_one(self):
        cache, _ = make_cache(budget=1000)
        cache.put(key("a"), value(), BACKEND_CP, 800, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 800, 1e12)  # spills a
        assert (cache.cp_bytes, cache.disk_bytes) == (800, 800)
        return cache

    def test_clear_resets_the_disk_ledger(self):
        cache = self.spill_one()
        cache.clear()
        assert (len(cache), cache.cp_bytes, cache.disk_bytes) == (0, 0, 0)
        cache.put(key("a"), value(), BACKEND_CP, 800, 1e12)
        cache.put(key("b"), value(), BACKEND_CP, 800, 1e12)
        assert cache.disk_bytes == 800  # not 1600: nothing leaked
        cache.audit()

    def test_remove_releases_a_spilled_entrys_disk_bytes(self):
        cache = self.spill_one()
        spilled = cache.get_entry(key("a"))
        assert spilled.status is EntryStatus.SPILLED
        cache.remove(key("a"))
        assert cache.disk_bytes == 0
        cache.audit()

    def test_put_over_a_spilled_entry_supersedes_the_disk_copy(self):
        cache = self.spill_one()
        # a put that did not come through a restoring probe: the entry
        # is CACHED again, so its disk copy is unreachable — drop it
        # rather than leave its bytes (at a since-grown ``size``) charged
        entry = cache.put(key("a"), object(), "SP", 1200, 1e12)
        assert entry.is_cached and BACKEND_DISK not in entry.payloads
        assert cache.disk_bytes == 0
        cache.audit()


class TestSpillEndToEnd:
    def test_session_spills_under_pressure_and_reuses(self):
        cfg = MemphisConfig.memphis()
        cfg.cache.driver_cache_bytes = 100_000  # tiny driver cache
        cfg.cpu.operation_memory_bytes = 64 * 1024 * 1024  # keep ops local
        sess = Session(cfg)
        rng = np.random.default_rng(4)
        # tall input: t(X) %*% X is expensive to recompute relative to
        # its (small) output, making it a spill candidate
        X = sess.read(rng.random((20_000, 50)), "X")
        # eight *distinct* expensive gram matrices overflow the cache
        for i in range(8):
            Xi = X + float(i)
            (Xi.t() @ Xi).sum().compute()
        # repeated runs reuse results, some via disk restore
        for i in range(8):
            Xi = X + float(i)
            (Xi.t() @ Xi).sum().compute()
        assert sess.stats.get("cache/disk_spills") > 0
        assert sess.stats.get("cache/disk_restores") > 0
        assert sess.stats.get("cache/hits") > 0
