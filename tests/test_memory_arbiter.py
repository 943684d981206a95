"""Tests for the unified memory-arbitration substrate (repro.memory).

Covers the region ledgers and the reservation protocol, victim
selection through ``core/policies.py``, the spill-vs-drop decision,
delayed-caching admission, and the holistic behaviours that only exist
because the four managers share one arbiter: GPU eviction consulting driver-cache residency before paying a
D2H transfer, and spill/restore ledger moves surviving hard
invalidation.
"""

from types import SimpleNamespace

import pytest

from repro.backends.gpu import (
    GpuDevice,
    GpuMemoryManager,
    GpuStream,
    MODE_MEMPHIS,
)
from repro.common.config import CacheConfig, EvictionPolicyName, GpuConfig
from repro.common.simclock import DEVICE, SimClock
from repro.common.stats import (
    CACHE_DELAYED,
    CACHE_RESTORES,
    CACHE_SPILLS,
    GPU_EVICT_D2H,
    MEM_D2H_AVOIDED,
    MEM_RESERVE_FAILURES,
    MEM_RESERVES,
    Stats,
)
from repro.core.cache import BACKEND_DISK, LineageCache
from repro.core.entry import BACKEND_CP, BACKEND_GPU, EntryStatus
from repro.core.policies import LruPolicy
from repro.lineage.item import LineageItem, dataset
from repro.memory import (
    REGION_CP,
    REGION_DISK,
    REGION_GPU,
    MemoryArbiter,
    MemoryRegion,
)
from repro.runtime.values import MatrixValue

import numpy as np


def key(tag: str) -> LineageItem:
    return LineageItem("exp", (tag,), (dataset("X"),))


def value(cells=100):
    return MatrixValue(np.ones((cells, 1)))


# -- MemoryRegion ledgers -----------------------------------------------------


class TestMemoryRegion:
    def test_two_phase_reserve_commit(self):
        region = MemoryRegion("R", 1000)
        region.reserve(300)
        assert (region.used, region.reserved, region.free) == (0, 300, 700)
        region.commit(300)
        assert (region.used, region.reserved, region.free) == (300, 0, 700)
        region.release(300)
        assert region.free == 1000
        region.check()

    def test_cancel_drops_reservation(self):
        region = MemoryRegion("R", 1000)
        region.reserve(400)
        region.cancel(400)
        assert (region.used, region.reserved) == (0, 0)
        region.check()

    def test_acquire_is_one_shot(self):
        region = MemoryRegion("R", 1000)
        region.acquire(250)
        assert (region.used, region.reserved) == (250, 0)
        assert region.peak_used == 250
        region.check()

    def test_peak_tracks_high_water(self):
        region = MemoryRegion("R", 1000)
        region.acquire(600)
        region.release(600)
        region.acquire(100)
        assert region.peak_used == 600

    def test_pin_unpin(self):
        region = MemoryRegion("R", 1000)
        region.acquire(500)
        region.pin(500)
        assert region.pinned == 500
        region.unpin(500)
        assert region.pinned == 0
        region.check()

    def test_fits_and_unlimited(self):
        region = MemoryRegion("R", 100)
        assert region.fits(100)
        region.acquire(60)
        assert not region.fits(41)
        unlimited = MemoryRegion("U", 100, unlimited=True)
        assert unlimited.fits(10**9)

    def test_reset_keeps_capacity(self):
        region = MemoryRegion("R", 1000, policy=LruPolicy())
        region.acquire(700)
        region.pin(100)
        region.reset()
        assert (region.used, region.reserved, region.pinned) == (0, 0, 0)
        assert region.capacity == 1000
        assert region.policy is not None

    def test_snapshot_fields(self):
        region = MemoryRegion("R", 1000, policy=LruPolicy())
        region.acquire(100)
        snap = region.snapshot()
        assert snap["region"] == "R"
        assert snap["used"] == 100
        assert snap["policy"] == "lru"


# -- reservation protocol -----------------------------------------------------


class TestArbiterReservation:
    def test_duplicate_region_rejected(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100)
        with pytest.raises(ValueError):
            arb.add_region("R", 200)

    def test_reserve_commit_release(self):
        stats = Stats()
        arb = MemoryArbiter(stats)
        region = arb.add_region("R", 1000)
        assert arb.reserve("R", 400)
        region.commit(400)
        assert region.used == 400
        region.release(400)
        assert region.used == 0
        assert stats.get(MEM_RESERVES) == 1

    def test_oversized_request_fails(self):
        stats = Stats()
        arb = MemoryArbiter(stats)
        arb.add_region("R", 100)
        assert not arb.reserve("R", 101)
        assert stats.get(MEM_RESERVE_FAILURES) == 1

    def test_reserve_evicts_lowest_score_first(self):
        arb = MemoryArbiter()
        region = arb.add_region("R", 1000, policy=LruPolicy())
        live = [SimpleNamespace(last_access=t, size=250) for t in (3, 1, 2)]
        for item in live:
            region.acquire(item.size)
        evicted = []

        def evict(victim):
            evicted.append(victim.last_access)
            live.remove(victim)
            region.release(victim.size)

        assert arb.reserve("R", 600, candidates=lambda: live, evict=evict)
        # LRU evicts the two oldest stamps, in order
        assert evicted == [1, 2]
        region.cancel(600)
        region.check()

    def test_reserve_fails_without_candidates(self):
        stats = Stats()
        arb = MemoryArbiter(stats)
        arb.add_region("R", 100)
        arb.region("R").acquire(100)
        assert not arb.reserve("R", 50)
        assert stats.get(MEM_RESERVE_FAILURES) == 1

    def test_non_releasing_evict_terminates(self):
        # an eviction callback that frees nothing must fail the
        # reservation instead of spinning on the same victim forever
        stats = Stats()
        arb = MemoryArbiter(stats)
        arb.add_region("R", 100, policy=LruPolicy())
        arb.region("R").acquire(100)
        stuck = [SimpleNamespace(last_access=1, size=100)]
        assert not arb.reserve("R", 50, candidates=lambda: stuck,
                               evict=lambda v: None)
        assert stats.get(MEM_RESERVE_FAILURES) == 1

    def test_ensure_space_leaves_no_reservation(self):
        arb = MemoryArbiter()
        arb.add_region("R", 1000)
        assert arb.ensure_space("R", 700)
        region = arb.region("R")
        assert (region.used, region.reserved) == (0, 0)

    def test_unlimited_region_overcommits(self):
        arb = MemoryArbiter()
        region = arb.add_region("R", 10, unlimited=True)
        assert arb.reserve("R", 10**6)
        region.commit(10**6)
        assert region.used == 10**6


# -- victim selection ---------------------------------------------------------


class TestVictimSelection:
    def test_empty_candidates(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100, policy=LruPolicy())
        assert arb.select_victim("R", []) is None

    def test_policy_orders_victims(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100, policy_name=EvictionPolicyName.LRU)
        items = [SimpleNamespace(last_access=t) for t in (5, 2, 9)]
        assert arb.select_victim("R", items).last_access == 2

    def test_score_override_wins(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100, policy=LruPolicy())
        items = [SimpleNamespace(last_access=t) for t in (1, 2, 3)]
        victim = arb.select_victim("R", items,
                                   score=lambda e: -e.last_access)
        assert victim.last_access == 3

    def test_no_policy_returns_first(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100)
        items = [SimpleNamespace(last_access=t) for t in (7, 1)]
        assert arb.select_victim("R", items).last_access == 7

    def test_first_minimum_wins_ties(self):
        arb = MemoryArbiter()
        arb.add_region("R", 100, policy=LruPolicy())
        a = SimpleNamespace(last_access=1)
        b = SimpleNamespace(last_access=1)
        assert arb.select_victim("R", [a, b]) is a


# -- admission (delayed caching) ----------------------------------------------


class TestAdmission:
    def test_admit_threshold(self):
        """The per-put delay factor admits on exactly the n-th put."""
        stats = Stats()
        cache = LineageCache(CacheConfig(driver_cache_bytes=10_000), stats)
        for seen in (1, 2):
            assert cache.put(key("a"), value(), BACKEND_CP, 800, 1.0,
                             delay_factor=3) is None
            assert stats.get(CACHE_DELAYED) == seen
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0,
                          delay_factor=3)
        assert entry is not None and entry.seen_count == 3
        assert stats.get(CACHE_DELAYED) == 2

    def test_delayed_caching_through_cache(self):
        stats = Stats()
        cfg = CacheConfig(driver_cache_bytes=10_000, delay_factor=2)
        cache = LineageCache(cfg, stats)
        assert cache.put(key("a"), value(), BACKEND_CP, 800, 1.0) is None
        assert stats.get(CACHE_DELAYED) == 1
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        assert entry is not None and entry.is_cached


# -- spill-vs-drop decision ---------------------------------------------------


class TestSpillDecision:
    def _arbiter(self, disk_capacity=10_000):
        arb = MemoryArbiter()
        arb.add_region("R", 1000)
        arb.add_region("D", disk_capacity)
        arb.configure_spill("R", enabled=True, disk_region="D",
                            bytes_per_s=1024**3, flops_per_s=1.5e12)
        return arb

    def test_unconfigured_region_never_spills(self):
        arb = MemoryArbiter()
        arb.add_region("R", 1000)
        assert not arb.should_spill("R", 800, 1e12)

    def test_breakeven(self):
        arb = self._arbiter()
        # recompute time (cost/flops) must exceed 2*size/bandwidth
        assert arb.should_spill("R", 800, compute_cost=1e9)
        assert not arb.should_spill("R", 800, compute_cost=1.0)

    def test_full_disk_blocks_spill(self):
        arb = self._arbiter(disk_capacity=500)
        assert not arb.should_spill("R", 800, compute_cost=1e9)


# -- residency probes + holistic GPU eviction ---------------------------------


def gpu_with_cache(capacity=64 * 1024):
    """A GPU manager and a driver cache sharing one arbiter (as wired
    by the session)."""
    clock, stats = SimClock(), Stats()
    arbiter = MemoryArbiter(stats)
    cache = LineageCache(CacheConfig(driver_cache_bytes=100_000), stats,
                         arbiter=arbiter)
    cfg = GpuConfig(device_memory=capacity, alignment=512)
    device = GpuDevice(cfg)
    stream = GpuStream(cfg, clock, stats)
    mgr = GpuMemoryManager(device, stream, clock, stats, MODE_MEMPHIS,
                           on_invalidate=cache.on_gpu_invalidate,
                           arbiter=arbiter)
    return mgr, cache, stats


class TestHolisticGpuEviction:
    """GPU D2H eviction consults driver-cache residency via the arbiter.

    These tests fail on the pre-refactor silos: without the shared
    arbiter the GPU manager cannot know a host copy exists and always
    pays the device-to-host transfer.
    """

    def test_resident_elsewhere_probes_other_regions(self):
        arb = MemoryArbiter()
        arb.add_region("A", 100)
        arb.add_region("B", 100)
        arb.register_residency("A", lambda token: token == "x")
        assert arb.resident_elsewhere("x")
        assert not arb.resident_elsewhere("y")
        assert not arb.resident_elsewhere("x", exclude=("A",))

    def test_d2h_skipped_when_host_copy_exists(self):
        mgr, cache, stats = gpu_with_cache()
        k = key("a")
        cache.put(k, value(), BACKEND_CP, 800, 1.0)
        ptr = mgr.allocate(1024)
        cache.put(k, SimpleNamespace(ptr=ptr), BACKEND_GPU, 1024, 1.0)
        assert ptr.cached
        mgr.release(ptr)  # refcount 0: pointer parks on the Free list
        mgr.evict_to_host(ptr)
        assert stats.get(MEM_D2H_AVOIDED) == 1
        assert stats.get(GPU_EVICT_D2H) == 0
        assert stats.get("gpu/d2h_copies") == 0
        entry = cache.get_entry(k)
        # the GPU copy is invalidated, the host copy survives the probe
        assert BACKEND_GPU not in entry.payloads
        assert BACKEND_CP in entry.payloads
        assert cache.probe(k) is entry

    def test_d2h_paid_without_host_copy(self):
        mgr, cache, stats = gpu_with_cache()
        ptr = mgr.allocate(1024)
        cache.put(key("a"), SimpleNamespace(ptr=ptr), BACKEND_GPU,
                  1024, 1.0)
        mgr.release(ptr)
        mgr.evict_to_host(ptr)
        assert stats.get(GPU_EVICT_D2H) == 1
        assert stats.get("gpu/d2h_copies") == 1
        assert stats.get(MEM_D2H_AVOIDED) == 0

    def test_gpu_region_mirrors_device_ledger(self):
        mgr, cache, stats = gpu_with_cache()
        region = mgr.arbiter.region(REGION_GPU)
        a = mgr.allocate(1000)  # aligned to 1024
        b = mgr.allocate(2048)
        assert region.used == mgr.device.used_bytes
        mgr.release(a)
        mgr.release(b)
        mgr.empty_cache(1.0)  # destroys pooled pointers -> cudaFree
        assert region.used == mgr.device.used_bytes == 0
        region.check()


# -- GPU victim order: Eq. 2 regression ---------------------------------------


def eq2_reference(ptr, now, max_cost):
    """The pre-refactor inline scoring math, kept verbatim as oracle."""
    t_a = ptr.last_access / max(now, 1e-9)
    height_term = 1.0 / max(ptr.lineage_height, 1)
    cost_term = ptr.compute_cost / max(max_cost, 1e-9)
    return t_a + height_term + cost_term


def pooled_manager(sizes):
    """A manager whose Free list holds released pointers of ``sizes``."""
    clock, stats = SimClock(), Stats()
    cfg = GpuConfig(device_memory=256 * 1024, alignment=512)
    device = GpuDevice(cfg)
    stream = GpuStream(cfg, clock, stats)
    mgr = GpuMemoryManager(device, stream, clock, stats, MODE_MEMPHIS)
    ptrs = [mgr.allocate(size) for size in sizes]
    for ptr in ptrs:
        mgr.release(ptr)
    return mgr, ptrs


class TestGpuVictimOrderRegression:
    def test_pop_victim_matches_inline_eq2(self):
        mgr, ptrs = pooled_manager([1024] * 5)
        for ptr, (t, h, c) in zip(ptrs, [
            (5.0, 1, 10.0), (1.0, 4, 50.0), (3.0, 2, 20.0),
            (2.0, 5, 40.0), (4.0, 3, 30.0),
        ]):
            ptr.last_access, ptr.lineage_height, ptr.compute_cost = t, h, c
            ptr.refile()
        now = mgr.clock.now(DEVICE)
        remaining = mgr.free.pointers()
        expected = []
        while remaining:
            max_cost = max(p.compute_cost for p in remaining)
            victim = min(remaining,
                         key=lambda p: eq2_reference(p, now, max_cost))
            expected.append(victim.id)
            remaining.remove(victim)
        actual = []
        while mgr.free.pools:
            mgr.audit()
            actual.append(mgr._pop_victim(1024).id)
        assert actual == expected

    def test_global_victim_matches_inline_eq2(self):
        mgr, ptrs = pooled_manager([512, 1024, 2048, 4096])
        for ptr, (t, h, c) in zip(ptrs, [
            (4.0, 1, 5.0), (1.0, 3, 80.0), (2.0, 2, 10.0), (3.0, 4, 40.0),
        ]):
            ptr.last_access, ptr.lineage_height, ptr.compute_cost = t, h, c
            ptr.refile()
        now = mgr.clock.now(DEVICE)
        pool = mgr.free.pointers()
        max_cost = max(p.compute_cost for p in pool)
        expected = min(pool, key=lambda p: eq2_reference(p, now, max_cost))
        assert mgr._global_victim() is expected

    def test_policy_override_changes_victim_order(self):
        clock, stats = SimClock(), Stats()
        cfg = GpuConfig(device_memory=256 * 1024, alignment=512,
                        policy=EvictionPolicyName.LRU)
        device = GpuDevice(cfg)
        stream = GpuStream(cfg, clock, stats)
        mgr = GpuMemoryManager(device, stream, clock, stats, MODE_MEMPHIS)
        assert isinstance(mgr.policy, LruPolicy)
        ptrs = [mgr.allocate(1024) for _ in range(3)]
        for ptr in ptrs:
            mgr.release(ptr)
        stamps = [9.0, 2.0, 5.0]
        for ptr, stamp in zip(ptrs, stamps):
            ptr.last_access = stamp
            ptr.refile()
        # LRU ignores height/cost: the oldest stamp goes first
        assert mgr._global_victim() is ptrs[1]

    def test_no_scoring_math_outside_policies(self):
        # the acceptance criterion made executable: Eq. 1 / Eq. 2
        # scoring terms appear only in core/policies.py
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in root.rglob("*.py"):
            if path.name == "policies.py":
                continue
            text = path.read_text()
            if "lineage_height, 1)" in text or "compute_cost / max(" in text:
                offenders.append(str(path))
        assert not offenders, offenders


# -- spill / restore / invalidate ledger moves --------------------------------


class TestSpillRestoreLedgers:
    def _cache(self):
        stats = Stats()
        cfg = CacheConfig(driver_cache_bytes=2000, disk_cache_bytes=10_000)
        return LineageCache(cfg, stats, clock=SimClock()), stats

    def test_spill_moves_bytes_cp_to_disk(self):
        cache, stats = self._cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1e9)
        assert cache.cp_bytes == 800
        cache.evict_cp(entry)
        assert entry.status is EntryStatus.SPILLED
        assert BACKEND_DISK in entry.payloads
        assert (cache.cp_bytes, cache.disk_bytes) == (0, 800)
        assert stats.get(CACHE_SPILLS) == 1
        for region in cache.arbiter.regions():
            region.check()

    def test_probe_restores_spilled_entry(self):
        cache, stats = self._cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1e9)
        cache.evict_cp(entry)
        hit = cache.probe(key("a"))
        assert hit is entry and entry.is_cached
        assert (cache.cp_bytes, cache.disk_bytes) == (800, 0)
        assert stats.get(CACHE_RESTORES) == 1

    def test_cheap_entry_dropped_not_spilled(self):
        cache, stats = self._cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1.0)
        cache.evict_cp(entry)
        assert BACKEND_DISK not in entry.payloads
        assert cache.disk_bytes == 0

    def test_invalidate_releases_spilled_bytes(self):
        cache, stats = self._cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1e9)
        cache.evict_cp(entry)
        dropped = cache.invalidate_entry(entry)
        assert dropped == [BACKEND_DISK]
        assert entry.status is EntryStatus.EVICTED
        assert (cache.cp_bytes, cache.disk_bytes) == (0, 0)
        assert cache.probe(key("a")) is None
        for region in cache.arbiter.regions():
            region.check()

    def test_respill_after_invalidate_and_recompute(self):
        # lose the entry outright, recompute it, spill it again: the
        # ledgers must track the full round trip without drift
        cache, stats = self._cache()
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1e9)
        cache.evict_cp(entry)
        cache.invalidate_entry(entry)
        entry = cache.put(key("a"), value(), BACKEND_CP, 800, 1e9)
        assert entry is not None and entry.is_cached
        cache.evict_cp(entry)
        assert (cache.cp_bytes, cache.disk_bytes) == (0, 800)
        assert cache.probe(key("a")) is entry
        assert (cache.cp_bytes, cache.disk_bytes) == (800, 0)
        for region in cache.arbiter.regions():
            region.check()


# -- snapshots ----------------------------------------------------------------


class TestSnapshots:
    def test_arbiter_snapshot_covers_all_regions(self):
        cache = LineageCache(CacheConfig(driver_cache_bytes=2000), Stats())
        names = {snap["region"] for snap in cache.arbiter.snapshot()}
        assert names == {REGION_CP, REGION_DISK}
