"""Stateful property-based tests of the memory managers' invariants."""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backends.gpu import (
    GpuDevice,
    GpuMemoryManager,
    GpuPointer,
    GpuStream,
    MODE_MEMPHIS,
)
from repro.backends.gpu.freelist import FreeList
from repro.backends.spark import BlockManager
from repro.common.config import (
    CacheConfig,
    EvictionPolicyName,
    GpuConfig,
    MemphisConfig,
    SparkConfig,
    StorageLevel,
)
from repro.common.errors import GpuOutOfMemoryError
from repro.common.simclock import DEVICE, SimClock
from repro.common.stats import Stats
from repro.core.cache import BACKEND_DISK, LineageCache
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.core.policies import make_policy
from repro.core.substrate import Substrate
from repro.lineage.item import LineageInterner, LineageItem
from repro.memory import MemoryArbiter
from repro.runtime.values import MatrixValue


class GpuAllocatorMachine(RuleBasedStateMachine):
    """Random allocate/release/reuse/evict sequences preserve invariants:

    * ``GpuMemoryManager.audit()``: the Free list's victim is the full
      scan's for every scope a query has (uncached of one size, one
      size, all), and no pointer missed a re-file;
    * the Free list's order is the order of the size -> list dict it
      replaces, replayed here as a model;
    * device accounting is exact (used + holes == capacity);
    * live and free pointer sets are disjoint;
    * freed pointers never appear in either list;
    * pooled byte accounting matches the free lists.

    Allocation runs under pressure (Algorithm 1 steps 1-3 fire, and a
    request they cannot serve raises ``GpuOutOfMemoryError``), fresh
    pointers get a lineage height and cost as ``GpuBackend.execute``
    gives them, ``cached`` flips through the lineage cache's own paths,
    the device clock advances between touches, and ``tie`` forges
    exact-score ties within a class and across sizes.
    """

    POLICY = EvictionPolicyName.COST_SIZE
    SIZES = st.one_of(st.sampled_from([512, 1024, 2048]),
                      st.integers(min_value=1, max_value=32 * 1024))
    HEIGHTS = st.sampled_from([1, 5])
    COSTS = st.sampled_from([0.0, 1e3])
    TAGS = st.integers(min_value=0, max_value=5)

    def __init__(self):
        super().__init__()
        cfg = GpuConfig(device_memory=64 * 1024, alignment=512,
                        policy=self.POLICY)
        clock, stats = SimClock(), Stats()
        arbiter = MemoryArbiter(stats)
        self.cache = LineageCache(CacheConfig(), stats, arbiter=arbiter)
        self.interner = LineageInterner()
        self.mgr = GpuMemoryManager(
            GpuDevice(cfg), GpuStream(cfg, clock, stats), clock, stats,
            MODE_MEMPHIS, on_invalidate=self.cache.on_gpu_invalidate,
            arbiter=arbiter)
        self.live = []
        #: the size -> release-ordered list dict the Free list replaced
        self.model: dict[int, list] = {}

    def key(self, tag) -> LineageItem:
        interner = self.interner
        return interner.intern("exp", (str(tag),), (interner.dataset("X"),))

    def pointers(self):
        return self.live + self.mgr.free.pointers()

    @rule(size=SIZES, height=HEIGHTS, cost=COSTS)
    def allocate(self, size, height, cost):
        try:
            ptr = self.mgr.allocate(size)
        except GpuOutOfMemoryError:
            return  # legal under pressure from live pointers
        ptr.lineage_height, ptr.compute_cost = height, cost
        self.live.append(ptr)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        idx = data.draw(st.integers(0, len(self.live) - 1))
        ptr = self.live.pop(idx)
        self.mgr.release(ptr)

    @precondition(lambda self: self.mgr.free.pools)
    @rule(data=st.data())
    def reuse_from_free(self, data):
        ptr = data.draw(st.sampled_from(self.mgr.free.pointers()))
        revived = self.mgr.reuse_from_free(ptr)
        self.live.append(revived)

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def empty_cache(self, fraction):
        self.mgr.empty_cache(fraction)

    @rule(data=st.data(), dt=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]))
    def advance_and_touch(self, data, dt):
        self.mgr.clock.advance(dt, DEVICE)
        pointers = self.pointers()
        if pointers:
            self.mgr.touch(data.draw(st.sampled_from(pointers)))

    @rule(data=st.data(), tag=TAGS, cost=COSTS)
    def cache_put(self, data, tag, cost):
        pointers = self.pointers()
        if pointers:
            ptr = data.draw(st.sampled_from(pointers))
            self.cache.put(self.key(tag), _GpuPayload(ptr, self.mgr.free),
                           BACKEND_GPU, ptr.size, cost)

    @rule(tag=TAGS, how=st.sampled_from(["remove", "invalidate", "clear"]))
    def cache_forget(self, tag, how):
        # each path reaches LineageCache._forget_gpu_pointer
        if how == "clear":
            self.cache.clear()
        elif how == "remove":
            self.cache.remove(self.key(tag))
        elif self.cache.get_entry(self.key(tag)) is not None:
            self.cache.invalidate_entry(self.cache.get_entry(self.key(tag)))

    @precondition(lambda self: self.mgr.free.pools)
    @rule(data=st.data(),
          how=st.sampled_from(["same", "next_float", "future"]))
    def tie(self, data, how):
        """Give a free pointer another's class and (nearly) its recency:
        equal ``last_access``, the next float up (equal Eq. 2 score,
        distinct stamps), or a stamp past ``now`` (MRD's clamp)."""
        free = self.mgr.free.pointers()
        a = data.draw(st.sampled_from(free))
        same_size = [p for p in free if p.size == a.size and p is not a]
        b = data.draw(st.sampled_from(same_size or free))
        now = self.mgr.clock.now(DEVICE)
        b.last_access = {"same": a.last_access,
                         "next_float": math.nextafter(a.last_access, math.inf),
                         "future": now + 1.0}[how]
        b.lineage_height, b.compute_cost = a.lineage_height, a.compute_cost
        self.mgr.free.refile(b)

    @invariant()
    def audit_holds(self):
        self.mgr.audit()

    @invariant()
    def free_list_order_matches_model(self):
        free = self.mgr.free.pointers()
        listed = set(map(id, free))
        for size in list(self.model):
            self.model[size] = [p for p in self.model[size]
                                if id(p) in listed]
            if not self.model[size]:
                del self.model[size]
        modelled = {id(p) for queue in self.model.values() for p in queue}
        arrived = [p for p in free if id(p) not in modelled]
        assert len(arrived) <= 1, "one rule released several pointers"
        for p in arrived:
            self.model.setdefault(p.size, []).append(p)
        assert free == [p for queue in self.model.values() for p in queue]

    @invariant()
    def device_accounting_exact(self):
        device = self.mgr.device
        holes = sum(size for _, size in device._free)
        assert device.used_bytes + holes == device.capacity

    @invariant()
    def live_and_free_disjoint(self):
        live_ids = {p.id for p in self.mgr.live.values()}
        free_ids = {p.id for p in self.mgr.free.pointers()}
        assert not (live_ids & free_ids)

    @invariant()
    def no_freed_pointers_tracked(self):
        for p in self.mgr.live.values():
            assert not p.freed
        for p in self.mgr.free.pointers():
            assert not p.freed

    @invariant()
    def pooled_bytes_match(self):
        actual = sum(p.size for p in self.mgr.free.pointers())
        assert self.mgr.free_bytes_pooled == actual

    @invariant()
    def free_queues_keyed_by_size(self):
        for size, pool in self.mgr.free.pools.items():
            assert all(rec[3].size == size for cls in pool.values()
                       for rec in cls.heap if rec[3].free_rec is rec[2])


def _gpu_machine(policy):
    machine = type(f"GpuAllocatorMachine_{policy.value}",
                   (GpuAllocatorMachine,), {"POLICY": policy})
    case = machine.TestCase
    case.settings = settings(max_examples=100, stateful_step_count=50,
                             deadline=None)
    return case


TestGpuAllocatorStateful = _gpu_machine(EvictionPolicyName.COST_SIZE)
TestGpuAllocatorStatefulLru = _gpu_machine(EvictionPolicyName.LRU)
TestGpuAllocatorStatefulLrc = _gpu_machine(EvictionPolicyName.LRC)
TestGpuAllocatorStatefulMrd = _gpu_machine(EvictionPolicyName.MRD)


class BlockManagerMachine(RuleBasedStateMachine):
    """Random partition caching never overflows the storage region,
    keeps the byte accounting exact, and never evicts: a partition that
    does not fit goes to disk or is not stored."""

    def __init__(self):
        super().__init__()
        cfg = SparkConfig(num_executors=1, executor_memory=120_000)
        self.bm = BlockManager(cfg, Stats())
        self.next_rdd = 1

    @rule(
        partitions=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=200),
        level=st.sampled_from([StorageLevel.MEMORY_ONLY,
                               StorageLevel.MEMORY_AND_DISK]),
    )
    def cache_rdd(self, partitions, rows, level):
        rdd_id = self.next_rdd
        self.next_rdd += 1
        for idx in range(partitions):
            resident = dict(self.bm._partitions)
            block = np.ones((rows, 4))
            fits = self.bm._region.fits(block.nbytes)
            stored = self.bm.put_partition(rdd_id, idx, block, level)
            assert stored == (fits or level is StorageLevel.MEMORY_AND_DISK)
            if stored:
                assert self.bm._partitions[rdd_id, idx].on_disk == (not fits)
            assert all(self.bm._partitions.get(k) is p
                       for k, p in resident.items())  # nothing evicted

    @rule(rdd_id=st.integers(min_value=1, max_value=30))
    def drop(self, rdd_id):
        self.bm.drop_rdd(rdd_id)

    @invariant()
    def never_over_capacity(self):
        assert self.bm.memory_used <= self.bm._region.capacity
        self.bm.arbiter.check()

    @rule()
    def lose_executor(self):
        self.bm.drop_executor(0, 1)

    @invariant()
    def accounting_matches_partitions(self):
        actual = sum(
            p.nbytes for p in self.bm._partitions.values() if not p.on_disk
        )
        assert self.bm.memory_used == actual

    @invariant()
    def rdd_index_matches_partitions(self):
        by_rdd = {}
        for rdd_id, index in self.bm._partitions:
            by_rdd.setdefault(rdd_id, set()).add(index)
        assert self.bm._by_rdd == by_rdd
        for rdd_id in range(1, self.next_rdd):
            parts = [p for (r, _), p in self.bm._partitions.items()
                     if r == rdd_id]
            info = self.bm.rdd_storage_info(rdd_id, 4)
            assert info["num_cached_partitions"] == len(parts)
            assert info["memory_bytes"] == sum(
                p.nbytes for p in parts if not p.on_disk)
            assert info["disk_bytes"] == sum(
                p.nbytes for p in parts if p.on_disk)


TestBlockManagerStateful = BlockManagerMachine.TestCase
TestBlockManagerStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class _Chunk:
    """Model of one committed allocation in the ledger machine."""

    __slots__ = ("size", "last_access")

    def __init__(self, size, last_access):
        self.size = size
        self.last_access = last_access


class RegionLedgerMachine(RuleBasedStateMachine):
    """Random reserve/commit/cancel/acquire/release/evict sequences
    through the arbiter preserve the region ledger invariants:

    * ``used + reserved + free == capacity`` (``MemoryRegion.check``);
    * used/reserved exactly match the model's outstanding chunks;
    * eviction fails only when the outstanding holds leave no room.
    """

    CAPACITY = 10_000

    def __init__(self):
        super().__init__()
        self.arb = MemoryArbiter(Stats())
        self.region = self.arb.add_region(
            "R", self.CAPACITY, policy=make_policy(EvictionPolicyName.LRU)
        )
        self.chunks = []
        self.holds = []
        self.ticks = 0

    @rule(size=st.integers(min_value=1, max_value=3000))
    def reserve(self, size):
        ok = self.arb.reserve("R", size)
        if ok:
            self.holds.append(size)
        else:
            used = self.region.used + self.region.reserved
            assert used + size > self.CAPACITY

    @precondition(lambda self: self.holds)
    @rule(data=st.data())
    def commit(self, data):
        size = self.holds.pop(data.draw(st.integers(0, len(self.holds) - 1)))
        self.region.commit(size)
        self.ticks += 1
        self.chunks.append(_Chunk(size, self.ticks))

    @precondition(lambda self: self.holds)
    @rule(data=st.data())
    def cancel(self, data):
        size = self.holds.pop(data.draw(st.integers(0, len(self.holds) - 1)))
        self.region.cancel(size)

    @rule(size=st.integers(min_value=1, max_value=3000))
    def acquire(self, size):
        if not self.region.fits(size):
            return
        self.region.acquire(size)
        self.ticks += 1
        self.chunks.append(_Chunk(size, self.ticks))

    @precondition(lambda self: self.chunks)
    @rule(data=st.data())
    def release(self, data):
        chunk = self.chunks[data.draw(st.integers(0, len(self.chunks) - 1))]
        self.chunks.remove(chunk)
        self.region.release(chunk.size)

    @rule(size=st.integers(min_value=1, max_value=3000))
    def reserve_by_eviction(self, size):
        """reserve with every committed chunk as a candidate."""

        def evict(victim):
            self.chunks.remove(victim)
            self.region.release(victim.size)

        ok = self.arb.reserve("R", size, candidates=lambda: self.chunks,
                              evict=evict, now=self.ticks)
        if ok:
            self.holds.append(size)
        else:
            assert self.region.reserved + size > self.CAPACITY

    @invariant()
    def ledger_invariants_hold(self):
        self.region.check()

    @invariant()
    def ledgers_match_model(self):
        assert self.region.used == sum(c.size for c in self.chunks)
        assert self.region.reserved == sum(self.holds)

    @invariant()
    def free_tiles_capacity(self):
        assert self.region.free == max(
            self.CAPACITY - self.region.used - self.region.reserved, 0
        )


TestRegionLedgerStateful = RegionLedgerMachine.TestCase
TestRegionLedgerStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


class _TenantChunk:
    """Model of one committed, tenant-attributed allocation."""

    __slots__ = ("size", "tenant")

    def __init__(self, size, tenant):
        self.size = size
        self.tenant = tenant


class TenantLedgerMachine(RuleBasedStateMachine):
    """Random tenant-attributed acquire/release/quota sequences keep the
    per-tenant sub-ledger exact (multi-tenant server, docs/SERVER.md):

    * ``MemoryRegion.check`` holds (every tenant usage >= 0, and the sum
      of tenant usage never exceeds the region's ``used``);
    * each tenant's usage matches the model's outstanding chunks;
    * quota headroom is consistent with quota and usage.
    """

    CAPACITY = 10_000
    TENANTS = ("alpha", "beta", "gamma")

    def __init__(self):
        super().__init__()
        self.arb = MemoryArbiter(Stats())
        self.region = self.arb.add_region("R", self.CAPACITY)
        self.chunks = []

    @rule(size=st.integers(min_value=1, max_value=2000),
          tenant=st.sampled_from(TENANTS))
    def acquire_for_tenant(self, size, tenant):
        if not self.region.fits(size):
            return
        self.region.acquire(size)
        self.region.charge_tenant(tenant, size)
        self.chunks.append(_TenantChunk(size, tenant))

    @precondition(lambda self: self.chunks)
    @rule(data=st.data())
    def release_chunk(self, data):
        chunk = self.chunks.pop(
            data.draw(st.integers(0, len(self.chunks) - 1)))
        self.region.release(chunk.size)
        self.region.charge_tenant(chunk.tenant, -chunk.size)

    @rule(tenant=st.sampled_from(TENANTS),
          quota=st.one_of(st.none(),
                          st.integers(min_value=0, max_value=12_000)))
    def set_quota(self, tenant, quota):
        self.region.set_quota(tenant, quota)

    @invariant()
    def ledger_invariants_hold(self):
        self.region.check()

    @invariant()
    def tenant_usage_matches_model(self):
        for tenant in self.TENANTS:
            expected = sum(
                c.size for c in self.chunks if c.tenant == tenant)
            assert self.region.tenant_usage(tenant) == expected

    @invariant()
    def headroom_consistent(self):
        for tenant in self.TENANTS:
            headroom = self.region.quota_headroom(tenant)
            quota = self.region.quota(tenant)
            if quota is None:
                assert headroom is None
            else:
                used = self.region.tenant_usage(tenant)
                # negative headroom = over quota (quota set below usage)
                assert headroom == quota - used
                assert self.region.over_quota(tenant) == (used > quota)


TestTenantLedgerStateful = TenantLedgerMachine.TestCase
TestTenantLedgerStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


class _GpuPayload:
    def __init__(self, ptr, free):
        self.ptr = ptr
        self.free = free


class LineageCacheMachine(RuleBasedStateMachine):
    """Random op sequences over a small shared lineage cache keep
    ``Substrate.audit()`` true: the CP / DISK / tenant ledgers
    equal what the entries charged, and the victim the index yields is
    the full scan's, for the active scope and every tenant's own view.

    Covers every way a score input or CP residency moves: probes, puts
    on three backends (re-puts grow ``size``), evictions with spill and
    restore, invalidation, the mutate-then-``touch`` sites outside the
    cache, scope switches between two quota'd tenants, ``remove``
    and ``clear``.
    """

    POLICY = EvictionPolicyName.COST_SIZE
    TAGS = st.integers(min_value=0, max_value=11)
    SIZES = st.sampled_from([200, 500, 800, 1200])
    #: below / above the spill break-even of an 800-byte payload
    COSTS = st.sampled_from([1.0, 1e3, 1e9])

    def __init__(self):
        super().__init__()
        cfg = MemphisConfig.memphis()
        cfg.cache = CacheConfig(driver_cache_bytes=4000, policy=self.POLICY,
                                disk_cache_bytes=3000)
        self.sub = Substrate.shared_substrate(cfg)
        self.cache = self.sub.cache
        self.scopes = [None]
        for tenant in ("alpha", "beta"):
            self.sub.set_quota(tenant, 2000)
            ctx = self.sub.attach(None, tenant)
            # same content under the same name: keys are shared globally
            self.sub.register_dataset(ctx, "X", np.ones((2, 2)))
            self.scopes.append(ctx)
        self.next_ptr = 1

    def key(self, tag) -> LineageItem:
        interner = self.sub.interner
        return interner.intern("exp", (str(tag),), (interner.dataset("X"),))

    def entry(self, tag):
        return self.cache.get_entry(self.key(tag))

    @rule(which=st.integers(min_value=0, max_value=2))
    def switch_scope(self, which):
        self.sub.activate(self.scopes[which])

    @rule(tag=TAGS)
    def probe(self, tag):
        self.cache.probe(self.key(tag))

    @rule(data=st.data())
    def probe_spilled(self, data):
        # restores through ``_restore_from_disk`` when the bytes fit
        spilled = [e for e in self.cache.entries()
                   if BACKEND_DISK in e.payloads]
        if spilled:
            self.cache.probe(data.draw(st.sampled_from(spilled)).key)

    @rule(tag=TAGS, size=SIZES, cost=COSTS,
          delay=st.integers(min_value=1, max_value=2))
    def put_cp(self, tag, size, cost, delay):
        self.cache.put(self.key(tag), MatrixValue(np.ones((2, 2))),
                       BACKEND_CP, size, cost, delay_factor=delay)

    @rule(tag=TAGS, size=SIZES, cost=COSTS)
    def put_sp(self, tag, size, cost):
        self.cache.put(self.key(tag), object(), BACKEND_SP, size, cost)

    @rule(tag=TAGS, size=SIZES)
    def put_gpu(self, tag, size):
        payload = _GpuPayload(GpuPointer(self.next_ptr, 0, size), FreeList())
        self.next_ptr += 1
        self.cache.put(self.key(tag), payload, BACKEND_GPU, size, 1e3)

    @rule(tag=TAGS, size=SIZES, count_job=st.booleans())
    def ride_along_cp_copy(self, tag, size, count_job):
        # Interpreter._cache_exchange: an uncharged CP copy + a job count
        entry = self.entry(tag)
        if entry is not None and entry.is_cached:
            entry.put_payload(BACKEND_CP, MatrixValue(np.ones((2, 2))),
                              size, entry.compute_cost)
            if count_job:
                entry.jobs += 1
            self.cache.touch(entry)

    @rule(tag=TAGS, size=SIZES)
    def attach_sp_copy(self, tag, size):
        # SparkCacheManager.cache_rdd: a larger SP copy grows ``size``
        entry = self.entry(tag)
        if entry is not None and entry.is_cached:
            entry.put_payload(BACKEND_SP, object(), size, entry.compute_cost)
            self.cache.touch(entry)

    @rule(tag=TAGS, size=st.integers(min_value=1, max_value=4500))
    def put_cp_any_size(self, tag, size):
        # MAKE_SPACE is the put's own eviction: up to the whole budget
        self.cache.put(self.key(tag), MatrixValue(np.ones((2, 2))),
                       BACKEND_CP, size, 1.0)

    @rule(tag=TAGS)
    def evict(self, tag):
        entry = self.entry(tag)
        if entry is not None:
            self.cache.evict_cp(entry)

    @rule(tag=TAGS)
    def invalidate(self, tag):
        entry = self.entry(tag)
        if entry is not None:
            self.cache.invalidate_entry(entry)

    @rule(tag=TAGS,
          backend=st.sampled_from([BACKEND_CP, BACKEND_SP, BACKEND_GPU]))
    def drop_backend_payload(self, tag, backend):
        entry = self.entry(tag)
        if entry is not None and backend in entry.payloads:
            self.cache.drop_backend_payload(entry, backend)

    @rule(tag=TAGS)
    def gpu_pointer_recycled(self, tag):
        entry = self.entry(tag)
        payload = entry.payloads.get(BACKEND_GPU) if entry else None
        if payload is not None:
            self.cache.on_gpu_invalidate(payload.ptr)

    @rule(tag=TAGS)
    def remove(self, tag):
        self.cache.remove(self.key(tag))

    @rule()
    def clear(self):
        self.cache.clear()

    @invariant()
    def audit_holds(self):
        self.sub.audit()

    @invariant()
    def spilled_entries_hold_no_driver_copy(self):
        for entry in self.cache.entries():
            if BACKEND_DISK in entry.payloads:
                assert BACKEND_CP not in entry.payloads


def _cache_machine(policy):
    machine = type(f"LineageCacheMachine_{policy.value}",
                   (LineageCacheMachine,), {"POLICY": policy})
    case = machine.TestCase
    case.settings = settings(max_examples=100, stateful_step_count=80,
                             deadline=None)
    return case


TestLineageCacheStatefulCostSize = _cache_machine(
    EvictionPolicyName.COST_SIZE)
TestLineageCacheStatefulLru = _cache_machine(EvictionPolicyName.LRU)
TestLineageCacheStatefulLrc = _cache_machine(EvictionPolicyName.LRC)
TestLineageCacheStatefulMrd = _cache_machine(EvictionPolicyName.MRD)
