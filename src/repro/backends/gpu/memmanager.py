"""Unified GPU memory manager: Live/Free lists, recycling, eviction.

Implements the paper's §4.2 design (Fig. 8, Algorithm 1):

* every pointer from allocation to deallocation is managed here;
* the *Live* list holds pointers referenced by live variables
  (reference-counted); after the last release a pointer moves to the
  *Free* list — a hash map from size to a score-ordered queue, here
  :class:`~repro.backends.gpu.freelist.FreeList`: each size's pointers
  are split into Eq. 2 classes ``(cached, height, cost)``, each a heap
  by recency;
* an allocation request first *recycles* an exact-size free pointer
  (no ``cudaMalloc``, no synchronization); otherwise it walks
  Algorithm 1: malloc → free a just-larger pointer → repeatedly free →
  flush all free pointers → defragmentation.  The paper's
  device-to-host eviction step is not modelled (no allocation in the
  evaluation gets past step 3), and neither is a host garbage
  collection: pointers reach the Free list by reference counting, when
  their last handle or block lets go;
* the eviction score (Eq. 2) ``T_a(o) + 1/h(o) + c(o)`` decides who
  leaves so recently-reused, short-lineage, expensive pointers survive;
  the scoring itself lives in ``core/policies.py`` (``score_pointer``)
  and victims are chosen through the shared
  :class:`~repro.memory.arbiter.MemoryArbiter`, whose ``GPU`` region
  mirrors the device allocator's byte ledger.  The arbiter is handed
  only the class tops of the query's scope, with ``max_cost`` the
  largest class cost in it; :meth:`GpuMemoryManager.audit` holds that
  to a ``min`` over every free pointer.

The manager supports three modes so baselines share one implementation:
``malloc`` (cudaMalloc/cudaFree every time — Base), ``pool`` (exact-size
recycling only — PyTorch's caching allocator), and ``memphis`` (full
Algorithm 1 integrated with the lineage cache via the invalidation
callback).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.backends.gpu.device import GpuDevice
from repro.backends.gpu.freelist import FreeClass, FreeList
from repro.backends.gpu.pointers import GpuPointer
from repro.backends.gpu.stream import GpuStream
from repro.common.config import GpuConfig
from repro.common.errors import GpuOutOfMemoryError
from repro.common.runtime import IdSpace, current as current_runtime
from repro.common.simclock import DEVICE, HOST, SimClock
from repro.common.stats import (
    FAULT_GPU_ALLOC_RETRIES,
    GPU_DEFRAGS,
    GPU_FREES,
    GPU_MALLOCS,
    GPU_RECYCLED,
    GPU_REUSED,
    Stats,
)
from repro.core.policies import make_policy
from repro.faults.plan import KIND_GPU_ALLOC
from repro.memory import REGION_GPU, MemoryArbiter, MemoryRegion
from repro.memory.budget import align
from repro.obs.events import (
    EV_GPU_DEFRAG,
    EV_GPU_FREE,
    EV_GPU_MALLOC,
    EV_GPU_RECYCLE,
    EV_GPU_REUSE,
    LANE_GPU,
)
from repro.obs.tracer import NULL_TRACER

MODE_MALLOC = "malloc"
MODE_POOL = "pool"
MODE_MEMPHIS = "memphis"


def add_gpu_region(arbiter: MemoryArbiter,
                   config: GpuConfig) -> MemoryRegion:
    """Register the device-memory region (``GPU``) on ``arbiter``."""
    return arbiter.add_region(REGION_GPU, config.device_memory,
                              policy=make_policy(config.policy))


class GpuMemoryManager:
    """Reference-counted pointer manager with recycling and eviction.

    The unified GPU memory manager of paper §4.2 (Fig. 8): Live/Free
    pointer lists, exact-size recycling, and the allocation cascade of
    Algorithm 1 scored by the eviction function of Eq. 2.
    """

    def __init__(self, device: GpuDevice, stream: GpuStream, clock: SimClock,
                 stats: Stats, mode: str = MODE_MEMPHIS,
                 on_invalidate: Optional[Callable[[GpuPointer], None]] = None,
                 tracer=None, faults=None, arbiter=None,
                 ids: Optional[IdSpace] = None) -> None:
        self.device = device
        self.stream = stream
        self.clock = clock
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if arbiter is None:
            arbiter = MemoryArbiter(stats, tracer=self.tracer, faults=faults)
        self.arbiter: MemoryArbiter = arbiter
        self.faults = faults if faults is not None else arbiter.faults
        # counts on the region its session registered up front, if any
        self._region = (arbiter.region(REGION_GPU) if REGION_GPU in arbiter
                        else add_gpu_region(arbiter, device.config))
        self.policy = self._region.policy
        self.mode = mode
        #: called before a cached free pointer's contents are destroyed,
        #: so the lineage cache can drop or host-save the entry backed by
        #: it (an uncached pointer backs none).
        self.on_invalidate = on_invalidate or (lambda ptr: None)
        #: pointer-id allocator (the owning session's id space; default:
        #: the current runtime context's).
        self._ptr_ids = (ids if ids is not None
                         else current_runtime().ids).pointer
        self.live: dict[int, GpuPointer] = {}
        self.free = FreeList()

    # -- configuration helpers ------------------------------------------------

    @property
    def config(self) -> GpuConfig:
        return self.device.config

    @property
    def free_bytes_pooled(self) -> int:
        return self.free.nbytes

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (``repro.obs.metrics``)."""
        return {
            "gpu/free_pooled_bytes": float(self.free_bytes_pooled),
            "gpu/live_pointers": float(len(self.live)),
        }

    # -- public allocation API ---------------------------------------------------

    def allocate(self, size: int, shape: tuple[int, int] = (0, 0)) -> GpuPointer:
        """Serve an allocation request (Algorithm 1), absorbing faults.

        An injected allocation fault (transient driver error / OOM) is
        recovered by evict-and-retry: flush the pooled free pointers —
        invalidating the lineage-cache entries they back — and re-enter
        the cascade, up to ``max_alloc_retries`` attempts.  The fault
        draw point lives behind the arbiter so every region shares one
        deterministic draw sequence.
        """
        fault = self.arbiter.alloc_fault()
        if fault is not None:
            return self._allocate_faulted(size, shape, fault)
        return self._allocate(size, shape)

    def _allocate_faulted(self, size: int, shape: tuple[int, int],
                          fault) -> GpuPointer:
        attempt = 0
        while fault.take():
            attempt += 1
            # a failed cudaMalloc still synchronizes and costs driver latency
            self.stream.synchronize()
            self.clock.advance(self.config.malloc_latency_s, HOST)
            self.clock.advance_to(self.clock.now(HOST), DEVICE)
            self.stats.inc(FAULT_GPU_ALLOC_RETRIES)
            self.faults.injected(KIND_GPU_ALLOC, LANE_GPU, nbytes=size,
                                 attempt=attempt)
            if attempt > self.faults.plan.max_alloc_retries:
                raise GpuOutOfMemoryError(
                    size, self.device.free_bytes,
                    self.device.largest_free_block,
                )
            self.empty_cache(1.0)
        ptr = self._allocate(size, shape)
        if attempt:
            self.faults.recovered(KIND_GPU_ALLOC, LANE_GPU, nbytes=size,
                                  attempts=attempt + 1)
        return ptr

    def _allocate(self, size: int, shape: tuple[int, int]) -> GpuPointer:
        size = max(size, self.config.alignment)
        if self.mode in (MODE_POOL, MODE_MEMPHIS):
            recycled = self._recycle_exact(size, shape)
            if recycled is not None:
                return recycled
        offset = self._cuda_malloc(size)
        if offset is None and self.mode == MODE_MEMPHIS:
            offset = self._alloc_with_eviction(size)
        elif offset is None and self.mode == MODE_POOL:
            # PyTorch frees its cached blocks on allocation failure
            self._flush_free_lists()
            offset = self._cuda_malloc(size)
        if offset is None:
            raise GpuOutOfMemoryError(
                size, self.device.free_bytes, self.device.largest_free_block
            )
        ptr = GpuPointer(next(self._ptr_ids), offset, size, shape)
        ptr.retain()
        ptr.last_access = self.clock.now(DEVICE)
        self.live[ptr.id] = ptr
        return ptr

    def retain(self, ptr: GpuPointer) -> None:
        """A new live variable references ``ptr``."""
        ptr.retain()
        if ptr.id not in self.live:
            self.live[ptr.id] = ptr

    def release(self, ptr: GpuPointer) -> None:
        """Drop one reference; at zero the pointer moves to the Free list."""
        if ptr.freed:
            return
        if ptr.release() > 0:
            return
        self.live.pop(ptr.id, None)
        if self.mode == MODE_MALLOC:
            self._cuda_free(ptr)
            return
        self.free.add(ptr)

    def reuse_from_free(self, ptr: GpuPointer) -> GpuPointer:
        """Lineage-cache hit on a pointer sitting in the Free list.

        Moves it back to Live (Fig. 8(c)) without touching the device.
        """
        self.free.remove(ptr)
        ptr.retain()
        ptr.last_access = self.clock.now(DEVICE)
        self.live[ptr.id] = ptr
        self.stats.inc(GPU_REUSED)
        if self.tracer.enabled:
            self.tracer.instant(EV_GPU_REUSE, LANE_GPU, nbytes=ptr.size)
        return ptr

    def touch(self, ptr: GpuPointer) -> None:
        """Update recency metadata on access (feeds Eq. 2)."""
        ptr.last_access = self.clock.now(DEVICE)
        ptr.refile()

    def empty_cache(self, fraction: float = 1.0) -> int:
        """Free ``fraction`` of pooled bytes, lowest-score first (§5.2).

        This is the runtime implementation of the compiler's ``evict``
        instruction (eviction injection) and of PyTorch's
        ``empty_cache()``.  Returns the number of pointers freed.
        """
        target = self.free_bytes_pooled * min(max(fraction, 0.0), 1.0)
        freed_bytes = 0
        freed_count = 0
        while freed_bytes < target and self.free_bytes_pooled > 0:
            victim = self._global_victim()
            if victim is None:
                break
            freed_bytes += victim.size
            freed_count += 1
            self._destroy_free_pointer(victim)
        return freed_count

    # -- Algorithm 1 ----------------------------------------------------------

    def _recycle_exact(self, size: int, shape: tuple[int, int]) -> Optional[GpuPointer]:
        """Step 0: recycle a free pointer of the exact size (no malloc).

        Pointers backing lineage-cache entries are only recycled once the
        device is full (paper: "once the GPU memory is full, we start
        recycling the free pointers as a form of eviction"); uncached
        pool pointers recycle freely — the mini-batch fast path.
        """
        pool = self.free.pools.get(size)
        if pool is None:
            return None
        classes = list(pool.values())
        scope = [cls for cls in classes if not cls.cached]
        if not scope:
            if self.mode == MODE_MEMPHIS and self.device.fits(size):
                return None  # prefer a fresh malloc; keep cached pointers
            scope = classes
        victim = self._victim([scope])
        self.free.remove(victim)
        if victim.cached:  # an uncached pointer backs no cache entry
            self.on_invalidate(victim)
        # reuse the allocation in place: same offset, new identity
        ptr = GpuPointer(next(self._ptr_ids), victim.offset, victim.size,
                         shape)
        ptr.retain()
        ptr.last_access = self.clock.now(DEVICE)
        victim.freed = True
        self.live[ptr.id] = ptr
        self.stats.inc(GPU_RECYCLED)
        if self.tracer.enabled:
            self.tracer.instant(EV_GPU_RECYCLE, LANE_GPU, nbytes=size,
                                cached=victim.cached)
        return ptr

    def _alloc_with_eviction(self, size: int) -> Optional[int]:
        """Steps 2-5 of Algorithm 1 after a failed first malloc: free a
        just-larger pointer, free pointers until malloc succeeds, flush
        every free pointer, defragment.

        There is no device-to-host eviction step and no host garbage
        collection: a pointer
        reaches the Free list when its last reference is released, which
        reference counting does promptly (``Session._attach_gpu_finalizer``).
        """
        # step 2: free a pointer just larger than the required size
        larger = min((s for s in self.free.pools if s > size), default=None)
        if larger is not None:
            self._destroy_free_pointer(self._pop_victim(larger))
            offset = self._cuda_malloc(size)
            if offset is not None:
                return offset
        # step 3: repeatedly free pointers until malloc succeeds
        while self.free_bytes_pooled > 0:
            victim = self._global_victim()
            if victim is None:
                break
            self._destroy_free_pointer(victim)
            offset = self._cuda_malloc(size)
            if offset is not None:
                return offset
        # step 4: clean up all free pointers
        self._flush_free_lists()
        offset = self._cuda_malloc(size)
        if offset is not None:
            return offset
        # step 5 (rare): full defragmentation of live allocations
        offset = self._defragment_and_malloc(size)
        return offset

    # -- internals ---------------------------------------------------------------

    def _cuda_malloc(self, size: int) -> Optional[int]:
        offset = self.device.malloc(size)
        if offset is not None:
            # mirror the device allocator's ledger in the GPU region
            self._region.acquire(align(size, self.config.alignment))
            # cudaMalloc synchronizes the device and costs driver latency
            self.stream.synchronize()
            self.clock.advance(self.config.malloc_latency_s, HOST)
            self.clock.advance_to(self.clock.now(HOST), DEVICE)
            self.stats.inc(GPU_MALLOCS)
            if self.tracer.enabled:
                self.tracer.instant(EV_GPU_MALLOC, LANE_GPU, nbytes=size)
        return offset

    def _cuda_free(self, ptr: GpuPointer) -> None:
        if ptr.freed:
            return
        self.stream.synchronize()
        self.clock.advance(self.config.free_latency_s, HOST)
        self.clock.advance_to(self.clock.now(HOST), DEVICE)
        freed = self.device.free(ptr.offset)
        self._region.release(freed)
        ptr.freed = True
        self.stats.inc(GPU_FREES)
        if self.tracer.enabled:
            self.tracer.instant(EV_GPU_FREE, LANE_GPU, nbytes=ptr.size)

    def _destroy_free_pointer(self, ptr: GpuPointer) -> None:
        self.free.remove(ptr)
        if ptr.cached:
            self.on_invalidate(ptr)
        self._cuda_free(ptr)

    def _flush_free_lists(self) -> None:
        for ptr in self.free.pointers():
            self._destroy_free_pointer(ptr)

    def _defragment_and_malloc(self, size: int) -> Optional[int]:
        moved = self.device.defragment()
        self.stream.synchronize()
        self.clock.advance(
            moved / self.config.mem_bandwidth_bytes_per_s, HOST
        )
        self.clock.advance_to(self.clock.now(HOST), DEVICE)
        self.stats.inc(GPU_DEFRAGS)
        if self.tracer.enabled:
            self.tracer.instant(EV_GPU_DEFRAG, LANE_GPU, moved=moved)
        relocation = getattr(self.device, "relocation_map", {})
        for ptr in self.live.values():
            if ptr.offset in relocation:
                ptr.offset = relocation[ptr.offset]
        offset = self.device.malloc(size)
        if offset is not None:
            self._region.acquire(align(size, self.config.alignment))
        return offset

    def _pointer_score(self, max_cost: float):
        """Eq. 2 score closure over one candidate set.

        The scoring math lives in ``core/policies.py``
        (``score_pointer``); this only fixes the context-dependent
        normalisation terms — the device clock and the candidate set's
        maximum compute cost.
        """
        now = self.clock.now(DEVICE)
        policy = self.policy
        return lambda p: policy.score_pointer(p, now, max_cost)

    def _victim(self, groups: list[list[FreeClass]]) -> Optional[GpuPointer]:
        """The arbiter's pick among the tops of one scope's classes
        (``groups``: the classes size by size, in ``pools`` order), each
        top scored once."""
        if not groups:
            return None
        scores = FreeList.tops(groups, self._pointer_score(
            max(cls.cost for classes in groups for cls in classes)))
        return self.arbiter.select_victim(REGION_GPU, list(scores),
                                          score=scores.__getitem__)

    def _pop_victim(self, size: int) -> GpuPointer:
        """Remove and return the minimum-score free pointer of ``size``."""
        victim = self._victim([list(self.free.pools[size].values())])
        self.free.remove(victim)
        return victim

    def _global_victim(self) -> Optional[GpuPointer]:
        """Minimum-score pointer across all free queues (not yet popped)."""
        return self._victim(
            [list(pool.values()) for pool in self.free.pools.values()])

    # -- audit ----------------------------------------------------------------

    def audit(self) -> None:
        """Assert the Free list against the full scan it replaces.

        The GPU region mirrors the device ledger; the pooled bytes are
        the listed pointers' bytes; no listed pointer is live or freed;
        each one's latest record carries its current class and
        ``last_access`` (a write not followed by ``GpuPointer.refile``
        fails here); and for each scope a victim query has — the
        uncached pointers of one size, one size, every size — the
        index's victim *is* a ``min`` over every pointer of the scope in
        Free-list order.
        """
        assert self._region.used == self.device.used_bytes, (
            f"GPU region {self._region.used} B != device "
            f"{self.device.used_bytes} B")
        free = self.free.pointers()
        pooled = sum(p.size for p in free)
        assert self.free_bytes_pooled == pooled, \
            f"pooled {self.free_bytes_pooled} B != listed {pooled} B"
        for ptr in free:
            assert ptr.id not in self.live and not ptr.freed, \
                f"free list: {ptr!r} is live or freed"
            rec = ptr.free_rec
            assert ptr.free_list is self.free and rec[0] == ptr.last_access \
                and rec[4] == (ptr.cached, ptr.lineage_height,
                               ptr.compute_cost), \
                f"free list: {ptr!r} filed as {rec[0]}, {rec[4]} " \
                f"(missed refile)"

        def scan(pool: list[GpuPointer]) -> GpuPointer:
            score = self._pointer_score(max(p.compute_cost for p in pool))
            return self.arbiter.select_victim(REGION_GPU, pool, score=score)

        for size, pool in self.free.pools.items():
            queue = [p for p in free if p.size == size]
            classes = list(pool.values())
            uncached = [p for p in queue if not p.cached]
            if uncached:
                fresh = [cls for cls in classes if not cls.cached]
                assert self._victim([fresh]) is scan(uncached), \
                    f"free list: uncached victim of {size} B"
            assert self._victim([classes]) is scan(queue), \
                f"free list: victim of {size} B"
        if free:
            assert self._global_victim() is scan(free), \
                "free list: global victim"
