"""Tests for the GPU simulator: device, stream, memory manager, backend."""

import numpy as np
import pytest

from repro.backends.gpu import (
    GpuBackend,
    GpuDevice,
    GpuMemoryManager,
    GpuStream,
    MODE_MALLOC,
    MODE_MEMPHIS,
    MODE_POOL,
)
from repro.common.config import GpuConfig
from repro.common.costs import op_flops
from repro.common.errors import GpuError, GpuOutOfMemoryError
from repro.common.simclock import DEVICE, HOST, SimClock
from repro.common.stats import Stats
from repro.core.policies import LrcPolicy
from repro.runtime.values import MatrixValue


def small_config(capacity=64 * 1024):
    return GpuConfig(device_memory=capacity, alignment=512)


class TestGpuDevice:
    def test_malloc_free_roundtrip(self):
        dev = GpuDevice(small_config())
        off = dev.malloc(1000)
        assert off == 0
        assert dev.used_bytes == 1024  # aligned to 512
        dev.free(off)
        assert dev.used_bytes == 0

    def test_first_fit(self):
        dev = GpuDevice(small_config())
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        dev.free(a)
        c = dev.malloc(512)
        assert c == a  # reuses the first hole

    def test_exhaustion_returns_none(self):
        dev = GpuDevice(small_config(capacity=2048))
        assert dev.malloc(2048) is not None
        assert dev.malloc(512) is None

    def test_fragmentation_blocks_large_alloc(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        c = dev.malloc(1024)
        d = dev.malloc(1024)
        dev.free(a)
        dev.free(c)
        # 2048 bytes free but fragmented into two 1024 holes
        assert dev.free_bytes == 2048
        assert dev.malloc(2048) is None
        assert dev.fragmentation > 0

    def test_fits_agrees_with_malloc(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        dev.malloc(1024)
        dev.free(a)
        # holes of 1024 (first) and 2048 (tail); sizes align up to 512
        for size in (1, 1024, 1025, 2048, 2049, 4096):
            assert dev.fits(size) == (size <= 2048)
        assert dev.fits(1536) and dev.malloc(1536) is not None

    def test_cached_largest_hole_tracks_every_change(self):
        """``fits`` reads a cached largest hole; after any malloc or
        free it must equal a scan of the holes."""
        dev = GpuDevice(small_config(capacity=32 * 1024))
        rng = np.random.default_rng(3)
        live = []
        for step in range(400):
            action = rng.random()
            if action < 0.55:
                off = dev.malloc(int(rng.integers(1, 6)) * 512)
                if off is not None:
                    live.append(off)
            elif live:
                dev.free(live.pop(int(rng.integers(len(live)))))
            holes = dev._free
            assert all(off + size < nxt for (off, size), (nxt, _)
                       in zip(holes, holes[1:])), step  # sorted, coalesced
            largest = max((size for _, size in holes), default=0)
            assert dev.largest_free_block == largest, step
            for size in (1, 512, 1024, 2048, 4096, 8192):
                assert dev.fits(size) == (
                    max(size, 512) <= largest), (step, size)

    def test_coalescing_adjacent_holes(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        dev.free(a)
        dev.free(b)  # adjacent: coalesce into 2048 + tail
        assert dev.largest_free_block == 4096

    def test_double_free_raises(self):
        dev = GpuDevice(small_config())
        off = dev.malloc(512)
        dev.free(off)
        with pytest.raises(GpuError):
            dev.free(off)

    def test_invalid_size(self):
        dev = GpuDevice(small_config())
        with pytest.raises(GpuError):
            dev.malloc(0)


class TestGpuStream:
    def test_kernel_async_for_host(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        assert clock.now(HOST) < clock.now(DEVICE)

    def test_synchronize_joins(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        stream.synchronize()
        assert clock.now(HOST) == clock.now(DEVICE)
        assert stats.get("gpu/synchronizations") == 1

    def test_d2h_copy_synchronizes(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        stream.copy_d2h(1024)
        assert clock.now(HOST) >= clock.now(DEVICE) - 1e-12
        assert stats.get("gpu/d2h_copies") == 1

    def test_h2d_blocks_host(self):
        clock, stats = SimClock(), Stats()
        cfg = GpuConfig()
        stream = GpuStream(cfg, clock, stats)
        stream.copy_h2d(int(cfg.h2d_bandwidth_bytes_per_s))
        assert clock.now(HOST) == pytest.approx(1.0)


def manager(mode, capacity=64 * 1024):
    clock, stats = SimClock(), Stats()
    cfg = small_config(capacity)
    dev = GpuDevice(cfg)
    stream = GpuStream(cfg, clock, stats)
    return GpuMemoryManager(dev, stream, clock, stats, mode), stats


class TestMemoryManagerModes:
    def test_malloc_mode_frees_immediately(self):
        mgr, stats = manager(MODE_MALLOC)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        assert ptr.freed
        assert stats.get("gpu/cuda_frees") == 1
        assert mgr.free_bytes_pooled == 0

    def test_pool_mode_recycles_exact_size(self):
        mgr, stats = manager(MODE_POOL)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        assert not ptr.freed
        again = mgr.allocate(1024)
        assert again.offset == ptr.offset
        assert stats.get("gpu/pointers_recycled") == 1
        assert stats.get("gpu/cuda_mallocs") == 1  # only the first

    def test_pool_mode_flushes_on_pressure(self):
        mgr, stats = manager(MODE_POOL, capacity=4096)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        big = mgr.allocate(4096)  # needs the pooled block freed
        assert big is not None
        assert stats.get("gpu/cuda_frees") >= 1

    def test_memphis_recycles_and_reuses(self):
        mgr, stats = manager(MODE_MEMPHIS)
        ptr = mgr.allocate(2048)
        mgr.release(ptr)
        revived = mgr.reuse_from_free(ptr)
        assert revived.ref_count == 1
        assert stats.get("gpu/pointers_reused") == 1
        mgr.release(revived)
        fresh = mgr.allocate(2048)
        assert fresh.offset == ptr.offset
        assert stats.get("gpu/pointers_recycled") == 1


class TestAlgorithmOne:
    def test_free_just_larger_on_miss(self):
        mgr, stats = manager(MODE_MEMPHIS, capacity=8192)
        big = mgr.allocate(4096)
        small = mgr.allocate(2048)
        fill = mgr.allocate(1536)
        mgr.release(big)
        # request 3072: no exact 3072 pool entry; frees the larger 4096
        out = mgr.allocate(3072)
        assert out is not None
        assert stats.get("gpu/cuda_frees") >= 1

    def test_repeatedly_free_until_success(self):
        mgr, _ = manager(MODE_MEMPHIS, capacity=8192)
        ptrs = [mgr.allocate(2048) for _ in range(4)]
        for p in ptrs:
            mgr.release(p)
        out = mgr.allocate(8192)  # must free several pooled pointers
        assert out is not None

    def test_oom_raises_with_context(self):
        mgr, _ = manager(MODE_MEMPHIS, capacity=4096)
        keep = mgr.allocate(4096)  # live, cannot be evicted
        with pytest.raises(GpuOutOfMemoryError) as err:
            mgr.allocate(1024)
        assert err.value.requested == 1024

    def test_fragmented_device_raises_oom(self):
        """Steps 2-3 free every pooled pointer; when the holes they
        leave are still too small, the request fails with the device's
        free bytes and largest hole, and the ledgers stay whole."""
        mgr, stats = manager(MODE_MEMPHIS, capacity=6144)
        a = mgr.allocate(2048)
        b = mgr.allocate(1024)
        c = mgr.allocate(2048)
        mgr.release(a)
        tail = mgr.allocate(512)  # takes the tail: a's hole stays apart
        mgr.release(c)
        with pytest.raises(GpuOutOfMemoryError) as err:
            mgr.allocate(3584)
        # holes 0-2048, 3072-5120 and 5632-6144: 4,608 B free, none 3,584
        assert (err.value.free, err.value.largest_block) == (4608, 2048)
        assert err.value.free == mgr.device.free_bytes
        assert err.value.largest_block == mgr.device.largest_free_block
        assert a.freed and c.freed and mgr.free_bytes_pooled == 0
        mgr.audit()
        assert mgr._region.used == mgr.device.used_bytes == 1536
        assert set(mgr.live) == {b.id, tail.id}  # the request left none

    def test_invalidation_callback_fires_on_recycle(self):
        """Recycling a pointer a cache entry references invalidates the
        entry first; an uncached pointer, which no entry references,
        recycles without the callback."""
        invalidated = []
        mgr, stats = manager(MODE_MEMPHIS, capacity=2048)
        mgr.on_invalidate = invalidated.append
        plain = mgr.allocate(1024)
        mgr.release(plain)
        mgr.allocate(1024)  # recycles the uncached pointer
        assert plain.freed and invalidated == []
        cached = mgr.allocate(1024)  # fills the device
        cached.cached = True
        mgr.release(cached)
        mgr.allocate(1024)  # full device: recycles the cached pointer
        assert cached.freed and invalidated == [cached]
        assert stats.get("gpu/pointers_recycled") == 2

    def test_empty_cache_partial(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptrs = [mgr.allocate(1024) for _ in range(4)]
        for ptr in ptrs:
            mgr.release(ptr)
        freed = mgr.empty_cache(0.5)
        assert freed == 2
        assert mgr.free_bytes_pooled == 2048

    def test_empty_cache_full(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptrs = [mgr.allocate(size) for size in (512, 1024, 2048)]
        for ptr in ptrs:
            mgr.release(ptr)
        mgr.empty_cache(1.0)
        assert mgr.free_bytes_pooled == 0
        assert not mgr.free.pools


class TestEvictionScoring:
    def test_recent_and_expensive_survive(self):
        mgr, _ = manager(MODE_MEMPHIS)
        clock = mgr.clock
        old = mgr.allocate(1024)
        old.compute_cost = 1.0
        recent = mgr.allocate(1024)
        recent.compute_cost = 1e9
        mgr.release(old)
        clock.advance(1.0, DEVICE)
        recent.last_access = clock.now(DEVICE)
        mgr.release(recent)
        victim = mgr._global_victim()
        assert victim is old

    def test_short_lineage_preserved(self):
        # 1/h(o) term: shorter lineage -> higher score -> survives
        mgr, _ = manager(MODE_MEMPHIS)
        deep = mgr.allocate(1024)
        deep.lineage_height = 100
        shallow = mgr.allocate(1024)
        shallow.lineage_height = 1
        mgr.release(deep)
        mgr.release(shallow)
        victim = mgr._global_victim()
        assert victim is deep


class TestFreeList:
    """What the scan the Free list replaced did, pinned case by case
    (the hypothesis machines in test_property_memory.py cover the rest)."""

    def test_float_tie_in_a_class_goes_to_the_earlier_release(self):
        mgr, _ = manager(MODE_MEMPHIS)
        mgr.clock.advance(1.0, DEVICE)
        first, second = mgr.allocate(1024), mgr.allocate(1024)
        mgr.release(first)
        mgr.release(second)
        # distinct stamps, equal Eq. 2 score: 1e-20 / 1.0 + 1.0 == 1.0
        first.last_access, second.last_access = 1e-20, 0.0
        mgr.free.refile(first)
        mgr.free.refile(second)
        assert mgr.policy.score_pointer(first, 1.0, 1.0) \
            == mgr.policy.score_pointer(second, 1.0, 1.0)
        assert mgr._global_victim() is first  # not the older stamp
        mgr.audit()

    def test_a_refilled_size_goes_to_the_back(self):
        mgr, _ = manager(MODE_MEMPHIS)
        mgr.policy = LrcPolicy()  # every pointer ties: order decides
        small, large = mgr.allocate(1024), mgr.allocate(2048)
        mgr.release(small)
        mgr.release(large)
        assert mgr._global_victim() is small
        mgr.reuse_from_free(small)  # the 1024 B pool empties ...
        mgr.release(small)  # ... and refills behind 2048
        assert mgr.free.pointers() == [large, small]
        assert mgr._global_victim() is large
        mgr.audit()

    def test_max_cost_is_the_scopes(self):
        mgr, _ = manager(MODE_MEMPHIS)
        mgr.clock.advance(1.0, DEVICE)
        recent, costly, other = (mgr.allocate(size)
                                 for size in (1024, 1024, 2048))
        for ptr, (stamp, cost) in zip((recent, costly, other),
                                      [(0.9, 0.0), (0.0, 1.0), (0.5, 1e3)]):
            mgr.release(ptr)
            ptr.last_access, ptr.compute_cost = stamp, cost
            mgr.free.refile(ptr)
        # over the 1024 B pool max_cost is 1.0: 0.9 + 1 + 0 < 0 + 1 + 1;
        # the 2048 B pointer's cost would flip it (0 + 1 + 0.001)
        mgr.audit()
        assert mgr._pop_victim(1024) is recent

    def test_audit_catches_a_write_without_refile(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        ptr.compute_cost = 5.0
        with pytest.raises(AssertionError, match="missed refile"):
            mgr.audit()
        mgr.free.refile(ptr)
        mgr.audit()

    def test_cache_flag_moves_a_free_pointer_between_classes(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        ptr.cached = True
        mgr.free.refile(ptr)
        (cls,) = mgr.free.pools[1024].values()
        assert cls.cached and cls.members == 1
        mgr.audit()


class TestGpuBackend:
    def test_execute_computes_and_charges(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        x = backend.to_device(MatrixValue(np.ones((32, 32))))
        out = backend.execute("relu", [x], {},
                              op_flops("relu", [(32, 32)], (32, 32)))
        assert np.allclose(out.value.data, 1.0)
        assert clock.now(DEVICE) > 0
        assert stats.get("gpu/kernels_launched") == 1

    def test_scalar_aggregate_syncs(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        x = backend.to_device(MatrixValue(np.ones((16, 16))))
        out = backend.execute("uak+", [x], {},
                              op_flops("uak+", [(16, 16)], (1, 1)))
        assert out.value == 256.0
        assert stats.get("gpu/synchronizations") >= 1

    def test_to_host_roundtrip(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        value = MatrixValue(np.arange(16, dtype=float).reshape(4, 4))
        data = backend.to_device(value)
        back = backend.to_host(data)
        assert np.allclose(back.data, value.data)
