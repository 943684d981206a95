"""A session's Spark and GPU tiers, each built the first time it is used.

A request that only runs CP instructions — the common case on a shared
substrate (docs/SERVER.md) — never places an operator on Spark or the
GPU, so it should not pay for a ``SparkContext``, a ``SparkBackend``, a
``SparkCacheManager`` or a ``GpuBackend``.  :class:`BackendTiers` builds
each tier on first access: the interpreter's ``_exec_spark`` /
``_exec_gpu``, a reuse hit carrying an SP or GPU payload, or an explicit
``sess.spark_context`` / ``sess.gpu`` read.

The tiers' memory regions (``SP_BLOCKS``, ``SP_CACHE``, ``GPU``) are
registered on the session's arbiter up front, in the order the managers
would register them, so the arbiter's region list, ledgers,
``explain(level="runtime")``, ``audit()`` and the gauge tracks read the
same whether or not a tier was built; a manager built later counts on
the region already there.
"""

from __future__ import annotations

from functools import cached_property

from repro.backends.gpu.backend import GpuBackend
from repro.backends.gpu.memmanager import add_gpu_region
from repro.backends.spark.backend import SparkBackend
from repro.backends.spark.blockmanager import add_storage_region
from repro.backends.spark.context import SparkContext
from repro.common.config import MemphisConfig, StorageLevel
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_SP, CacheEntry
from repro.core.spark_cache import SparkCacheManager, add_spark_cache_region
from repro.memory import MemoryArbiter

#: the gauges an unbuilt tier reports, all zero: the names a fresh block
#: manager's and a fresh GPU memory manager's ``metrics_gauges()`` return.
IDLE_SPARK_GAUGES = ("spark/storage_vs_exec_frac", "spark/partitions_cached")
IDLE_GPU_GAUGES = ("gpu/free_pooled_bytes", "gpu/live_pointers")


class BackendTiers:
    """Holder of one session's lazily built Spark and GPU tiers.

    It holds the collaborators the tiers are built from, never the
    session, so a session whose tiers are unbuilt is freed by reference
    counting.  Each tier is a ``cached_property``: after the first
    access it is a plain instance attribute.
    """

    def __init__(self, config: MemphisConfig, clock, stats,
                 arbiter: MemoryArbiter, cache: LineageCache, *,
                 tracer, faults, ids, gpu_mode: str) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        self.arbiter = arbiter
        self.cache = cache
        self.tracer = tracer
        self.faults = faults
        self.ids = ids
        self.gpu_mode = gpu_mode
        storage = add_storage_region(arbiter, config.spark)
        add_spark_cache_region(arbiter, cache, config.cache, storage.capacity)
        add_gpu_region(arbiter, config.gpu)
        self._storage_level = StorageLevel.MEMORY_AND_DISK

    def built(self, tier: str) -> bool:
        """Whether ``tier`` (an attribute name) has been built."""
        return tier in self.__dict__

    @cached_property
    def spark_context(self) -> SparkContext:
        return SparkContext(
            self.config.spark, self.clock, self.stats, tracer=self.tracer,
            faults=self.faults, arbiter=self.arbiter, ids=self.ids)

    @cached_property
    def spark(self) -> SparkBackend:
        return SparkBackend(self.spark_context)

    @cached_property
    def spark_mgr(self) -> SparkCacheManager:
        mgr = SparkCacheManager(
            self.cache, self.spark_context, self.config.cache, self.stats,
            arbiter=self.arbiter)
        mgr.storage_level = self._storage_level
        return mgr

    @cached_property
    def gpu(self) -> GpuBackend:
        gpu = GpuBackend(
            self.config.gpu, self.clock, self.stats, mode=self.gpu_mode,
            tracer=self.tracer, faults=self.faults, arbiter=self.arbiter,
            ids=self.ids)
        gpu.memory.on_invalidate = self.cache.on_gpu_invalidate
        return gpu

    @property
    def storage_level(self) -> StorageLevel:
        """Level the Spark tier persists at (tuned per block, §5.2);
        held here until the Spark cache manager exists."""
        if self.built("spark_mgr"):
            return self.spark_mgr.storage_level
        return self._storage_level

    @storage_level.setter
    def storage_level(self, level: StorageLevel) -> None:
        if self.built("spark_mgr"):
            self.spark_mgr.storage_level = level
        else:
            self._storage_level = level

    def invalidate(self, entry: CacheEntry) -> list[str]:
        """Hard-drop every copy of ``entry`` (fault injection); an RDD
        copy is unpersisted through the Spark cache manager."""
        return self.cache.invalidate_entry(
            entry, spark_mgr=self.spark_mgr
            if BACKEND_SP in entry.payloads else None)

    def metrics_gauges(self) -> dict[str, float]:
        """The tiers' manager gauges; an unbuilt tier reads as a fresh
        one (all zero), which the sampler never emits."""
        spark = (self.spark_context.block_manager.metrics_gauges()
                 if self.built("spark_context")
                 else dict.fromkeys(IDLE_SPARK_GAUGES, 0.0))
        gpu = (self.gpu.memory.metrics_gauges() if self.built("gpu")
               else dict.fromkeys(IDLE_GPU_GAUGES, 0.0))
        return {**spark, **gpu}
