"""Spark-side cache management: RDD reuse, lazy GC, cost-based eviction.

Implements §4.1 of the paper:

* **Reuse RDDs** — cached entries hold :class:`DistributedMatrix`
  handles; reuse works even while the RDD is *unmaterialized* (persist is
  lazy), enabling compute sharing and shuffle-file reuse across jobs.
* **Async materialization** — after *k* reuses of a still-unmaterialized
  RDD, an asynchronous ``count()`` job materializes it so its upstream
  references become collectable.
* **Lazy garbage collection** — when a cached RDD is materialized, its
  upstream broadcast variables are destroyed, reclaiming driver memory
  held by dangling references (Fig. 2(b), Fig. 6).
* **Cost-based eviction (Eq. 1)** — cached RDDs are unpersisted in
  ascending ``(r_h + r_m + r_j) * c / s`` order when the reuse share of
  storage memory (80% by default) overflows.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.spark.backend import DistributedMatrix
from repro.backends.spark.context import SparkContext
from repro.backends.spark.rdd import RDD
from repro.common.config import CacheConfig, StorageLevel
from repro.common.simclock import SimFuture
from repro.common.stats import (
    SPARK_ASYNC_MATERIALIZE,
    SPARK_GC_CLEANED,
    SPARK_RDD_PERSISTED,
    SPARK_RDD_REUSE,
    SPARK_RDD_UNPERSISTED,
    Stats,
)
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_SP, CacheEntry
from repro.core.policies import make_policy
from repro.memory import REGION_SPARK_CACHE, MemoryArbiter, MemoryRegion


def add_spark_cache_region(arbiter: MemoryArbiter, cache: LineageCache,
                           config: CacheConfig,
                           storage_capacity: int) -> MemoryRegion:
    """Register the reuse share of Spark storage (``SP_CACHE``) on
    ``arbiter``; ``storage_capacity`` is the ``SP_BLOCKS`` capacity."""
    policy = cache.policy if config.spark_policy is None \
        else make_policy(config.spark_policy)
    return arbiter.add_region(
        REGION_SPARK_CACHE,
        int(storage_capacity * config.spark_cache_fraction),
        policy=policy, unlimited=config.unlimited,
    )


class SparkCacheManager:
    """Backend-local cache manager for the Spark tier of the cache."""

    def __init__(self, cache: LineageCache, context: SparkContext,
                 config: CacheConfig, stats: Stats, arbiter=None) -> None:
        self.cache = cache
        self.sc = context
        self.config = config
        self.stats = stats
        # the Spark tier is session-private even when the lineage cache
        # is shared (repro.server), so the SP_CACHE region must register
        # on the session's own arbiter, not the cache's (shared) one.
        self.arbiter = arbiter if arbiter is not None else cache.arbiter
        # counts on the region its session registered up front, if any
        self._region = (
            self.arbiter.region(REGION_SPARK_CACHE)
            if REGION_SPARK_CACHE in self.arbiter
            else add_spark_cache_region(self.arbiter, cache, config,
                                        context.block_manager.capacity))
        #: entry -> bytes this manager charged to its ``SP_CACHE`` ledger
        #: when it persisted the entry's RDD.  Eviction offers and
        #: releases exactly these: on a shared lineage cache the other
        #: sessions' entries, and a payload ``cache.put`` attached but
        #: this manager has not persisted yet, are not its to evict.
        self._charged: dict[CacheEntry, int] = {}
        #: entry -> reuse-miss count while unmaterialized (async trigger).
        self._unmat_misses: dict[int, int] = {}
        self._pending_counts: list[SimFuture] = []
        self.storage_level = StorageLevel.MEMORY_AND_DISK

    @property
    def budget(self) -> int:
        """Reuse share of aggregate storage memory (80% by default)."""
        return int(
            self.sc.block_manager.capacity * self.config.spark_cache_fraction
        )

    @property
    def sp_bytes(self) -> int:
        """Estimated bytes of persisted, cache-managed RDDs."""
        return self._region.used

    # -- caching ---------------------------------------------------------------

    def cache_rdd(self, entry: CacheEntry, dm: DistributedMatrix) -> bool:
        """Mark ``dm`` for distributed caching under ``entry`` (persist)."""
        size = dm.nbytes
        if entry in self._charged:  # re-put: release the old charge first
            self._region.release(self._charged.pop(entry))
        if not self.arbiter.reserve(
            REGION_SPARK_CACHE, size, candidates=self._candidates,
            evict=self.evict, now=0.0,
        ):
            return False
        dm.rdd.persist(self.storage_level)
        entry.put_payload(BACKEND_SP, dm, size, entry.compute_cost)
        self.cache.touch(entry)  # a larger SP copy grows ``size`` (Eq. 1)
        entry.rdd_materialized = False
        self._region.commit(size)
        self._charged[entry] = size
        self.stats.inc(SPARK_RDD_PERSISTED)
        return True

    def reuse_rdd(self, entry: CacheEntry) -> Optional[DistributedMatrix]:
        """Reuse a cached RDD (even if unmaterialized, §4.1)."""
        dm = entry.get_payload(BACKEND_SP)
        if dm is None:
            return None
        self.stats.inc(SPARK_RDD_REUSE)
        self._refresh_materialization(entry, dm)
        if not entry.rdd_materialized:
            misses = self._unmat_misses.get(entry.key.id, 0) + 1
            self._unmat_misses[entry.key.id] = misses
            if misses >= self.config.async_materialize_after_misses:
                self._async_materialize(entry, dm)
                self._unmat_misses[entry.key.id] = 0
        else:
            self.lazy_gc(entry, dm)
        return dm

    # -- memory management -------------------------------------------------------

    def make_space(self, size: int) -> bool:
        """Evict cached RDDs (Eq. 1 order) until ``size`` bytes fit."""
        return self.arbiter.ensure_space(
            REGION_SPARK_CACHE, size, candidates=self._candidates,
            evict=self.evict, now=0.0,
        )

    def evict(self, entry: CacheEntry) -> None:
        """Unpersist the RDD of ``entry`` and drop its SP payload."""
        freed = self._charged.pop(entry, 0)
        self._region.release(freed)
        dm = entry.get_payload(BACKEND_SP)
        if dm is None:
            return
        dm.rdd.unpersist()
        self.arbiter.record_evict(REGION_SPARK_CACHE, freed,
                                  rdd=dm.rdd.id)
        self.cache.drop_backend_payload(entry, BACKEND_SP)
        self.stats.inc(SPARK_RDD_UNPERSISTED)

    def _candidates(self) -> list[CacheEntry]:
        # in creation order, the order of the cache's own entry dict:
        # ``select_victim`` breaks score ties by position
        return sorted(self._charged, key=lambda e: e.seq)

    def audit(self) -> None:
        """Assert the Spark tier's conservation laws (tests, sweeps):
        the ``SP_CACHE`` ledger equals what this manager charged, every
        charged entry still holds an SP payload, and the session's own
        arbiter (the Spark and GPU regions) is quiescent."""
        charged = sum(self._charged.values())
        assert self._region.used == charged, \
            f"SP_CACHE ledger {self._region.used} != charged bytes {charged}"
        stale = [e for e in self._charged if BACKEND_SP not in e.payloads]
        assert not stale, f"charged entries without an SP payload: {stale}"
        self.arbiter.check()

    # -- lazy GC and async materialization -------------------------------------------

    def lazy_gc(self, entry: CacheEntry, dm: DistributedMatrix) -> None:
        """Destroy upstream broadcasts of a materialized cached RDD."""
        cleaned = 0
        for rdd in self._upstream(dm.rdd):
            for bc in rdd.broadcast_refs:
                if not bc.destroyed:
                    bc.destroy()
                    cleaned += 1
        if cleaned:
            self.stats.inc(SPARK_GC_CLEANED, cleaned)

    def _async_materialize(self, entry: CacheEntry,
                           dm: DistributedMatrix) -> None:
        """Trigger an asynchronous count() to materialize the RDD."""
        future = self.sc.count_async(dm.rdd)
        self._pending_counts.append(future)
        entry.jobs += 1
        self.cache.touch(entry)
        self.stats.inc(SPARK_ASYNC_MATERIALIZE)
        self._refresh_materialization(entry, dm)

    def _refresh_materialization(self, entry: CacheEntry,
                                 dm: DistributedMatrix) -> None:
        info = self.sc.block_manager.rdd_storage_info(
            dm.rdd.id, dm.rdd.num_partitions
        )
        entry.rdd_materialized = info["fully_cached"]

    @staticmethod
    def _upstream(rdd: RDD) -> list[RDD]:
        """All RDDs reachable upstream of ``rdd`` (including itself)."""
        seen: set[int] = set()
        order: list[RDD] = []
        stack = [rdd]
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            order.append(node)
            stack.extend(node.parents())
        return order
