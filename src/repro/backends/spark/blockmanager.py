"""Cluster-wide BlockManager: storage memory, partition eviction, spilling.

Models the aggregate storage region of all executors (paper §2.2): cached
RDD partitions live here under a byte budget.  When the region overflows,
LRU partitions of *other* RDDs are evicted — dropped for ``MEMORY_ONLY``
or spilled to executor-local disk for ``MEMORY_AND_DISK``.  Dropped
partitions of persisted RDDs are transparently recomputed from lineage on
the next access, exactly like Spark.

Storage-memory accounting and victim selection route through the shared
:class:`~repro.memory.arbiter.MemoryArbiter` (the ``SP_BLOCKS`` region);
Spark's native LRU order is the region's default eviction policy over
per-partition access stamps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.common.config import SparkConfig, StorageLevel
from repro.common.stats import (
    FAULT_PARTITIONS_DROPPED,
    SPARK_PART_EVICTED,
    SPARK_PART_SPILLED,
    Stats,
)
from repro.backends.spark.rdd import TaskMetrics
from repro.memory import REGION_SPARK_STORAGE, MemoryArbiter, MemoryRegion
from repro.obs.events import (
    EV_SPARK_PART_EVICT,
    EV_SPARK_PART_SPILL,
    LANE_SP,
)
from repro.obs.tracer import NULL_TRACER


@dataclass
class _CachedPartition:
    block: np.ndarray
    nbytes: int
    level: StorageLevel
    on_disk: bool = False
    key: tuple[int, int] = field(default=(0, 0))
    # policy-visible metadata (Evictable protocol): LRU reads
    # ``last_access``; cost_size/lrc/mrd read the reference counters.
    size: int = 0
    compute_cost: float = 0.0
    last_access: int = 0
    hits: int = 0
    misses: int = 0
    jobs: int = 0


def add_storage_region(arbiter: MemoryArbiter,
                       config: SparkConfig) -> MemoryRegion:
    """Register the aggregate executor storage region (``SP_BLOCKS``)."""
    return arbiter.add_region(
        REGION_SPARK_STORAGE,
        config.storage_memory * config.num_executors,
        policy_name=config.policy,
    )


class BlockManager:
    """Unified storage region shared by all executors of the cluster.

    Models Spark's aggregate storage memory (paper §2.2): cached RDD
    partitions under a byte budget with LRU eviction and disk spilling —
    the memory pressure MEMPHIS's Spark cache manager negotiates with
    when deciding storage levels (§5.2).
    """

    def __init__(self, config: SparkConfig, stats: Stats,
                 tracer=None, faults=None, arbiter=None) -> None:
        self._config = config
        self._stats = stats
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if arbiter is None:
            arbiter = MemoryArbiter(stats, tracer=self._tracer, faults=faults)
        self.arbiter: MemoryArbiter = arbiter
        self._faults = faults if faults is not None else arbiter.faults
        # counts on the region its session registered up front, if any
        self._region = (arbiter.region(REGION_SPARK_STORAGE)
                        if REGION_SPARK_STORAGE in arbiter
                        else add_storage_region(arbiter, config))
        self._partitions: OrderedDict[tuple[int, int], _CachedPartition] = OrderedDict()
        #: RDD id -> indices of its partitions in ``_partitions``, so one
        #: RDD's storage info and unpersist do not scan every partition
        self._by_rdd: dict[int, set[int]] = {}
        self._tick = 0
        #: RDD id currently being materialized (its partitions are exempt
        #: from eviction, mirroring Spark's unroll-memory protection).
        self._computing_rdd: Optional[int] = None

    @property
    def capacity(self) -> int:
        """Total storage memory across executors."""
        return self._config.storage_memory * self._config.num_executors

    @property
    def memory_used(self) -> int:
        return self._region.used

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (``repro.obs.metrics``).

        ``spark/storage_vs_exec_frac`` is the share of the *unified*
        region (storage + execution) currently holding cached storage —
        the curve that shows storage squeezing execution memory.
        """
        config = self._config
        unified = (
            (config.storage_memory + config.execution_memory)
            * config.num_executors
        )
        used = self.memory_used
        return {
            "spark/storage_vs_exec_frac": used / unified if unified else 0.0,
            "spark/partitions_cached": float(len(self._partitions)),
        }

    def set_computing(self, rdd_id: Optional[int]) -> None:
        """Protect ``rdd_id``'s partitions from eviction while it runs."""
        self._computing_rdd = rdd_id

    def _touch(self, part: _CachedPartition) -> None:
        self._tick += 1
        part.last_access = self._tick

    # -- cache operations ---------------------------------------------------

    def put_partition(self, rdd_id: int, index: int, block: np.ndarray,
                      level: StorageLevel) -> bool:
        """Cache one partition; returns False if it could not be stored."""
        key = (rdd_id, index)
        existing = self._partitions.get(key)
        if existing is not None:
            self._touch(existing)
            self._partitions.move_to_end(key)
            return True
        nbytes = int(block.nbytes)
        if level is StorageLevel.DISK_ONLY:
            if self._spill_failed(key, nbytes):
                return False
            self._store(key, block, nbytes, level, on_disk=True)
            self._stats.inc(SPARK_PART_SPILLED)
            self._trace(EV_SPARK_PART_SPILL, key, nbytes)
            return True
        if not self._evict_until_fits(nbytes, protect_rdd=rdd_id):
            if level is StorageLevel.MEMORY_AND_DISK:
                if self._spill_failed(key, nbytes):
                    return False
                self._store(key, block, nbytes, level, on_disk=True)
                self._stats.inc(SPARK_PART_SPILLED)
                self._trace(EV_SPARK_PART_SPILL, key, nbytes)
                return True
            return False
        self._store(key, block, nbytes, level, on_disk=False)
        self._region.acquire(nbytes)
        return True

    def _store(self, key: tuple[int, int], block: np.ndarray, nbytes: int,
               level: StorageLevel, on_disk: bool) -> None:
        part = _CachedPartition(block, nbytes, level, on_disk=on_disk,
                                key=key, size=nbytes)
        self._touch(part)
        self._partitions[key] = part
        self._by_rdd.setdefault(key[0], set()).add(key[1])

    def _forget(self, key: tuple[int, int]) -> _CachedPartition:
        """Remove one partition from the store and the per-RDD index."""
        indices = self._by_rdd[key[0]]
        indices.discard(key[1])
        if not indices:
            del self._by_rdd[key[0]]
        return self._partitions.pop(key)

    def get_partition(self, rdd_id: int, index: int,
                      metrics: TaskMetrics) -> Optional[np.ndarray]:
        """Fetch a cached partition (disk reads are charged to the task)."""
        part = self._partitions.get((rdd_id, index))
        if part is None:
            return None
        if part.on_disk:
            metrics.bytes_spilled += part.nbytes
        part.hits += 1
        self._touch(part)
        self._partitions.move_to_end((rdd_id, index))
        return part.block

    def drop_rdd(self, rdd_id: int) -> int:
        """Remove every partition of ``rdd_id`` (unpersist); returns bytes freed."""
        freed = 0
        for index in list(self._by_rdd.get(rdd_id, ())):
            part = self._forget((rdd_id, index))
            if not part.on_disk:
                self._region.release(part.nbytes)
                freed += part.nbytes
        return freed

    def rdd_storage_info(self, rdd_id: int, num_partitions: int) -> dict:
        """Spark's ``getRDDStorageInfo``: materialization status and sizes."""
        indices = self._by_rdd.get(rdd_id, ())
        mem_bytes = disk_bytes = 0
        for index in indices:
            part = self._partitions[(rdd_id, index)]
            if part.on_disk:
                disk_bytes += part.nbytes
            else:
                mem_bytes += part.nbytes
        return {
            "num_cached_partitions": len(indices),
            "num_partitions": num_partitions,
            "fully_cached": len(indices) >= num_partitions > 0,
            "memory_bytes": mem_bytes,
            "disk_bytes": disk_bytes,
        }

    # -- eviction ------------------------------------------------------------

    def _candidates(self, protect_rdd: int) -> list[_CachedPartition]:
        return [
            part for k, part in self._partitions.items()
            if not part.on_disk
            and k[0] != protect_rdd
            and k[0] != self._computing_rdd
        ]

    def _evict(self, victim: _CachedPartition) -> None:
        """Drop or spill one victim partition (the region's physics)."""
        victim_key = victim.key
        self._region.release(victim.nbytes)
        self.arbiter.record_evict(REGION_SPARK_STORAGE, victim.nbytes,
                                  rdd=victim_key[0])
        if (victim.level is StorageLevel.MEMORY_AND_DISK
                and not self._spill_failed(victim_key, victim.nbytes)):
            victim.on_disk = True
            self._stats.inc(SPARK_PART_SPILLED)
            self.arbiter.record_spill(REGION_SPARK_STORAGE, victim.nbytes,
                                      rdd=victim_key[0])
            self._trace(EV_SPARK_PART_SPILL, victim_key, victim.nbytes)
        else:
            self._forget(victim_key)
            self._stats.inc(SPARK_PART_EVICTED)
            self._trace(EV_SPARK_PART_EVICT, victim_key, victim.nbytes)

    def _evict_until_fits(self, nbytes: int, protect_rdd: int) -> bool:
        """Evict partitions of other RDDs until ``nbytes`` fit."""
        return self.arbiter.ensure_space(
            REGION_SPARK_STORAGE, nbytes,
            candidates=lambda: self._candidates(protect_rdd),
            evict=self._evict, now=self._tick,
        )

    # -- fault injection -----------------------------------------------------

    def _spill_failed(self, key: tuple[int, int], nbytes: int) -> bool:
        """Draw a spill I/O fault; a failed spill loses the partition.

        The partition is simply not stored (or dropped, for an eviction
        spill) — persisted RDDs recompute it from lineage on the next
        access, so the fault costs recomputation, never correctness.
        """
        return self.arbiter.spill_fault(LANE_SP, rdd=key[0],
                                        partition=key[1], nbytes=nbytes)

    def drop_executor(self, executor_id: int, num_executors: int) -> int:
        """Drop every partition striped onto a lost executor.

        Partition ``index`` lives on executor ``index % num_executors``;
        both memory- and disk-resident copies die with the executor
        (executor-local disk).  Returns the number of partitions lost.
        """
        lost = [
            key for key in self._partitions
            if key[1] % num_executors == executor_id
        ]
        for key in lost:
            part = self._forget(key)
            if not part.on_disk:
                self._region.release(part.nbytes)
            self._trace(EV_SPARK_PART_EVICT, key, part.nbytes)
        if lost:
            self._stats.inc(FAULT_PARTITIONS_DROPPED, len(lost))
        return len(lost)

    def _trace(self, name: str, key: tuple[int, int], nbytes: int) -> None:
        """Emit a storage event on the cluster lane (no-op when off)."""
        if self._tracer.enabled:
            self._tracer.instant(name, LANE_SP, rdd=key[0],
                                 partition=key[1], nbytes=nbytes)
