"""Cluster-wide BlockManager: storage memory and disk spilling.

Models the aggregate storage region of all executors (paper §2.2): cached
RDD partitions live here under a byte budget.  A partition that does not
fit is not stored: a ``MEMORY_AND_DISK`` one goes to executor-local disk,
a ``MEMORY_ONLY`` one is recomputed from lineage on the next access —
Spark's own behaviour when it has nothing to evict.  No partition is
ever evicted to make room (no run fills the region).

Storage-memory accounting routes through the shared
:class:`~repro.memory.arbiter.MemoryArbiter` (the ``SP_BLOCKS`` region)
with the reserve/commit protocol of ``LineageCache.put``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.config import SparkConfig, StorageLevel
from repro.common.stats import (
    FAULT_PARTITIONS_DROPPED,
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
    on_disk: bool = False


def add_storage_region(arbiter: MemoryArbiter,
                       config: SparkConfig) -> MemoryRegion:
    """Register the aggregate executor storage region (``SP_BLOCKS``)."""
    return arbiter.add_region(
        REGION_SPARK_STORAGE,
        config.storage_memory * config.num_executors,
    )


class BlockManager:
    """Unified storage region shared by all executors of the cluster.

    Models Spark's aggregate storage memory (paper §2.2): cached RDD
    partitions under a byte budget, spilling to disk what does not fit —
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
        # counts on the region its session registered up front, if any
        self._region = (arbiter.region(REGION_SPARK_STORAGE)
                        if REGION_SPARK_STORAGE in arbiter
                        else add_storage_region(arbiter, config))
        self._partitions: dict[tuple[int, int], _CachedPartition] = {}
        #: RDD id -> indices of its partitions in ``_partitions``, so one
        #: RDD's storage info and unpersist do not scan every partition
        self._by_rdd: dict[int, set[int]] = {}

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

    # -- cache operations ---------------------------------------------------

    def put_partition(self, rdd_id: int, index: int, block: np.ndarray,
                      level: StorageLevel) -> bool:
        """Cache one partition; returns False if it could not be stored.

        What does not fit in memory spills (``MEMORY_AND_DISK``) or is
        not stored (``MEMORY_ONLY``: recomputed on the next access).
        """
        key = (rdd_id, index)
        if key in self._partitions:
            return True
        nbytes = int(block.nbytes)
        if level is not StorageLevel.DISK_ONLY and \
                self.arbiter.reserve(REGION_SPARK_STORAGE, nbytes):
            self._region.commit(nbytes)
            self._store(key, block, nbytes, on_disk=False)
            return True
        if level is StorageLevel.MEMORY_ONLY or self._spill_failed(key, nbytes):
            return False
        self._store(key, block, nbytes, on_disk=True)
        self._stats.inc(SPARK_PART_SPILLED)
        self._trace(EV_SPARK_PART_SPILL, key, nbytes)
        return True

    def _store(self, key: tuple[int, int], block: np.ndarray, nbytes: int,
               on_disk: bool) -> None:
        self._partitions[key] = _CachedPartition(block, nbytes, on_disk)
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

    # -- fault injection -----------------------------------------------------

    def _spill_failed(self, key: tuple[int, int], nbytes: int) -> bool:
        """Draw a spill I/O fault; a failed spill loses the partition.

        The partition is simply not stored — persisted RDDs recompute it
        from lineage on the next access, so the fault costs
        recomputation, never correctness.
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
