"""RDD abstraction: lazy, partitioned, immutable distributed collections.

Distributed matrices are row-block partitioned: partition *i* holds rows
``[i*bs, (i+1)*bs)`` as a dense numpy block, mirroring SystemDS's binary
block matrices on Spark.  Transformations are lazy — they only build RDD
lineage — and actions trigger the :class:`~repro.backends.spark.scheduler.
DAGScheduler` to run a job (paper §2.2).

Two dependency types drive stage splitting:

* :class:`NarrowDependency` — each output partition depends on one parent
  partition; :class:`NarrowRDD` is the one narrow transformation (map,
  zip and broadcast-side operations alike — the block function is the
  caller's: the Spark backend passes CP kernels and matmul partials);
* :class:`ShuffleDependency` — all-to-all; the map side writes shuffle
  files which Spark implicitly caches until destroyed, enabling the
  shuffle-file reuse the paper exploits for unmaterialized cached RDDs.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.common.config import StorageLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.spark.broadcast import Broadcast
    from repro.backends.spark.context import SparkContext


class TaskMetrics:
    """Per-task cost accumulator used by the scheduler's time model.

    Feeds the stage-time formula of §2.2 (flops, input reads, shuffle
    writes, disk spills) that the DAGScheduler turns into simulated
    cluster time.
    """

    __slots__ = ("flops", "bytes_read", "bytes_shuffled", "bytes_spilled")

    def __init__(self) -> None:
        self.flops = 0.0
        self.bytes_read = 0
        self.bytes_shuffled = 0
        self.bytes_spilled = 0


class NarrowDependency:
    """1:1 partition dependency (no stage boundary, paper §2.2)."""

    __slots__ = ("rdd",)

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class ShuffleDependency:
    """All-to-all dependency with map-side shuffle-file caching.

    ``map_side`` maps ``(partition_index, block) -> {out_partition: block}``;
    ``reduce_side`` folds the collected blocks of one output partition.
    After the map stage runs once, ``shuffle_files`` retains the map
    outputs; subsequent jobs over the same dependency skip the map side —
    the implicit shuffle-file caching MEMPHIS exploits to reuse
    unmaterialized cached RDDs (paper §4.1).
    """

    __slots__ = ("rdd", "map_side", "reduce_side", "num_out_partitions",
                 "shuffle_files", "shuffle_bytes")

    def __init__(self, rdd: "RDD",
                 map_side: Callable[[int, np.ndarray], dict[int, np.ndarray]],
                 reduce_side: Callable[[list[np.ndarray]], np.ndarray],
                 num_out_partitions: int) -> None:
        self.rdd = rdd
        self.map_side = map_side
        self.reduce_side = reduce_side
        self.num_out_partitions = num_out_partitions
        self.shuffle_files: Optional[list[dict[int, np.ndarray]]] = None
        self.shuffle_bytes = 0


class RDD:
    """Base class of all RDD flavours.

    Lazy, immutable, lineage-tracked distributed collection (paper
    §2.2); the SP-backend payload unit of the hierarchical lineage
    cache (Table 1).
    """

    def __init__(self, context: "SparkContext", deps: list,
                 num_partitions: int, name: str) -> None:
        self.id = next(context.ids.rdd)
        self.context = context
        self.deps = deps
        self.num_partitions = num_partitions
        self.name = name
        self.storage_level: Optional[StorageLevel] = None
        self._materialized_once: set[int] = set()
        #: broadcast variables referenced by this RDD's closures (tracked
        #: explicitly so MEMPHIS's lazy GC can destroy them, §4.1).
        self.broadcast_refs: list["Broadcast"] = []
        context.register_rdd(self)

    # -- persistence -------------------------------------------------------

    def persist(self, level: StorageLevel = StorageLevel.MEMORY_AND_DISK) -> "RDD":
        """Mark this RDD for caching; materialization is lazy (§2.2)."""
        self.storage_level = level
        return self

    def unpersist(self) -> "RDD":
        """Asynchronously drop cached partitions of this RDD."""
        self.storage_level = None
        self.context.block_manager.drop_rdd(self.id)
        return self

    @property
    def is_persisted(self) -> bool:
        return self.storage_level is not None

    # -- lineage -----------------------------------------------------------

    def parents(self) -> list["RDD"]:
        """Parent RDDs over both dependency kinds."""
        return [d.rdd for d in self.deps]

    def compute(self, index: int, metrics: TaskMetrics) -> np.ndarray:
        """Compute partition ``index`` (narrow chain, consults the cache)."""
        raise NotImplementedError

    def get_partition(self, index: int, metrics: TaskMetrics) -> np.ndarray:
        """Cached-or-computed partition access (Spark's ``iterator()``).

        Within one job, each partition is computed at most once even when
        referenced along several dependency paths — mirroring how real
        plans bound recomputation at shuffle/exchange boundaries.
        """
        bm = self.context.block_manager
        if self.is_persisted:
            cached = bm.get_partition(self.id, index, metrics)
            if cached is not None:
                return cached
            if index in self._materialized_once:
                self.context.note_partition_recomputed()
        memo = self.context.job_memo
        key = (self.id, index)
        if memo is not None and key in memo:
            return memo[key]
        block = self.compute(index, metrics)
        if memo is not None:
            memo[key] = block
        if self.is_persisted:
            self._materialized_once.add(index)
            bm.put_partition(self.id, index, block, self.storage_level)
        return block

    # -- transformations (lazy) --------------------------------------------

    def map_blocks(self, fn: Callable[..., np.ndarray], name: str,
                   flops_per_cell: float = 1.0,
                   zip_with: Optional["RDD"] = None,
                   broadcast: Optional["Broadcast"] = None) -> "NarrowRDD":
        """Narrow per-block transformation: partition *i* is ``fn`` of
        this RDD's block *i*, then ``zip_with``'s block *i* (a
        partition-aligned zip), then the ``broadcast`` value (a map-side
        join)."""
        parents = [self] if zip_with is None else [self, zip_with]
        return NarrowRDD(parents, fn, name, flops_per_cell, broadcast)

    def shuffle(self, map_side, reduce_side, num_out_partitions: int,
                name: str) -> "ShuffledRDD":
        """Generic wide transformation."""
        return ShuffledRDD(self, map_side, reduce_side, num_out_partitions, name)

    def aggregate_to_single(self, block_fn, comb_fn, name: str,
                            flops_per_cell: float = 1.0) -> "ShuffledRDD":
        """Map each block to a partial result and tree-combine to one
        partition — the shuffle-based pattern of ``t(X)%*%X`` (Fig. 6/7)."""

        def map_side(idx: int, block: np.ndarray) -> dict[int, np.ndarray]:
            return {0: block_fn(block)}

        def reduce_side(blocks: list[np.ndarray]) -> np.ndarray:
            out = blocks[0]
            for other in blocks[1:]:
                out = comb_fn(out, other)
            return out

        rdd = ShuffledRDD(self, map_side, reduce_side, 1, name)
        rdd.flops_per_cell = flops_per_cell
        return rdd

    def __repr__(self) -> str:
        return f"{type(self).__name__}#{self.id}({self.name}, p={self.num_partitions})"


class ParallelizedRDD(RDD):
    """Leaf RDD over a local matrix split into row blocks (§2.2)."""

    def __init__(self, context: "SparkContext", matrix: np.ndarray,
                 block_rows: int, name: str = "parallelize") -> None:
        self._blocks = [
            matrix[i:i + block_rows]
            for i in range(0, max(matrix.shape[0], 1), block_rows)
        ] or [matrix]
        super().__init__(context, [], len(self._blocks), name)

    def compute(self, index: int, metrics: TaskMetrics) -> np.ndarray:
        block = self._blocks[index]
        metrics.bytes_read += block.nbytes
        return block


class NarrowRDD(RDD):
    """Narrow per-block transformation over one or two partition-aligned
    parents and an optional broadcast variable: the element-wise maps,
    zips and map-side joins of Fig. 7 (e.g. ``mapmm``, Fig. 2(b))."""

    def __init__(self, parents: list[RDD], fn, name: str,
                 flops_per_cell: float,
                 broadcast: Optional["Broadcast"] = None) -> None:
        first, last = parents[0], parents[-1]
        if first.num_partitions != last.num_partitions:
            raise ValueError(
                f"zip requires aligned partitioning "
                f"({first.num_partitions} vs {last.num_partitions})"
            )
        super().__init__(first.context,
                         [NarrowDependency(p) for p in parents],
                         first.num_partitions, name)
        self.broadcast = broadcast
        if broadcast is not None:
            self.broadcast_refs.append(broadcast)
        self._fn = fn
        self._flops_per_cell = flops_per_cell

    def compute(self, index: int, metrics: TaskMetrics) -> np.ndarray:
        blocks = [d.rdd.get_partition(index, metrics) for d in self.deps]
        if self.broadcast is not None:
            blocks.append(self.broadcast.value_on_executor(metrics))
        out = self._fn(*blocks)
        # flops_per_cell encodes the per-output-cell work (e.g. 2 * inner
        # dimension for a broadcast matrix multiply)
        metrics.flops += self._flops_per_cell * out.size
        return out


class ShuffledRDD(RDD):
    """Wide transformation; computing it requires its shuffle files.

    The shuffle side of stage splitting (paper §2.2); backs the
    ``tsmm``/``cpmm`` physical multiplies of Fig. 7.
    """

    def __init__(self, parent: RDD, map_side, reduce_side,
                 num_out_partitions: int, name: str) -> None:
        self.shuffle_dep = ShuffleDependency(
            parent, map_side, reduce_side, num_out_partitions
        )
        super().__init__(parent.context, [self.shuffle_dep],
                         num_out_partitions, name)
        self.flops_per_cell = 1.0

    def compute(self, index: int, metrics: TaskMetrics) -> np.ndarray:
        files = self.shuffle_dep.shuffle_files
        if files is None:
            raise RuntimeError(
                f"shuffle files of {self} not materialized; "
                "the DAGScheduler must run the map stage first"
            )
        blocks = [
            out[index] for out in files if index in out
        ]
        shuffle_bytes = sum(b.nbytes for b in blocks)
        metrics.bytes_shuffled += shuffle_bytes
        out = self.shuffle_dep.reduce_side(blocks)
        metrics.flops += self.flops_per_cell * out.size * max(len(blocks), 1)
        return out
