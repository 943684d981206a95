"""Distributed linear algebra over row-block RDDs.

Implements the Spark physical operators the host compiler emits (paper
Fig. 2(b), Fig. 7): broadcast-based matrix multiplies (``mapmm``),
shuffle-based transpose-self multiply (``tsmm``), element-wise maps/zips,
aggregations, and transpose.  Each operator returns a new (lazy)
:class:`DistributedMatrix`; only actions materialize results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.spark.broadcast import Broadcast
from repro.backends.spark.context import SparkContext
from repro.backends.spark.rdd import RDD
from repro.common.errors import SparkError
from repro.runtime.values import MatrixValue


@dataclass
class DistributedMatrix:
    """A matrix partitioned into row blocks across the cluster.

    The SP payload format of the hierarchical lineage cache (paper
    Table 1, §4.1): a lazy RDD handle plus logical dimensions, cached
    without forcing materialization.
    """

    rdd: RDD
    nrow: int
    ncol: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrow, self.ncol)

    @property
    def nbytes(self) -> int:
        return self.nrow * self.ncol * 8


_ELEMENTWISE = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power, "min": np.minimum, "max": np.maximum,
    ">": np.greater, "<": np.less, ">=": np.greater_equal,
    "<=": np.less_equal, "==": np.equal, "!=": np.not_equal,
}

_UNARY = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sign": np.sign, "round": np.round,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
}


class SparkBackend:
    """Spark physical operators on :class:`DistributedMatrix` handles.

    The distributed execution backend of Table 2 (row 3): implements the
    operator set the placement pass routes to the cluster (Fig. 7),
    including the broadcast ``mapmm`` and shuffle ``tsmm`` multiplies of
    the paper's running example (§2.2, Fig. 2(b)).
    """

    name = "SP"

    def __init__(self, context: SparkContext) -> None:
        self.sc = context

    # -- data exchange -----------------------------------------------------

    def distribute(self, value: MatrixValue, name: str = "in") -> DistributedMatrix:
        """Driver matrix -> distributed row blocks (lazy parallelize)."""
        rdd = self.sc.parallelize(value.data, name)
        return DistributedMatrix(rdd, value.nrow, value.ncol)

    def broadcast(self, value: MatrixValue) -> Broadcast:
        """Driver matrix -> torrent broadcast variable."""
        return self.sc.broadcast(value.data)

    def collect(self, dm: DistributedMatrix) -> MatrixValue:
        """Synchronous action: gather all blocks to the driver."""
        return MatrixValue(self.sc.collect(dm.rdd))

    # -- element-wise -------------------------------------------------------

    def elementwise_scalar(self, opcode: str, dm: DistributedMatrix,
                           scalar: float,
                           scalar_left: bool = False) -> DistributedMatrix:
        """Element-wise op between a distributed matrix and a scalar."""
        op = _ELEMENTWISE.get(opcode)
        if op is None:
            raise SparkError(f"unsupported Spark element-wise op {opcode!r}")
        if scalar_left:
            fn = lambda b: np.asarray(op(scalar, b), dtype=np.float64)
        else:
            fn = lambda b: np.asarray(op(b, scalar), dtype=np.float64)
        rdd = dm.rdd.map_blocks(fn, f"{opcode}s")
        return DistributedMatrix(rdd, dm.nrow, dm.ncol)

    def elementwise_zip(self, opcode: str, a: DistributedMatrix,
                        b: DistributedMatrix) -> DistributedMatrix:
        """Element-wise op between two aligned distributed matrices."""
        op = _ELEMENTWISE.get(opcode)
        if op is None:
            raise SparkError(f"unsupported Spark element-wise op {opcode!r}")
        fn = lambda x, y: np.asarray(op(x, y), dtype=np.float64)
        rdd = a.rdd.zip_blocks(b.rdd, fn, opcode)
        return DistributedMatrix(rdd, a.nrow, a.ncol)

    def elementwise_broadcast(self, opcode: str, dm: DistributedMatrix,
                              bc: Broadcast, ncol: int,
                              bc_left: bool = False) -> DistributedMatrix:
        """Element-wise op against a broadcast row vector / small matrix."""
        op = _ELEMENTWISE.get(opcode)
        if op is None:
            raise SparkError(f"unsupported Spark element-wise op {opcode!r}")
        if bc_left:
            fn = lambda blk, v: np.asarray(op(v, blk), dtype=np.float64)
        else:
            fn = lambda blk, v: np.asarray(op(blk, v), dtype=np.float64)
        rdd = dm.rdd.map_with_broadcast(bc, fn, f"{opcode}bc")
        return DistributedMatrix(rdd, dm.nrow, max(dm.ncol, ncol))

    def unary(self, opcode: str, dm: DistributedMatrix) -> DistributedMatrix:
        """Element-wise unary op."""
        op = _UNARY.get(opcode)
        if op is None:
            raise SparkError(f"unsupported Spark unary op {opcode!r}")
        flops = 20.0 if opcode in ("exp", "log", "sigmoid", "tanh") else 1.0
        rdd = dm.rdd.map_blocks(lambda b: op(b), opcode, flops)
        return DistributedMatrix(rdd, dm.nrow, dm.ncol)

    # -- matrix multiplies ---------------------------------------------------

    def mapmm(self, dm: DistributedMatrix, bc: Broadcast,
              bc_ncol: int) -> DistributedMatrix:
        """Broadcast-based multiply ``X %*% B`` with small broadcast B."""
        rdd = dm.rdd.map_with_broadcast(
            bc, lambda blk, B: blk @ B, "mapmm",
            flops_per_cell=2.0 * dm.ncol,
        )
        return DistributedMatrix(rdd, dm.nrow, bc_ncol)

    def bcmm_left(self, bc: Broadcast, bc_nrow: int,
                  dm: DistributedMatrix) -> DistributedMatrix:
        """Broadcast-left multiply ``v %*% X`` (e.g. ``y^T X``, Fig. 2(b)).

        Each block needs the matching column slice of the broadcast
        vector; partial products are summed in a single-partition shuffle.
        """
        block_rows = self.sc.config.block_size_rows

        def map_side(idx: int, blk: np.ndarray) -> dict[int, np.ndarray]:
            lo = idx * block_rows
            v = bc._value  # noqa: SLF001 - simulator-internal access
            if not bc.transferred:
                bc.transferred = True
            return {0: np.asarray(v[:, lo:lo + blk.shape[0]] @ blk)}

        rdd = dm.rdd.shuffle(
            map_side,
            lambda blocks: np.add.reduce(blocks),
            1, "bcmm",
        )
        rdd.flops_per_cell = 2.0 * dm.nrow / max(dm.rdd.num_partitions, 1)
        rdd.broadcast_refs.append(bc)
        return DistributedMatrix(rdd, bc_nrow, dm.ncol)

    def tsmm(self, dm: DistributedMatrix) -> DistributedMatrix:
        """Shuffle-based transpose-self multiply ``t(X) %*% X`` (Fig. 7)."""
        rdd = dm.rdd.aggregate_to_single(
            lambda blk: blk.T @ blk,
            lambda a, b: a + b,
            "tsmm",
            flops_per_cell=2.0 * dm.nrow / max(dm.rdd.num_partitions, 1),
        )
        return DistributedMatrix(rdd, dm.ncol, dm.ncol)

    def cpmm(self, a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
        """Shuffle-based multiply of two aligned distributed matrices:
        ``t(A) %*% B`` with A, B row-block aligned (cross-product pattern)."""
        zipped = a.rdd.zip_blocks(
            b.rdd, lambda x, y: x.T @ y, "cpmm_partial",
            flops_per_cell=2.0 * min(a.nrow, b.nrow) / max(a.rdd.num_partitions, 1),
        )
        rdd = zipped.aggregate_to_single(
            lambda blk: blk, lambda x, y: x + y, "cpmm",
        )
        return DistributedMatrix(rdd, a.ncol, b.ncol)

    # -- reorg / aggregates ---------------------------------------------------

    def transpose(self, dm: DistributedMatrix) -> DistributedMatrix:
        """Shuffle-based transpose (row blocks -> row blocks of X^T)."""
        block_rows = self.sc.config.block_size_rows
        out_parts = max(1, -(-dm.ncol // block_rows))

        def map_side(idx: int, blk: np.ndarray) -> dict[int, np.ndarray]:
            out: dict[int, np.ndarray] = {}
            t = blk.T  # (ncol x block_rows)
            for o in range(out_parts):
                lo = o * block_rows
                piece = t[lo:lo + block_rows]
                if piece.size:
                    out[o] = piece
            return out

        def reduce_side(blocks: list[np.ndarray]) -> np.ndarray:
            return np.hstack(blocks)

        rdd = dm.rdd.shuffle(map_side, reduce_side, out_parts, "r'")
        return DistributedMatrix(rdd, dm.ncol, dm.nrow)

    def slice_rows(self, dm: DistributedMatrix, rl0: int,
                   ru0: int) -> DistributedMatrix:
        """Row range ``[rl0, ru0)`` (0-based) via a repartitioning shuffle."""
        bs = self.sc.config.block_size_rows
        out_rows = ru0 - rl0
        out_parts = max(1, -(-out_rows // bs))

        def map_side(idx: int, blk: np.ndarray,
                     bs=bs, rl0=rl0, ru0=ru0) -> dict[int, np.ndarray]:
            lo = idx * bs
            s = max(lo, rl0)
            e = min(lo + blk.shape[0], ru0)
            out: dict[int, np.ndarray] = {}
            while s < e:
                o = (s - rl0) // bs
                chunk_end = min(e, rl0 + (o + 1) * bs)
                out.setdefault(o, blk[s - lo:chunk_end - lo])
                s = chunk_end
            return out

        def reduce_side(blocks: list[np.ndarray]) -> np.ndarray:
            return np.vstack(blocks) if len(blocks) > 1 else blocks[0]

        rdd = dm.rdd.shuffle(map_side, reduce_side, out_parts, "sliceRows")
        return DistributedMatrix(rdd, out_rows, dm.ncol)

    def row_sums(self, dm: DistributedMatrix) -> DistributedMatrix:
        rdd = dm.rdd.map_blocks(
            lambda b: b.sum(axis=1, keepdims=True), "uark+"
        )
        return DistributedMatrix(rdd, dm.nrow, 1)

    def rbind(self, a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
        """Row append with re-blocking into uniform row partitions.

        Every operator that maps partition index to global row offsets
        (broadcast-left multiplies, row slicing) relies on the invariant
        that partition *i* holds rows ``[i*bs, (i+1)*bs)``; a plain union
        would break it, so the append shuffles rows back into uniform
        blocks — matching SystemDS's reblock after rbind.
        """
        bs = self.sc.config.block_size_rows
        union = _UnionRDD(a.rdd, b.rdd)
        pa = a.rdd.num_partitions
        a_rows = a.nrow
        total = a.nrow + b.nrow
        out_parts = max(1, -(-total // bs))

        def map_side(idx: int, blk: np.ndarray,
                     bs=bs, pa=pa, a_rows=a_rows) -> dict[int, np.ndarray]:
            start = idx * bs if idx < pa else a_rows + (idx - pa) * bs
            out: dict[int, np.ndarray] = {}
            s = 0
            while s < blk.shape[0]:
                g = start + s
                o = g // bs
                take = min(blk.shape[0] - s, (o + 1) * bs - g)
                out[o] = blk[s:s + take]
                s += take
            return out

        def reduce_side(blocks: list[np.ndarray]) -> np.ndarray:
            return np.vstack(blocks) if len(blocks) > 1 else blocks[0]

        rdd = union.shuffle(map_side, reduce_side, out_parts, "rbind")
        return DistributedMatrix(rdd, total, a.ncol)


from repro.backends.spark.rdd import NarrowDependency  # noqa: E402


class _UnionRDD(RDD):
    """Concatenation of two RDDs' partition lists (Spark ``union``)."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.context,
            [NarrowDependency(left), NarrowDependency(right)],
            left.num_partitions + right.num_partitions,
            "union",
        )

    def compute(self, index: int, metrics) -> np.ndarray:
        left = self.deps[0].rdd
        if index < left.num_partitions:
            return left.get_partition(index, metrics)
        return self.deps[1].rdd.get_partition(index - left.num_partitions, metrics)
