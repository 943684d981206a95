"""Distributed linear algebra over row-block RDDs.

Implements the Spark physical operators the host compiler emits (paper
Fig. 2(b), Fig. 7).  Spark owns how blocks move, not what a cell
computes: cell-wise, row-local and aggregate operators apply the CP
kernels of :mod:`repro.backends.cpu.kernels` to every row block — as the
GPU backend and the federated workers apply them to whole values — so a
Spark-placed operator computes bit for bit what the CP one does.  What
is Spark's own is distribution: the broadcast (``mapmm`` / ``bcmm``) and
shuffle (``tsmm`` / ``cpmm``) matrix multiplies, the re-blocking
shuffles (transpose, row slicing, ``rbind``) and aggregate actions that
fold per-block kernel partials on the driver.  :data:`SPARK_OPCODES` is
the one list of what Spark runs.  Each operator returns a new (lazy)
:class:`DistributedMatrix`; only actions materialize results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.cpu import kernels
from repro.backends.cpu.kernels import BINARY_UFUNCS
from repro.backends.spark.broadcast import Broadcast
from repro.backends.spark.context import SparkContext
from repro.backends.spark.rdd import RDD, NarrowDependency
from repro.common.costs import ELEMENTWISE_20
from repro.common.simclock import SimFuture
from repro.runtime.values import MatrixValue, ScalarValue, Value, as_matrix

#: aggregate actions: opcode -> (CP kernel computing each row block's
#: partial, ``BINARY_UFUNCS`` entry folding the partials on the driver,
#: whether the fold is divided by the cells each output cell covers)
AGGREGATE_ACTIONS: dict[str, tuple[str, str, bool]] = {
    "uak+": ("uak+", "+", False),
    "uamean": ("uak+", "+", True),
    "uack+": ("uack+", "+", False),
    "uacmean": ("uack+", "+", True),
    "uamax": ("uamax", "max", False),
    "uamin": ("uamin", "min", False),
}

#: every opcode with a Spark physical operator, by the operator that runs
#: it: ``cellwise`` (:meth:`SparkBackend.cellwise`), ``blockwise`` and
#: ``row_aggregate`` (:meth:`SparkBackend.blockwise` — a row block holds
#: whole rows), ``action`` (:meth:`SparkBackend.aggregate`), ``matmul``
#: (a pattern of ``runtime.placement.matmul_pattern``) and ``reorg``
#: (transpose, ``rbind``, slicing).  Placement, the dispatch, the
#: prefetch rewrite and the analysis rules all read this table.
SPARK_OPCODES: dict[str, str] = {
    **dict.fromkeys(BINARY_UFUNCS, "cellwise"),
    **dict.fromkeys(("exp", "log", "sqrt", "abs", "sign", "round", "relu",
                     "sigmoid", "tanh", "replace"), "blockwise"),
    **dict.fromkeys(("uark+", "uarmean", "uarmax"), "row_aggregate"),
    **dict.fromkeys(AGGREGATE_ACTIONS, "action"),
    **dict.fromkeys(("r'", "rbind", "rightIndex"), "reorg"),
    "ba+*": "matmul",
}


def _kernel_map(rdd: RDD, opcode: str, attrs: dict, name: str) -> RDD:
    """Narrow RDD applying ``opcode``'s CP kernel to every row block."""

    def fn(block: np.ndarray) -> np.ndarray:
        return as_matrix(kernels.execute(opcode, [MatrixValue(block)], attrs))

    return rdd.map_blocks(fn, name, 20.0 if opcode in ELEMENTWISE_20 else 1.0)


def _stack_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """Reduce side of the row re-blocking shuffles: stack row pieces.

    Pieces that are consecutive C-ordered rows of one buffer (row blocks
    of one driver matrix) come back as one read-only view of that
    buffer, whose ``.base`` is the buffer again; anything else is copied
    by ``np.vstack``.  A single piece is returned as is.
    """
    first = blocks[0]
    if len(blocks) == 1:
        return first
    base = first.base
    if isinstance(base, np.ndarray) and base.flags.c_contiguous:
        start = end = first.ctypes.data
        for b in blocks:
            if (b.base is not base or not b.flags.c_contiguous
                    or b.dtype != first.dtype or b.shape[1] != first.shape[1]
                    or b.ctypes.data != end):
                break
            end += b.nbytes
        else:
            rows = sum(b.shape[0] for b in blocks)
            view = np.ndarray((rows, first.shape[1]), first.dtype, buffer=base,
                              offset=start - base.ctypes.data)
            view.flags.writeable = False
            return view
    return np.vstack(blocks)


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

    # -- kernels per row block ----------------------------------------------

    def blockwise(self, opcode: str, dm: DistributedMatrix, ncol: int,
                  attrs: dict | None = None) -> DistributedMatrix:
        """``opcode``'s CP kernel on every row block, into ``ncol`` columns.

        Right for every operator a row block answers alone: unary ops,
        ``replace``, row aggregates and column slices.
        """
        rdd = _kernel_map(dm.rdd, opcode, attrs or {}, opcode)
        return DistributedMatrix(rdd, dm.nrow, ncol)

    def cellwise(self, opcode: str,
                 left: DistributedMatrix | Broadcast | float,
                 right: DistributedMatrix | Broadcast | float,
                 ) -> DistributedMatrix:
        """Cell-wise binary ``left <opcode> right`` through its CP kernel.

        Each operand is a :class:`DistributedMatrix`, a :class:`Broadcast`
        (a row vector or small matrix joined map-side against every row
        block) or a python float; two distributed operands zip partition
        by partition.  The RDD is named ``<opcode>s`` against a scalar,
        ``<opcode>bc`` against a broadcast and ``<opcode>`` for a zip.
        """
        operands = (left, right)
        parents = [o.rdd for o in operands if isinstance(o, DistributedMatrix)]
        bcs = [o for o in operands if isinstance(o, Broadcast)]
        scalars = [ScalarValue(o) for o in operands if isinstance(o, float)]
        # a task passes the parents' blocks, then the broadcast value;
        # when the distributed operand is on the right, reverse them
        swap = not isinstance(left, DistributedMatrix)

        def fn(*blocks: np.ndarray) -> np.ndarray:
            values: list[Value] = [MatrixValue(b) for b in blocks]
            values += scalars
            if swap:
                values.reverse()
            return kernels.execute(opcode, values, {}).data

        name = opcode + ("bc" if bcs else "s" if scalars else "")
        rdd = parents[0].map_blocks(
            fn, name, zip_with=parents[1] if len(parents) > 1 else None,
            broadcast=bcs[0] if bcs else None,
        )
        nrow, ncol = np.broadcast_shapes(
            *(o.shape for o in operands if not isinstance(o, float)))
        return DistributedMatrix(rdd, nrow, ncol)

    def aggregate(self, opcode: str, dm: DistributedMatrix,
                  asynchronous: bool = False) -> Value | SimFuture:
        """Aggregate action over :data:`AGGREGATE_ACTIONS`.

        Every row block's CP-kernel partial is folded on the driver with
        the matching ``BINARY_UFUNCS`` entry; the result is the value, or
        — ``asynchronous``, for a prefetch-flagged action (§5.1) — a
        future of it.
        """
        kernel, fold, mean = AGGREGATE_ACTIONS[opcode]
        partials = _kernel_map(dm.rdd, kernel, {}, kernel + "_partial")
        combine = BINARY_UFUNCS[fold]

        def finish(out: np.ndarray) -> Value:
            if mean:
                out = out / (dm.nrow * dm.ncol / out.size)
            # the partial kernel over the one folded partial returns it
            # unchanged, as the scalar or matrix value CP would return
            return kernels.execute(kernel, [MatrixValue(out)], {})

        if not asynchronous:
            return finish(self.sc.reduce(partials, combine))
        raw = self.sc.reduce_async(partials, combine)
        return SimFuture(self.sc.clock, raw.ready_time, finish(raw.value),
                         label=f"agg:{opcode}")

    # -- matrix multiplies ---------------------------------------------------

    def mapmm(self, dm: DistributedMatrix, bc: Broadcast,
              bc_ncol: int) -> DistributedMatrix:
        """Broadcast-based multiply ``X %*% B`` with small broadcast B."""
        rdd = dm.rdd.map_blocks(
            lambda blk, B: blk @ B, "mapmm",
            flops_per_cell=2.0 * dm.ncol, broadcast=bc,
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
        zipped = a.rdd.map_blocks(
            lambda x, y: x.T @ y, "cpmm_partial",
            flops_per_cell=2.0 * min(a.nrow, b.nrow) / max(a.rdd.num_partitions, 1),
            zip_with=b.rdd,
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
        """Row range ``[rl0, ru0)`` (0-based) via a repartitioning shuffle.

        An output block whose rows come from consecutive row blocks of one
        driver matrix is a read-only view of that matrix, not a copy.
        """
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

        rdd = dm.rdd.shuffle(map_side, _stack_rows, out_parts, "sliceRows")
        return DistributedMatrix(rdd, out_rows, dm.ncol)

    def rbind(self, a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
        """Row append with re-blocking into uniform row partitions.

        Every operator that maps partition index to global row offsets
        (broadcast-left multiplies, row slicing) relies on the invariant
        that partition *i* holds rows ``[i*bs, (i+1)*bs)``; a plain union
        would break it, so the append shuffles rows back into uniform
        blocks — matching SystemDS's reblock after rbind.  Blocks are views
        as in :meth:`slice_rows`; one straddling two matrices is a copy.
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

        rdd = union.shuffle(map_side, _stack_rows, out_parts, "rbind")
        return DistributedMatrix(rdd, total, a.ncol)


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
