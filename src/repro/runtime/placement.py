"""Operator placement: assign each hop to CP, Spark, or GPU.

Follows SystemDS's heuristics (paper §2.1): operations whose worst-case
memory estimate exceeds the driver's operation memory are compiled to
Spark instructions; compute-intensive dense operations are placed on the
GPU when enabled; everything else runs on the local CPU — all in a
data-locality-aware manner (inputs already resident on a backend pull
their consumers toward it).

Placement runs first in the compile pipeline
(:meth:`repro.core.session.Session._compile`): the backend tag decides
which EXECUTE stage the dispatch loop takes per instruction (paper
Fig. 4), which probes the REUSE step may issue in ``LOCAL_ONLY`` mode
(§4.1 — LIMA probes only CP instructions), and which rewrites apply
downstream.  Prefetch/broadcast (§5.1), checkpoints (§5.2) and the
transpose a Spark ``tsmm``/``cpmm`` reads through only concern Spark-
or GPU-placed ops, so :func:`assign_placements` also answers whether
any op of the block is remote — placed now or by an earlier block —
and a block that has none skips the walk that decides them
(:func:`repro.compiler.plan.block_flags`).  The whole pass is a single
walk over the shared post-order node list, and an op's inputs are read
once for the scalar test, locality and the memory estimate — see
docs/PERFORMANCE.md.
Lowering (:func:`~repro.compiler.plan.block_flags`) records each Spark
op's :func:`spark_operator`; the interpreter runs the one it names.
"""

from __future__ import annotations

from repro.backends.gpu.backend import GPU_OPCODES
from repro.backends.spark.backend import SPARK_OPCODES
from repro.common.config import MemphisConfig
from repro.compiler.ir import (KIND_DATA, KIND_LITERAL, KIND_OP, Hop,
                               index_bounds)
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.memory.budget import gpu_working_set


def spark_supported(hop: Hop, config: MemphisConfig) -> bool:
    """Whether a Spark physical operator exists for this hop."""
    return spark_operator(hop, config) is not None


def spark_operator(hop: Hop, config: MemphisConfig) -> str | None:
    """The physical operator of a Spark op (§4.2, Fig. 7), or ``None``:
    its :data:`SPARK_OPCODES` kind, refined for a matmul, a cell-wise
    binary (a 1x1 side is a scalar, a one-row side a broadcast, right
    first) and a slice."""
    operator = SPARK_OPCODES.get(hop.opcode)
    if operator == "matmul":
        return matmul_pattern(hop, config)
    if operator == "cellwise":
        left, right = [h.shape for h in hop.inputs]
        return ("scalar_right" if right == (1, 1)
                else "scalar_left" if left == (1, 1)
                else "broadcast_right" if right[0] == 1
                else "broadcast_left" if left[0] == 1 else "zip")
    if operator == "slice":
        shape = hop.inputs[0].shape
        rl, ru, cl, cu = index_bounds(hop.attrs, shape)
        cols = (cl, cu) != (1, shape[1])
        if (rl, ru) != (1, shape[0]):
            return "slice_both" if cols else "slice_rows"
        return "slice_cols" if cols else "slice_none"
    return operator


def matmul_pattern(hop: Hop, config: MemphisConfig) -> str | None:
    """Classify a distributed matrix multiply (mirrors SystemDS): a
    Spark matmul's :func:`spark_operator`, chosen at compile time.

    Returns one of ``tsmm``/``cpmm``/``mapmm``/``bcmm`` or ``None``.
    "Distributed" sides are those above the operation-memory budget;
    broadcastable sides must additionally fit the driver's broadcast
    limit.  ``t(A) %*% A`` is ``tsmm`` only when the transpose's input
    *is* the right operand: every data leaf owns its bundle (one per
    ``Session.read`` / ``MatrixHandle.bind``, and CSE merges the leaves
    of one live handle), so comparing the leaves compares the bundles —
    never their weakly held handles, which read equal once collected.
    """
    left, right = hop.inputs
    op_mem = config.cpu.operation_memory_bytes
    bc_limit = config.spark.driver_memory // 4
    if left.opcode == "r'":
        base = left.inputs[0]
        if base is right:
            return "tsmm"
        if base.output_bytes > op_mem and right.output_bytes > op_mem:
            return "cpmm"
    if right.output_bytes <= bc_limit and left.output_bytes > op_mem:
        return "mapmm"
    if left.output_bytes <= bc_limit and right.output_bytes > op_mem:
        return "bcmm"
    return None


def assign_placements(nodes: list[Hop], config: MemphisConfig) -> bool:
    """Annotate every hop of ``nodes`` with a backend tag; return
    whether any *op* hop is on Spark or the GPU.

    ``nodes`` is the block's post-order (inputs before consumers —
    placement is locality-aware, so inputs must be tagged first), the
    one traversal the compile pipeline shares.  The answer covers op
    hops placed now and op hops an earlier block placed (a placement is
    never revised); data leaves and literals do not count.  With no
    remote op hop the §5 rewrites and the Spark transpose fusion have
    nothing to flag, so the compile pipeline skips
    :func:`~repro.compiler.plan.block_flags`.
    """
    op_mem = config.cpu.operation_memory_bytes
    remote = False
    for hop in nodes:
        placement = hop.placement
        kind = hop.kind
        if placement is None:
            if kind == KIND_LITERAL:
                hop.placement = BACKEND_CP
                continue
            if kind == KIND_DATA:
                hop.placement = data_location(hop)
                continue
            placement = hop.placement = _place_op(hop, config, op_mem)
        elif kind != KIND_OP:
            continue
        if placement == BACKEND_SP or placement == BACKEND_GPU:
            remote = True
    return remote


def data_location(hop: Hop) -> str:
    """Where a data hop's payload already lives (locality, §2.1).

    Iteratively updated variables carry materialized payloads from the
    previous ``compute()``; preferring their resident backend (Spark
    over GPU over CP) is what pulls a steady-state training loop onto
    one backend instead of bouncing transfers every iteration.
    """
    handle = hop.handle
    if handle is not None and handle.payloads:
        for backend in (BACKEND_SP, BACKEND_GPU, BACKEND_CP):
            if backend in handle.payloads:
                return backend
    return BACKEND_CP


def _place_op(hop: Hop, config: MemphisConfig, op_mem: int) -> str:
    """SystemDS-style backend choice for one operation hop (§2.1).

    Precedence: scalars stay on the driver; Spark wins when the memory
    estimate exceeds the operation budget or distributed inputs make
    collecting more expensive than staying out; the GPU takes dense
    compute-heavy ops above ``gpu.min_cells``; CP is the default.  The
    caller guarantees inputs are already tagged (post-order).
    """
    # one read of the inputs serves the scalar test, locality and the
    # memory estimate (inputs + output, dense)
    shape = hop.shape
    scalar = shape == (1, 1)
    inputs_on_sp = False
    estimate = out = hop.output_bytes
    for h in hop.inputs:
        if scalar and h.shape != (1, 1):
            scalar = False
        if h.placement == BACKEND_SP:
            inputs_on_sp = True
        estimate += h.output_bytes
    if scalar:
        # pure scalar arithmetic always runs on the driver
        return BACKEND_CP
    # Spark is considered only for an op over the driver's operation
    # budget or with a distributed input
    over_budget = estimate > op_mem
    if ((over_budget or inputs_on_sp) and config.spark_enabled
            and spark_supported(hop, config)):
        if over_budget or (inputs_on_sp and out > op_mem // 8):
            return BACKEND_SP
        # aggregates of distributed inputs run as Spark actions even when
        # the (small) output fits in the driver
        if SPARK_OPCODES[hop.opcode] in ("action", "row_aggregate"):
            return BACKEND_SP
        # everything else follows the memory estimate: small results of
        # distributed inputs (e.g. a weight update after a cpmm) are
        # collected and computed locally, exactly like SystemDS — this
        # also bounds the lazy lineage of iteratively updated variables
    if (
        config.gpu_enabled
        and hop.opcode in GPU_OPCODES
        and shape[0] * shape[1] >= config.gpu.min_cells
        and estimate <= op_mem
        and not inputs_on_sp
        # feasibility, not just legality: an instruction whose working
        # set cannot fit on the device at any schedule (memplan MEM001)
        # must not be placed there — it falls back to the driver, which
        # has no fixed execution budget in this runtime.  Never binds at
        # the default configuration (operation memory << device memory);
        # matters when experiments shrink gpu.device_memory.
        and gpu_working_set(hop, config.gpu.alignment)
        <= config.gpu.device_memory
    ):
        return BACKEND_GPU
    return BACKEND_CP
