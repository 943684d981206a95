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
downstream (prefetch/broadcast §5.1 and checkpoints §5.2 only concern
Spark-placed subgraphs).  The whole pass is a single walk over the
shared post-order node list — see docs/PERFORMANCE.md.
"""

from __future__ import annotations

from repro.backends.gpu.backend import GPU_OPCODES
from repro.backends.spark.backend import SPARK_OPCODES
from repro.common.config import MemphisConfig
from repro.compiler.ir import KIND_DATA, KIND_LITERAL, KIND_OP, Hop
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.memory.budget import gpu_working_set


def spark_supported(hop: Hop, config: MemphisConfig) -> bool:
    """Whether a Spark physical operator exists for this hop
    (:data:`~repro.backends.spark.backend.SPARK_OPCODES`; a matmul also
    needs one of the four patterns)."""
    kind = SPARK_OPCODES.get(hop.opcode)
    if kind == "matmul":
        return matmul_pattern(hop, config) is not None
    return kind is not None


def matmul_pattern(hop: Hop, config: MemphisConfig) -> str | None:
    """Classify a distributed matrix multiply (mirrors SystemDS); also
    what the Spark dispatch picks its physical operator by at runtime.

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


def mark_fused_transposes(nodes: list[Hop], consumers: dict,
                          config: MemphisConfig) -> None:
    """Fuse ``r'`` feeding tsmm/cpmm physical operators (skip exec).

    ``nodes`` is the block's post-order traversal and ``consumers`` its
    ``consumers_map`` (hop id -> consumer hops).
    """
    for hop in nodes:
        if hop.kind != KIND_OP or hop.opcode != "ba+*":
            continue
        if hop.placement != BACKEND_SP:
            continue
        if matmul_pattern(hop, config) not in ("tsmm", "cpmm"):
            continue
        t_hop = hop.inputs[0]
        if t_hop.opcode == "r'" and len(
                consumers.get(t_hop.id, ())) == 1:
            t_hop.fused = True


def assign_placements(roots: list[Hop], config: MemphisConfig,
                      nodes: list[Hop] | None = None) -> None:
    """Annotate every hop reachable from ``roots`` with a backend tag.

    ``nodes`` optionally supplies a precomputed post-order traversal
    (inputs before consumers — placement is locality-aware, so inputs
    must be tagged first) so the compile pipeline walks the DAG once.
    """
    op_mem = config.cpu.operation_memory_bytes
    if nodes is None:
        nodes = [hop for root in roots for hop in root.iter_dag()]
    for hop in nodes:
        if hop.placement is not None:
            continue
        if hop.kind == KIND_LITERAL:
            hop.placement = BACKEND_CP
            continue
        if hop.kind == KIND_DATA:
            hop.placement = data_location(hop)
            continue
        hop.placement = _place_op(hop, config, op_mem)


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
    if hop.shape == (1, 1) and all(h.shape == (1, 1) for h in hop.inputs):
        # pure scalar arithmetic always runs on the driver
        return BACKEND_CP
    sp_ok = config.spark_enabled and spark_supported(hop, config)
    inputs_on_sp = any(h.placement == BACKEND_SP for h in hop.inputs)
    if sp_ok and (hop.memory_estimate > op_mem
                  or (inputs_on_sp and hop.output_bytes > op_mem // 8)):
        return BACKEND_SP
    if sp_ok and inputs_on_sp:
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
        and hop.shape[0] * hop.shape[1] >= config.gpu.min_cells
        and hop.memory_estimate <= op_mem
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
