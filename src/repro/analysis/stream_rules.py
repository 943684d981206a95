"""Instruction-stream analysis passes: soundness, liveness, async races.

Rule catalog (see ``docs/ANALYSIS.md``):

====== ======== ==========================================================
rule   severity finding
====== ======== ==========================================================
LIN001 error    input used before (or without) its definition
LIN002 error    hop linearized more than once
LIN003 error    reachable hop missing from the stream
LIN004 warning  stream instruction unreachable from any root
LIV001 warning  op result never consumed and not a program output
LIV002 warning  dead value holds a GPU allocation (leak until release)
LIV003 info     data leaf loaded but never consumed
ASY001 info     prefetch with zero overlap (consumer is next instruction)
ASY002 warning  prefetched device value also consumed on-device
ASY003 warning  Spark prefetch whose consumers all stay on Spark
ASY004 warning  async broadcast never consumed by a Spark op
====== ======== ==========================================================
"""

from __future__ import annotations

from repro.analysis.base import AnalysisContext
from repro.analysis.dataflow import StreamDefUse
from repro.analysis.diagnostics import Diagnostic, Severity, diag
from repro.backends.spark.backend import SPARK_OPCODES
from repro.compiler.ir import KIND_DATA, KIND_OP
from repro.core.entry import BACKEND_GPU, BACKEND_SP


def linearization_soundness(ctx: AnalysisContext) -> list[Diagnostic]:
    """Re-check a proposed order for def-before-use (rules LIN001-004).

    Validates *any* linearization — depth-first or ``max_parallelize``
    (Algorithm 2) — against the DAG it claims to schedule: every input
    defined before its consumer, no duplicates, and exact coverage of
    the reachable node set.
    """
    assert ctx.order is not None and ctx.defuse is not None
    du = ctx.defuse
    out: list[Diagnostic] = []
    for pos, consumer, inp in du.undefined_uses:
        out.append(diag(
            "LIN001", Severity.ERROR,
            f"input hop#{inp.id} ({inp.opcode}) of instruction {pos} "
            "is used before (or without) its definition", consumer,
            hint="the linearizer emitted a consumer before one of "
                 "its inputs; check max_parallelize chain extraction",
        ))
    for hop in du.duplicates:
        out.append(diag(
            "LIN002", Severity.ERROR,
            "hop linearized more than once (the instruction would "
            "execute twice)", hop,
        ))
    reachable = {h.id: h for h in ctx.nodes}
    for hid, hop in reachable.items():
        if hid not in du.def_pos:
            out.append(diag(
                "LIN003", Severity.ERROR,
                "hop reachable from the roots is missing from the "
                "stream", hop,
            ))
    for hop in ctx.order:
        if hop.id not in reachable:
            out.append(diag(
                "LIN004", Severity.WARNING,
                "stream instruction unreachable from any root "
                "(stray work)", hop,
            ))
    return out


def liveness_leak(ctx: AnalysisContext) -> list[Diagnostic]:
    """Def-use liveness over the stream (rules LIV001-LIV003).

    The analog of SystemDS's ``rmvar`` discipline: every computed value
    should either be consumed by a later instruction or escape as a
    program output.  Dead values waste compute, hold driver memory,
    and — on the GPU — hold device allocations until the post-run
    ``release_acquired`` sweep.
    """
    assert ctx.order is not None and ctx.defuse is not None
    du = ctx.defuse
    out: list[Diagnostic] = []
    for hop in ctx.order:
        if not du.is_dead(hop):
            continue
        if hop.kind == KIND_OP:
            if hop.placement == BACKEND_GPU:
                out.append(diag(
                    "LIV002", Severity.WARNING,
                    "dead GPU value: computed, never consumed, and "
                    "not a program output — the device allocation "
                    "leaks until the end-of-run release", hop,
                    hint="drop the op from the plan or consume its "
                         "result",
                ))
            else:
                out.append(diag(
                    "LIV001", Severity.WARNING,
                    "value never consumed and not a program output "
                    "(no rmvar-style cleanup exists for it)", hop,
                ))
        elif hop.kind == KIND_DATA:
            out.append(diag(
                "LIV003", Severity.INFO,
                "data leaf loaded but never consumed", hop,
            ))
    return out


def async_race(ctx: AnalysisContext) -> list[Diagnostic]:
    """Async-operator hazards in the stream (rules ASY001-ASY004, §5.1).

    Prefetch moves a remote result toward the driver while host
    instructions keep executing; broadcast moves a local result toward
    the cluster.  Both only help — and are only safe — when the
    consumers sit on the other side of the boundary and enough work is
    scheduled between issue and use.
    """
    assert ctx.order is not None and ctx.defuse is not None
    du = ctx.defuse
    pos_of = du.def_pos
    out: list[Diagnostic] = []
    for hop in ctx.order:
        if hop.kind != KIND_OP:
            continue
        consumers = [
            ctx.order[p] for p in du.uses(hop)
            if p > pos_of.get(hop.id, -1)
        ]
        if hop.prefetch:
            out.extend(_check_prefetch(hop, consumers, du))
        if hop.async_broadcast:
            out.extend(_check_broadcast(hop, consumers))
    return out


def _check_prefetch(hop, consumers,
                    du: StreamDefUse) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    first = du.first_use(hop)
    issued = du.def_pos.get(hop.id)
    if (first is not None and issued is not None
            and first == issued + 1):
        out.append(diag(
            "ASY001", Severity.INFO,
            "prefetch consumed by the immediately following "
            "instruction: zero overlap with host execution", hop,
            hint="max_parallelize should linearize the remote chain "
                 "earlier to buy overlap",
        ))
    if hop.placement == BACKEND_GPU and any(
        c.placement == BACKEND_GPU for c in consumers
    ):
        out.append(diag(
            "ASY002", Severity.WARNING,
            "device value is prefetched (async D2H copy) but also "
            "consumed on-device: the copy races the consuming "
            "kernel unless the stream orders them", hop,
            hint="either drop the prefetch flag or synchronize the "
                 "copy before the device consumer",
        ))
    if (hop.placement == BACKEND_SP
            and SPARK_OPCODES.get(hop.opcode) != "action"
            and consumers
            and all(c.placement == BACKEND_SP for c in consumers)):
        out.append(diag(
            "ASY003", Severity.WARNING,
            "Spark result is prefetched to the driver but every "
            "consumer stays on Spark: the transfer is wasted and "
            "the driver copy can go stale", hop,
            hint="prefetch is for cross-backend boundaries (§5.1); "
                 "remove the flag for Spark-internal edges",
        ))
    return out


def _check_broadcast(hop, consumers) -> list[Diagnostic]:
    if any(c.placement == BACKEND_SP for c in consumers):
        return []
    return [diag(
        "ASY004", Severity.WARNING,
        "async broadcast issued but no Spark-placed consumer reads "
        "it in this stream: the partitioning work is wasted", hop,
        hint="broadcast placement should only flag CP hops feeding "
             "Spark consumers",
    )]
