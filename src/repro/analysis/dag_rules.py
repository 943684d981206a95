"""DAG-level analysis passes: structure, placement, lineage determinism.

Rule catalog (see ``docs/ANALYSIS.md``):

====== ======== ==========================================================
rule   severity finding
====== ======== ==========================================================
DAG001 error    cycle in the HOP DAG
DAG002 error    data leaf with no live handle and no bundle
DAG003 error    hop shape inconsistent with ``infer_shape``
DAG004 error    kind/structure illegality (literal with inputs, ...)
DAG005 error    shape inference failed (unknown opcode / bad attrs)
DAG006 warning  non-positive shape dimension
PLC001 error    Spark-placed hop with no Spark physical operator
PLC002 error    hop placed on a disabled backend
PLC003 error    GPU-placed hop with no GPU kernel
PLC004 error    GPU op memory estimate exceeds device memory
PLC005 warning  GPU op memory estimate exceeds operation memory
PLC006 error    prefetch flag on a CP-placed hop (§5.1)
PLC007 error    async-broadcast flag on a non-CP hop (§5.1)
PLC008 warning  broadcast value exceeds the driver broadcast limit
PLC009 error    op left unplaced in a partially placed DAG
PLC010 error    consumed data leaf has no materialized payload
PLC011 error    CP-placed op with no CPU kernel
DET001 error    ``rand`` without a seed attribute (nondeterministic key)
DET002 warning  ``dropout`` without a seed attribute
DET003 error    distinct hops share a lineage key but differ in shape
DET004 info     distinct hops share a lineage key (missed CSE)
DET005 warning  attr stringified with a memory address (unstable key)
DET006 info     non-primitive attr value serialized via ``str()``
====== ======== ==========================================================
"""

from __future__ import annotations

import re

from repro.analysis.base import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, diag
from repro.common.config import MemphisConfig
from repro.common.errors import CompilationError
from repro.compiler.ir import (
    KIND_DATA,
    KIND_LITERAL,
    KIND_OP,
    Hop,
    infer_shape,
)
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP

_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]{6,}")


def dag_verify(ctx: AnalysisContext) -> list[Diagnostic]:
    """Structural verification of the HOP DAG (rules DAG001-DAG006).

    The one pass that also runs on a cyclic DAG: it *reports* the cycle.
    """
    out: list[Diagnostic] = []
    if ctx.cyclic:
        out.append(diag(
            "DAG001", Severity.ERROR,
            "cycle in the HOP DAG (a rewrite created a back edge); "
            "downstream dataflow passes were skipped",
            hint="inspect the most recent rewrite; hop DAGs must stay "
                 "acyclic for linearization to exist",
        ))
    for hop in ctx.nodes:
        out.extend(_check_structure(hop))
        if hop.kind == KIND_OP and not ctx.cyclic:
            out.extend(_check_shape(hop))
    return out


def _check_structure(hop: Hop) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if hop.kind == KIND_LITERAL:
        if hop.inputs:
            out.append(diag(
                "DAG004", Severity.ERROR,
                "literal hop has inputs", hop,
                hint="literals are leaves; use an op hop instead",
            ))
        if hop.shape != (1, 1):
            out.append(diag(
                "DAG004", Severity.ERROR,
                f"literal hop has non-scalar shape {hop.shape}", hop,
            ))
    elif hop.kind == KIND_DATA:
        if hop.inputs:
            out.append(diag(
                "DAG004", Severity.ERROR,
                "data leaf has inputs", hop,
            ))
        if hop.bundle is None and hop.handle is None:
            out.append(diag(
                "DAG002", Severity.ERROR,
                "data leaf has no live handle and no lineage bundle "
                "(its payload cannot be located at runtime)", hop,
                hint="keep a reference to the producing handle, or "
                     "attach hop.bundle before compiling",
            ))
    elif hop.kind == KIND_OP:
        if hop.opcode in ("data", "lit"):
            out.append(diag(
                "DAG004", Severity.ERROR,
                f"op hop with leaf opcode {hop.opcode!r}", hop,
            ))
    else:
        out.append(diag(
            "DAG004", Severity.ERROR,
            f"unknown hop kind {hop.kind!r}", hop,
        ))
    if hop.shape[0] <= 0 or hop.shape[1] <= 0:
        out.append(diag(
            "DAG006", Severity.WARNING,
            f"non-positive shape {hop.shape}", hop,
            hint="empty intermediates usually indicate inverted "
                 "indexing bounds or a degenerate seq/rand range",
        ))
    return out


def _check_shape(hop: Hop) -> list[Diagnostic]:
    try:
        expected = infer_shape(
            hop.opcode, [h.shape for h in hop.inputs], hop.attrs
        )
    except (CompilationError, KeyError, ValueError, TypeError) as exc:
        return [diag(
            "DAG005", Severity.ERROR,
            f"shape inference failed: {exc}", hop,
        )]
    if expected != hop.shape:
        return [diag(
            "DAG003", Severity.ERROR,
            f"hop shape {hop.shape} inconsistent with inferred "
            f"{expected}", hop,
            hint="a rewrite mutated inputs or attrs without "
                 "re-deriving the output shape",
        )]
    return []


def placement_legality(ctx: AnalysisContext) -> list[Diagnostic]:
    """Backend-placement legality (rules PLC001-PLC011, §5.1/§2.1).

    Only meaningful after the placement pass has run; on a fully
    unplaced DAG (e.g. ``Hop.validate()`` before compilation) every
    check is skipped.
    """
    ops = [h for h in ctx.nodes if h.kind == KIND_OP]
    placed = [h for h in ops if h.placement is not None]
    if not placed:
        return []
    out: list[Diagnostic] = []
    for hop in ops:
        out.extend(_check_op(hop, ctx.config))
    for hop in ctx.nodes:
        if hop.kind == KIND_DATA:
            out.extend(_check_data(hop))
    return out


def _check_op(hop: Hop, cfg: MemphisConfig) -> list[Diagnostic]:
    from repro.backends.cpu.kernels import supported_opcodes
    from repro.backends.gpu.backend import GPU_OPCODES
    from repro.runtime.placement import spark_supported

    out: list[Diagnostic] = []
    if hop.placement is None:
        out.append(diag(
            "PLC009", Severity.ERROR,
            "op left unplaced while siblings carry backend tags", hop,
            hint="assign_placements must cover every op reachable "
                 "from the roots",
        ))
        return out
    if hop.placement == BACKEND_SP:
        if not cfg.spark_enabled:
            out.append(diag(
                "PLC002", Severity.ERROR,
                "hop placed on Spark but spark_enabled is False", hop,
            ))
        if not spark_supported(hop, cfg):
            out.append(diag(
                "PLC001", Severity.ERROR,
                f"no Spark physical operator for {hop.opcode!r} "
                f"with input shapes "
                f"{[h.shape for h in hop.inputs]}", hop,
                hint="the runtime dispatch would raise "
                     "PlacementError; place this op on CP or add "
                     "a Spark operator",
            ))
    elif hop.placement == BACKEND_GPU:
        if not cfg.gpu_enabled:
            out.append(diag(
                "PLC002", Severity.ERROR,
                "hop placed on the GPU but gpu_enabled is False", hop,
            ))
        if hop.opcode not in GPU_OPCODES:
            out.append(diag(
                "PLC003", Severity.ERROR,
                f"no GPU kernel for {hop.opcode!r}", hop,
            ))
        if hop.memory_estimate > cfg.gpu.device_memory:
            out.append(diag(
                "PLC004", Severity.ERROR,
                f"GPU op needs {hop.memory_estimate} B, device has "
                f"{cfg.gpu.device_memory} B", hop,
                hint="the allocation cannot be served even with an "
                     "empty device; place the op on CP or Spark",
            ))
        elif hop.memory_estimate > cfg.cpu.operation_memory_bytes:
            out.append(diag(
                "PLC005", Severity.WARNING,
                "GPU op memory estimate exceeds the operation-memory "
                "budget the placement heuristic enforces (§2.1)", hop,
            ))
    elif hop.placement == BACKEND_CP:
        if hop.opcode not in supported_opcodes():
            out.append(diag(
                "PLC011", Severity.ERROR,
                f"no CPU kernel for {hop.opcode!r}", hop,
            ))
    # asynchronous-operator flags (§5.1): prefetch pulls a *remote*
    # result toward the driver; broadcast pushes a *local* result
    # toward the cluster — each flag is only legal on one side.
    if hop.prefetch and hop.placement == BACKEND_CP:
        out.append(diag(
            "PLC006", Severity.ERROR,
            "prefetch flag on a CP-placed hop (nothing to fetch)", hop,
        ))
    if hop.async_broadcast:
        if hop.placement != BACKEND_CP:
            out.append(diag(
                "PLC007", Severity.ERROR,
                "async-broadcast flag on a non-CP hop (only local "
                "results are broadcast)", hop,
            ))
        elif hop.output_bytes > cfg.spark.driver_memory // 4:
            out.append(diag(
                "PLC008", Severity.WARNING,
                f"broadcast value of {hop.output_bytes} B exceeds the "
                f"driver broadcast limit "
                f"{cfg.spark.driver_memory // 4} B", hop,
            ))
    return out


def _check_data(hop: Hop) -> list[Diagnostic]:
    if hop.bundle is not None:
        payloads = hop.bundle[1]
    elif hop.handle is not None:
        payloads = hop.handle.payloads
    else:
        return []  # DAG002 already covers the missing handle
    if payloads:
        return []
    return [diag(
        "PLC010", Severity.ERROR,
        "data leaf has no materialized payload on any backend", hop,
        hint="evaluate the producing handle (or rebind its payloads) "
             "before consuming it",
    )]


#: opcodes drawing randomness; the seed attr makes them deterministic.
_RANDOMIZED = {"rand": "DET001", "dropout": "DET002"}


def lineage_determinism(ctx: AnalysisContext) -> list[Diagnostic]:
    """Lineage-key safety (rules DET001-DET006, §3).

    Reuse is only sound when a lineage key *uniquely identifies* an
    intermediate: randomized ops must carry their seed as a data item,
    attr serialization must be stable across runs, and no two distinct
    computations may collide on one key.
    """
    out: list[Diagnostic] = []
    keys: dict[tuple, Hop] = {}
    key_of: dict[int, tuple] = {}
    for hop in ctx.nodes:  # post-order: inputs are keyed first
        out.extend(_check_attrs(hop))
        key = _lineage_key(hop, key_of)
        key_of[hop.id] = key
        other = keys.get(key)
        if other is None:
            keys[key] = hop
        elif other is not hop and not (
            hop.kind == KIND_LITERAL and other.kind == KIND_LITERAL
        ):
            # duplicate literals cost nothing and are never cached
            out.append(_collision(hop, other))
    return out


def _check_attrs(hop: Hop) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    rule = _RANDOMIZED.get(hop.opcode)
    if rule is not None and hop.kind == KIND_OP \
            and "seed" not in hop.attrs:
        severity = (
            Severity.ERROR if rule == "DET001" else Severity.WARNING
        )
        out.append(diag(
            rule, severity,
            f"randomized op {hop.opcode!r} has no 'seed' attribute: "
            "its lineage key does not identify its value, so a cache "
            "hit would silently replay stale randomness", hop,
            hint="thread an explicit seed through the attrs "
                 "(Session.rand does this automatically)",
        ))
    for name, value in hop.attrs.items():
        if isinstance(value, (int, float, bool, str)):
            continue
        text = str(value)
        if _ADDRESS_RE.search(text):
            out.append(diag(
                "DET005", Severity.WARNING,
                f"attr {name!r} stringifies with a memory address "
                f"({text[:60]!r}): the lineage key changes every "
                "run, defeating reuse and breaking RECOMPUTE", hop,
                hint="give the attr value a stable __str__ or pass "
                     "a primitive",
            ))
        else:
            out.append(diag(
                "DET006", Severity.INFO,
                f"attr {name!r} of type {type(value).__name__} is "
                "serialized via str(); ensure the repr is stable "
                "across processes", hop,
            ))
    return out


def _lineage_key(hop: Hop, key_of: dict[int, tuple]) -> tuple:
    """Mirror the runtime's lineage-item construction statically.

    Data leaves key on their bound :class:`LineageItem`, whose
    equality is whole-lineage-DAG content equality — exactly what
    the runtime cache hashes on.  ``Session.read`` produces
    ``LineageItem('data', (name,))``, so two reads sharing a name
    compare equal; a leaf rebound after evaluation keeps the full
    lineage of the computation that produced it.  Leaves with no
    lineage fall back to hop identity, which can never collide.
    """
    if hop.kind == KIND_LITERAL:
        return ("lit", hop.value)
    if hop.kind == KIND_DATA:
        lineage = None
        if hop.bundle is not None:
            lineage = hop.bundle[0]
        elif hop.handle is not None:
            lineage = hop.handle.lineage
            if lineage is None and hop.handle.name is not None:
                return ("data", hop.handle.name)
        if lineage is None:
            return ("data", id(hop))
        return ("data", lineage)
    attr_items = tuple(
        (k, hop.attrs[k] if isinstance(
            hop.attrs[k], (int, float, bool, str)
        ) else str(hop.attrs[k]))
        for k in sorted(hop.attrs)
    )
    return (hop.opcode, attr_items,
            tuple(key_of[h.id] for h in hop.inputs))


def _collision(hop: Hop, other: Hop) -> Diagnostic:
    if hop.shape != other.shape:
        return diag(
            "DET003", Severity.ERROR,
            f"lineage key collides with hop#{other.id} "
            f"({other.opcode}) of different shape {other.shape} vs "
            f"{hop.shape}: a cache hit would substitute the wrong "
            "value", hop,
            hint="two data leaves reusing one dataset name for "
                 "different contents is the usual culprit",
        )
    if hop.kind == KIND_DATA:
        return diag(
            "DET004", Severity.INFO,
            f"two data leaves (hop#{other.id}, hop#{hop.id}) share "
            "one lineage item; they alias in the lineage cache", hop,
        )
    return diag(
        "DET004", Severity.INFO,
        f"duplicate computation: same lineage key as hop#{other.id} "
        f"({other.opcode}); CSE should have merged these", hop,
    )
