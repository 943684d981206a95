"""Reuse-aware operator fusion over the post-CSE HOP DAG.

Candidate-exploration fusion in the style of SystemML's fusion plans
(Boehm et al., PAPERS.md): chains of cell-wise/unary operators — and
matmul-epilogue patterns (a ``ba+*`` feeding such a chain) — are merged
into a single :class:`FusedHop` lowered to one fused instruction that
runs the chain's :class:`~repro.backends.cpu.vectorized.CompiledStep`
sequence without materializing interior intermediates.

Fusion is **reuse-aware**: a hop whose lineage key the cache policy may
want to retain (the Eq. 1 / Eq. 2 Cost&Size scoring in
``repro.core.policies`` assigns every deterministic operator output a
positive retention score while probing or caching is enabled) is never
absorbed into a chain, because a fused interior produces no lineage
cache entry and would silently forfeit the reuse opportunity.  In
practice this means fusion fires only under
:class:`~repro.common.config.ReuseMode` ``NONE`` and ``TRACE_ONLY`` —
exactly the settings where the paper's Fig. 11 instruction-count
overheads are measured.  Fusion also never crosses placement,
checkpoint, prefetch, or async-broadcast boundaries; the ``FUS`` rule
family in :mod:`repro.analysis.fusion_rules` re-checks every one of
these invariants statically.
"""

from __future__ import annotations

from repro.backends.cpu.vectorized import CompiledStep, compile_step
from repro.common.config import MemphisConfig, ReuseMode
from repro.common.costs import op_flops
from repro.common.runtime import IdSpace
from repro.common.stats import (
    FUSION_BYTES_SAVED,
    FUSION_CHAINS,
    FUSION_HOPS_ELIMINATED,
    Stats,
)
from repro.compiler.ir import KIND_OP, Hop
from repro.core.entry import BACKEND_CP

#: opcode of every fused instruction (one ``infer_shape`` case, one
#: interpreter dispatch branch, one PLC011 exemption).
FUSED_OPCODE = "fused"

#: reuse modes under which no lineage key is ever probed or cached, so
#: eliminating an interior intermediate cannot forfeit a reuse.
_NO_RETENTION_MODES = (ReuseMode.NONE, ReuseMode.TRACE_ONLY)

#: opcodes whose lineage keys are non-deterministic without an explicit
#: seed; the cache never retains them (DET001/DET002 territory), so they
#: are exempt from the retention check (kept in sync with
#: ``repro.analysis.dag_rules.LineageDeterminismPass.RANDOMIZED``).
_IMPURE_OPCODES = frozenset({"rand", "dropout"})


def retention_candidate(hop: Hop, config: MemphisConfig) -> bool:
    """Whether the lineage cache may want to retain ``hop``'s output.

    While the reuse mode probes or caches, the Cost&Size policy
    (Eq. 1 / Eq. 2, ``repro.core.policies``) scores every deterministic
    operator output as retainable — its compute cost is positive and a
    future probe could hit it — so fusing over it would destroy a
    potential cache entry.  Under ``NONE``/``TRACE_ONLY`` nothing is
    probed or cached and no hop is a retention candidate.  Operators
    with non-deterministic lineage keys (unseeded ``rand``/``dropout``,
    the DET-rule impurity set) are never retained in any mode.
    """
    if config.reuse_mode in _NO_RETENTION_MODES:
        return False
    if hop.opcode in _IMPURE_OPCODES and "seed" not in hop.attrs:
        return False
    return True


class FusedHop(Hop):
    """A fused cell-wise chain (optionally with a matmul prologue).

    ``inputs`` holds the chain's external data dependencies: the matrix
    source (or the matmul's two operands) followed by every scalar
    literal consumed by the chain's steps, in step order.  The original
    hops stay recorded on ``chain``/``prologue`` so execution can
    re-intern their exact per-step lineage items under ``TRACE_ONLY``.
    """

    __slots__ = ("prologue", "chain", "steps")

    def __init__(self, chain: list[Hop], steps: list[CompiledStep],
                 prologue: Hop | None = None,
                 ids: IdSpace | None = None) -> None:
        tail = chain[-1]
        source = prologue if prologue is not None else chain[0].inputs[
            steps[0].matrix_index]
        if prologue is not None:
            inputs: list[Hop] = list(prologue.inputs)
        else:
            inputs = [source]
        literals = [
            step.hop.inputs[step.scalar_index]
            for step in steps if step.scalar_index is not None
        ]
        inputs.extend(literals)
        spec = "|".join(
            step.hop.opcode
            + ("" if step.scalar_index is None
               else f"@{step.scalar_index}={step.hop.inputs[step.scalar_index].value!r}")
            for step in steps
        )
        if prologue is not None:
            spec = f"{prologue.opcode}>" + spec
        attrs = {"steps": spec, "rows": tail.shape[0], "cols": tail.shape[1]}
        super().__init__(KIND_OP, FUSED_OPCODE, inputs, attrs=attrs,
                         shape=tail.shape, ids=ids)
        self.prologue = prologue
        self.chain = chain
        self.steps = steps
        self.placement = BACKEND_CP

    @property
    def flops(self) -> float:
        """Sum of the absorbed hops' FLOPs (the work is unchanged —
        only the interior materializations disappear)."""
        total = sum(
            op_flops(h.opcode, [i.shape for i in h.inputs], h.shape)
            for h in self.chain
        )
        if self.prologue is not None:
            pro = self.prologue
            total += op_flops(pro.opcode, [i.shape for i in pro.inputs],
                              pro.shape)
        return total

    @property
    def saved_bytes(self) -> int:
        """Interior ``output_bytes`` no longer materialized (every
        absorbed hop except the tail, plus the prologue)."""
        saved = sum(h.output_bytes for h in self.chain[:-1])
        if self.prologue is not None:
            saved += self.prologue.output_bytes
        return saved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusedHop#{self.id}({self.attrs['steps']}, {self.shape})"


def _cells(hop: Hop) -> int:
    return hop.shape[0] * hop.shape[1]


def _boundary_clean(hop: Hop) -> bool:
    """No checkpoint/prefetch/broadcast/transpose-fusion flag set and
    the hop is placed locally (placement boundaries block fusion)."""
    return (not hop.checkpoint and not hop.prefetch
            and not hop.async_broadcast and not hop.fused
            and hop.placement in (None, BACKEND_CP))


def _absorbable_matmul(hop: Hop, root_ids: set[int], protected: set[int],
                       consumers: dict[int, list[Hop]],
                       config: MemphisConfig) -> bool:
    """Whether ``hop`` is a ``ba+*`` that may become a chain prologue."""
    return (hop.kind == KIND_OP and hop.opcode == "ba+*"
            and not hop.attrs and _boundary_clean(hop)
            and hop.id not in root_ids and hop.id not in protected
            and hop.handle is None
            and len(consumers.get(hop.id, ())) == 1
            and _cells(hop) > 1
            and not retention_candidate(hop, config))


def plan_fusion(root_hops: list[Hop], nodes: list[Hop],
                consumers: dict[int, list[Hop]], config: MemphisConfig,
                protected: set[int] | None = None,
                ids: IdSpace | None = None) -> list[FusedHop]:
    """Explore the DAG for fusable chains and build their FusedHops.

    A chain is a maximal run of cell-wise compilable hops linked through
    their matrix operand, where every hop except the tail is interior:
    single-consumer, unnamed (no live handle), not a block root, not in
    ``protected`` (ids with extra CSE handles), and not a retention
    candidate of the lineage cache.  The tail itself must also not be a
    retention candidate — its lineage item would otherwise have been a
    probe target with different inputs than the fused item.
    """
    protected = protected or set()
    root_ids = {h.id for h in root_hops}
    steps_by_id: dict[int, CompiledStep] = {}
    for hop in nodes:
        step = compile_step(hop)
        if step is not None:
            steps_by_id[hop.id] = step

    def interior(hop: Hop) -> bool:
        return (hop.id in steps_by_id
                and hop.id not in root_ids
                and hop.id not in protected
                and hop.handle is None
                and len(consumers.get(hop.id, ())) == 1
                and _cells(hop) > 1
                and not retention_candidate(hop, config))

    # mark hops absorbed as the *interior* of their single consumer's
    # chain, so only chain tails start an exploration
    absorbed: set[int] = set()
    for hop in nodes:
        step = steps_by_id.get(hop.id)
        if step is None:
            continue
        producer = hop.inputs[step.matrix_index]
        if interior(producer) and producer.id in steps_by_id:
            absorbed.add(producer.id)

    fused: list[FusedHop] = []
    for hop in nodes:
        if hop.id not in steps_by_id or hop.id in absorbed:
            continue
        if retention_candidate(hop, config):
            continue
        # walk the matrix spine backwards from the tail
        chain = [hop]
        cur = hop
        while True:
            producer = cur.inputs[steps_by_id[cur.id].matrix_index]
            if not interior(producer):
                break
            chain.append(producer)
            cur = producer
        chain.reverse()
        source = chain[0].inputs[steps_by_id[chain[0].id].matrix_index]
        prologue: Hop | None = None
        if _absorbable_matmul(source, root_ids, protected, consumers,
                              config):
            prologue = source
        if len(chain) < 2 and prologue is None:
            continue
        if _cells(source) <= 1:
            continue
        fused.append(FusedHop(chain, [steps_by_id[h.id] for h in chain],
                              prologue, ids))
    return fused


def apply_fusion(root_hops: list[Hop], nodes: list[Hop],
                 consumers: dict[int, list[Hop]], config: MemphisConfig,
                 stats: Stats | None = None,
                 protected: set[int] | None = None,
                 ids: IdSpace | None = None,
                 ) -> tuple[list[Hop], list[FusedHop], dict[int, Hop]]:
    """Plan fusion and splice the FusedHops into the DAG.

    Every consumer edge pointing at a fused chain's tail is repointed at
    the FusedHop (across ``nodes`` and the root list), the tail's handle
    (if any) migrates to the FusedHop, and the interiors simply drop out
    of the reachable DAG.  Returns the (possibly rewritten) root list,
    the fused nodes, and a ``{old_tail_id: fused_hop}`` remap for the
    caller's auxiliary tables (CSE ``extra`` handles).
    """
    fused = plan_fusion(root_hops, nodes, consumers, config, protected, ids)
    if not fused:
        return root_hops, [], {}
    replaced: dict[int, Hop] = {}
    for f in fused:
        tail = f.chain[-1]
        replaced[tail.id] = f
        handle = tail.handle
        if handle is not None:
            f.handle = handle
            handle.hop = f
    for node in nodes:
        if node.id in replaced:
            continue
        if any(inp.id in replaced for inp in node.inputs):
            node.inputs = [replaced.get(inp.id, inp) for inp in node.inputs]
    new_roots = [replaced.get(r.id, r) for r in root_hops]
    if stats is not None:
        stats.inc(FUSION_CHAINS, len(fused))
        eliminated = sum(
            len(f.chain) + (1 if f.prologue is not None else 0)
            for f in fused
        )
        stats.inc(FUSION_HOPS_ELIMINATED, eliminated - len(fused))
        stats.inc(FUSION_BYTES_SAVED, sum(f.saved_bytes for f in fused))
    return new_roots, fused, replaced


def fusion_spec(hop: Hop) -> str | None:
    """The fused chain's step spec, or ``None`` for ordinary hops."""
    if isinstance(hop, FusedHop):
        return str(hop.attrs.get("steps", ""))
    return None


__all__ = [
    "FUSED_OPCODE",
    "FusedHop",
    "apply_fusion",
    "fusion_spec",
    "plan_fusion",
    "retention_candidate",
]
