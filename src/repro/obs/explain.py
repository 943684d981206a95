"""Plan-level EXPLAIN: render compiled HOP DAGs and instruction streams.

SystemDS pairs its ``-stats`` output with ``-explain`` plan dumps; this
module is the reproduction's counterpart.  A plan is captured *after*
rewrites (CSE, placement, checkpoint/prefetch/broadcast placement),
linearization and lowering (transpose fusion, Spark operators), so what
it shows is exactly what the interpreter will run: the post-rewrite HOP
DAG, the placement and Spark physical operator (``SP tsmm``) decisions,
the linearized instruction stream with reuse/prefetch/checkpoint/
broadcast annotations, and per-hop cost estimates (output bytes,
operation memory, FLOPs).

Hop ids in the dump are the same ids ``repro.analysis`` diagnostics
(``Diagnostic.hop``) and trace spans (``args["hop"]``) carry, making the
plan the shared reference artifact: a lint finding ``at hop#12`` and a
timeline span ``ba+*#12`` both point at one line of the EXPLAIN output.

Plans are captured as plain-data snapshots (:class:`HopSnapshot`), never
as live :class:`~repro.compiler.ir.Hop` references — retaining hops
would retain their payload bundles and change memory behaviour, which
would break the zero-overhead-when-disabled guarantee.

The generic DOT renderer at the bottom (:func:`render_dot`) is the
single plan-printing code path shared with ``repro.lineage.query``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.compiler.ir import BROADCAST, CHECKPOINT, KIND_OP, PREFETCH

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.diagnostics import DiagnosticReport
    from repro.common.config import MemphisConfig
    from repro.compiler.plan import CompiledBlock

#: explain levels (SystemDS-style).
LEVEL_HOPS = "hops"          #: post-rewrite HOP DAG only.
LEVEL_RUNTIME = "runtime"    #: linearized instruction stream only.
LEVEL_FULL = "full"          #: DAG + stream + cost totals.

LEVELS = (LEVEL_HOPS, LEVEL_RUNTIME, LEVEL_FULL)


@dataclass
class HopSnapshot:
    """Immutable record of one hop at compile time."""

    id: int
    kind: str
    opcode: str
    shape: tuple[int, int]
    placement: Optional[str]
    input_ids: tuple[int, ...]
    output_bytes: int
    memory_estimate: int
    flops: float
    #: the instruction's §5 bits and, on Spark, its physical operator
    flags: int = 0
    operator: Optional[str] = None
    trace_only: bool = False
    probe: bool = False

    @property
    def annotations(self) -> list[str]:
        """Rewrite/runtime annotations shown in the instruction stream."""
        out = ["reuse"] if self.probe else []
        out += [name for bit, name in ((PREFETCH, "prefetch"),
                                       (BROADCAST, "broadcast"),
                                       (CHECKPOINT, "checkpoint"))
                if self.flags & bit]
        if self.trace_only:
            out.append("fused-skip")
        return out


@dataclass
class ExplainPlan:
    """One compiled basic block: snapshots in execution order."""

    root_ids: tuple[int, ...]
    order: list[HopSnapshot]
    #: times an identically-shaped block was compiled (dedup counter).
    executions: int = 1
    #: evict instructions issued between this block and the next one.
    evicts: list[str] = field(default_factory=list)
    #: the verifier's findings on the first block of this shape (set by
    #: the session when it verifies), rendered under their hops.
    diagnostics: Optional["DiagnosticReport"] = None

    @property
    def signature(self) -> tuple:
        """Structural identity used to dedupe repeated loop bodies."""
        local = {s.id: pos for pos, s in enumerate(self.order)}
        return tuple(
            (s.opcode, s.kind, s.shape, s.placement, s.flags, s.operator,
             s.trace_only, s.probe,
             tuple(local.get(i, -1) for i in s.input_ids))
            for s in self.order
        )

    def by_id(self) -> dict[int, HopSnapshot]:
        return {s.id: s for s in self.order}

    @property
    def total_flops(self) -> float:
        return sum(s.flops for s in self.order if s.kind == KIND_OP)

    @property
    def peak_memory_estimate(self) -> int:
        return max(
            (s.memory_estimate for s in self.order if s.kind == KIND_OP),
            default=0,
        )


def snapshot_plan(block: "CompiledBlock",
                  config: "MemphisConfig") -> ExplainPlan:
    """Snapshot a compiled block right before execution."""
    _, root_hops, order, _ = block
    probing = config.reuse_mode.probes
    snaps = []
    for hop, instr in zip(order, block.program):
        # a leaf has no instruction, a trace-only transpose no cost
        trace_only = instr is not None and instr[2] is None
        snaps.append(HopSnapshot(
            id=hop.id,
            kind=hop.kind,
            opcode=hop.opcode,
            shape=hop.shape,
            placement=hop.placement,
            input_ids=tuple(h.id for h in hop.inputs),
            output_bytes=hop.output_bytes,
            memory_estimate=hop.memory_estimate,
            flops=hop.flops,
            flags=instr[6] if instr else 0,
            operator=instr[7] if instr else None,
            trace_only=trace_only,
            probe=probing and hop.kind == KIND_OP and not trace_only,
        ))
    return ExplainPlan(tuple(h.id for h in root_hops), snaps)


# -- rendering ---------------------------------------------------------------

def _size(nbytes: float) -> str:
    for suffix, factor in (("GB", 1024**3), ("MB", 1024**2), ("KB", 1024)):
        if abs(nbytes) >= factor:
            return f"{nbytes / factor:.1f}{suffix}"
    return f"{nbytes:.0f}B"


def _flops(flops: float) -> str:
    for suffix, factor in (("GFLOP", 1e9), ("MFLOP", 1e6), ("KFLOP", 1e3)):
        if abs(flops) >= factor:
            return f"{flops / factor:.1f}{suffix}"
    return f"{flops:.0f}FLOP"


def render_plan(plan: ExplainPlan, level: str = LEVEL_FULL,
                diagnostics: Optional["DiagnosticReport"] = None,
                block_index: int = 1) -> str:
    """Render one captured plan at the requested explain level."""
    if level not in LEVELS:
        raise ValueError(f"unknown explain level {level!r} "
                         f"(expected one of {LEVELS})")
    diags = _diags_by_hop(diagnostics)
    header = (
        f"block {block_index}"
        + (f" (x{plan.executions} executions)" if plan.executions > 1 else "")
        + f": {len(plan.order)} hops, roots "
        + ", ".join(f"#{i}" for i in plan.root_ids)
        + f", est peak {_size(plan.peak_memory_estimate)}"
        + f", {_flops(plan.total_flops)}"
    )
    lines = [header]
    if level in (LEVEL_HOPS, LEVEL_FULL):
        lines.append("-- HOP DAG (post-rewrite) --")
        lines.extend(_render_dag(plan, diags))
    if level in (LEVEL_RUNTIME, LEVEL_FULL):
        lines.append("-- instruction stream (linearized) --")
        lines.extend(_render_stream(plan, diags))
    for evict in plan.evicts:
        lines.append(f"  [evict] {evict}")
    return "\n".join(lines)


def _diags_by_hop(diagnostics) -> dict[int, list]:
    out: dict[int, list] = {}
    if diagnostics is None:
        return out
    for diag in diagnostics.diagnostics:
        if diag.hop is not None:
            out.setdefault(diag.hop, []).append(diag)
    return out


def _hop_line(snap: HopSnapshot) -> str:
    shape = f"[{snap.shape[0]}x{snap.shape[1]}]"
    place = snap.placement or ("-" if snap.kind != KIND_OP else "CP")
    if snap.operator:
        place += " " + snap.operator
    flags = ",".join(snap.annotations)
    cost = (f"{_size(snap.output_bytes)} out, "
            f"{_size(snap.memory_estimate)} op-mem, {_flops(snap.flops)}")
    line = f"#{snap.id:<5d} {snap.opcode:<10s} {shape:<14s} {place:<4s} {cost}"
    if flags:
        line += f"  {{{flags}}}"
    return line


def _render_dag(plan: ExplainPlan, diags: dict[int, list]) -> list[str]:
    """Indented DAG tree from the roots; shared sub-DAGs referenced once."""
    by_id = plan.by_id()
    lines: list[str] = []
    expanded: set[int] = set()

    def visit(hop_id: int, depth: int) -> None:
        snap = by_id.get(hop_id)
        indent = "  " * (depth + 1)
        if snap is None:
            lines.append(f"{indent}#{hop_id} (outside block)")
            return
        if hop_id in expanded:
            lines.append(f"{indent}#{hop_id} {snap.opcode} (shared, see above)")
            return
        expanded.add(hop_id)
        lines.append(indent + _hop_line(snap))
        for diag in diags.get(hop_id, ()):
            lines.append(f"{indent}  ! {diag.severity.name.lower()} "
                         f"[{diag.rule}] {diag.message}")
        for input_id in snap.input_ids:
            visit(input_id, depth + 1)

    for root_id in plan.root_ids:
        visit(root_id, 0)
    return lines


def _render_stream(plan: ExplainPlan, diags: dict[int, list]) -> list[str]:
    lines = []
    for pos, snap in enumerate(plan.order, start=1):
        lines.append(f"  {pos:>4d}: " + _hop_line(snap))
        for diag in diags.get(snap.id, ()):
            lines.append(f"        ! {diag.severity.name.lower()} "
                         f"[{diag.rule}] {diag.message}")
    return lines


# -- collector ---------------------------------------------------------------

class ExplainCollector:
    """Accumulates compiled-block plans across sessions (harness --explain).

    Structurally identical blocks (repeated loop bodies) are deduped
    into one plan with an execution counter, so a 100-iteration workload
    explains as a handful of distinct plans instead of 100 copies.
    """

    def __init__(self) -> None:
        self.plans: list[ExplainPlan] = []
        self._signatures: dict[tuple, ExplainPlan] = {}
        self.blocks_captured = 0

    def capture(self, block: "CompiledBlock",
                config: "MemphisConfig") -> ExplainPlan:
        """Snapshot one compiled block; dedupes repeated shapes."""
        plan = snapshot_plan(block, config)
        self.blocks_captured += 1
        existing = self._signatures.get(plan.signature)
        if existing is not None:
            existing.executions += 1
            return existing
        self._signatures[plan.signature] = plan
        self.plans.append(plan)
        return plan

    def note_evict(self, description: str) -> None:
        """Record an evict instruction issued between blocks (§5.2)."""
        if self.plans:
            self.plans[-1].evicts.append(description)

    def render(self, level: str = LEVEL_FULL,
               max_plans: Optional[int] = None) -> str:
        """Render every captured plan (optionally capped), each with its
        own block's diagnostics: a finding about one block never shows
        on another block's plan, even on a hop the two share."""
        lines = [f"=== explain (level={level}, {self.blocks_captured} "
                 f"block(s) compiled, {len(self.plans)} distinct) ==="]
        shown = self.plans if max_plans is None else self.plans[:max_plans]
        for i, plan in enumerate(shown, start=1):
            lines.append(render_plan(plan, level, plan.diagnostics,
                                     block_index=i))
        if max_plans is not None and len(self.plans) > max_plans:
            lines.append(f"... ({len(self.plans) - max_plans} more plans)")
        return "\n".join(lines)


# -- generic DOT rendering (shared with repro.lineage.query) -----------------

def render_dot(nodes: Sequence[tuple[int, str, str]],
               edges: Sequence[tuple[int, int]],
               graph_name: str = "plan", rankdir: str = "BT",
               truncated: bool = False) -> str:
    """The one GraphViz-emitting code path of the repository.

    ``nodes`` are ``(id, label, shape)`` tuples; ``edges`` are
    ``(src_id, dst_id)`` pairs.  Both lineage-trace dumps
    (:func:`repro.lineage.query.to_dot`) and explain plans
    (:func:`plan_to_dot`) build their node/edge lists and delegate here.
    """
    lines = [f"digraph {graph_name} {{", f"  rankdir={rankdir};"]
    for node_id, label, shape in nodes:
        lines.append(f'  n{node_id} [label="{label}", shape={shape}];')
    if truncated:
        lines.append('  truncated [label="...", shape=plaintext];')
    for src, dst in edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines)


def plan_to_dot(plan: ExplainPlan) -> str:
    """GraphViz rendering of a captured plan (hop ids as node ids)."""
    nodes = []
    ids = {s.id for s in plan.order}
    for snap in plan.order:
        label = f"#{snap.id} {snap.opcode}"
        if snap.placement:
            label += f"\\n{snap.placement} [{snap.shape[0]}x{snap.shape[1]}]"
        shape = "box" if snap.kind == KIND_OP else "ellipse"
        nodes.append((snap.id, label, shape))
    edges = [
        (input_id, snap.id)
        for snap in plan.order
        for input_id in snap.input_ids
        if input_id in ids
    ]
    return render_dot(nodes, edges, graph_name="plan")
