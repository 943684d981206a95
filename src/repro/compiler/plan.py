"""Block plans: one compile per block shape, and the lowered program.

Each evaluation point compiles one HOP DAG (§2.1), and programs evaluate
the same block shape again and again — a training step, a
hyper-parameter candidate — so the passes after CSE keep deciding the
same thing.  The CSE walk (:mod:`repro.compiler.rewrites.cse`) visits
every hop of a block anyway; handed a :class:`BlockShape`, it also
records the block's canonical hops and one structural token per hop.
The tokens, the roots and the config fields the passes read make the
block's key (:meth:`BlockShape.key`), so the key costs no walk of its
own.  A token holds every fact a pass reads of its hop:

* op: opcode, attributes (as CSE and lineage key them, so a NaN
  attribute still matches), canonical input positions, shape, and the
  placement and §5 flags the hop already carries (a hop an earlier
  block placed is not placed again);
* data leaf: shape and effective placement (preset, else where its
  payload lives);
* literal: shape only.  CSE groups literals by value key, so the classes
  show as which positions the ops read; the values stay out of the key
  and every ``reg`` of a search maps to one plan.

A session keeps a bounded :class:`PlanMemo`.  On a miss the passes run;
the second time a key is seen, the outcome is recorded as a frozen
:class:`BlockPlan`.  On a hit :meth:`BlockPlan.replay` writes the
recorded placements and flags onto the fresh hops and returns the
order.  Either way the interpreter runs the block's *lowered* program
(:func:`lower`): per instruction, the input-slot positions, the lineage
attribute tuple and the static costs that depend only on shapes.
"""

from __future__ import annotations

from repro.common.costs import DOUBLE_BYTES, op_flops
from repro.compiler.ir import KIND_OP, Hop
from repro.lineage.item import NAN_KEY, value_key

#: most keys a session's memo holds (plans and keys seen once alike);
#: the oldest goes first.
MEMO_BOUND = 64

#: the per-hop flags the §5 rewrites set (only ever to ``True``).
FLAGS = ("prefetch", "async_broadcast", "checkpoint", "fused")


def attr_data(attrs: dict) -> tuple:
    """Flatten attributes into a deterministic lineage data tuple: the
    CSE key, plan token and lineage data of an op's attributes.

    Values key by :func:`~repro.lineage.item.value_key` with the NaN
    sentinel (so ``replace(NaN, v)`` is reusable and ``-0.0`` is not
    ``0.0``); non-scalar values by their string form.
    """
    if not attrs:
        return ()
    out: list = []
    for key in sorted(attrs):
        out.append(key)
        value = attrs[key]
        if not isinstance(value, (int, float, str)):
            value = str(value)
        out.append(value_key(value, NAN_KEY))
    return tuple(out)


class BlockShape:
    """What the CSE walk records about one block (filled by the walk)."""

    __slots__ = ("hops", "tokens", "roots")

    def __init__(self) -> None:
        #: canonical hops in walk order: a hop's position is its index.
        self.hops: list[Hop] = []
        #: one structural token per canonical hop.
        self.tokens: list = []
        #: positions of the roots.
        self.roots: tuple[int, ...] = ()

    def key(self, config) -> tuple:
        """The block's memo key: config fields the passes read, roots,
        tokens."""
        cpu, spark, gpu = config.cpu, config.spark, config.gpu
        return (
            cpu.operation_memory_bytes, spark.driver_memory,
            config.spark_enabled, config.gpu_enabled, gpu.min_cells,
            gpu.alignment, gpu.device_memory,
            config.enable_checkpoint_rewrite, config.enable_async_ops,
            config.enable_max_parallelize,
            self.roots, tuple(self.tokens),
        )


def lower(order: list[Hop]) -> tuple:
    """The lowered program of a linearized block, aligned with it:
    ``None`` per leaf and per op the instruction tuple
    ``(inputs, attrs, cost, cp_flops, cp_nbytes)``.

    ``inputs`` are the op's input positions in ``order``, ``attrs`` its
    lineage attribute tuple.  The costs are what the runtime charged
    per instruction from the values before: ``cost`` is ``hop.flops``,
    charged by PUT, and ``cp_flops``/``cp_nbytes`` are the CP roofline's
    FLOPs and touched bytes (inputs + output, dense; a scalar is 8
    bytes).  Values take their hop's shape, so all of them are fixed
    per block shape.
    """
    index: dict[int, int] = {}
    program: list = []
    append = program.append
    for i, hop in enumerate(order):
        index[hop.id] = i
        if hop.kind != KIND_OP:
            append(None)
            continue
        opcode, shape, inputs = hop.opcode, hop.shape, hop.inputs
        in_shapes = [h.shape for h in inputs]
        cost = op_flops(opcode, in_shapes, shape)
        nbytes = shape[0] * shape[1]
        for rows, cols in in_shapes:
            nbytes += rows * cols
        attrs = hop.attrs
        append((
            tuple([index[h.id] for h in inputs]),
            attr_data(attrs) if attrs else (),
            cost,
            cost if in_shapes else op_flops(opcode, [(1, 1)], shape),
            nbytes * DOUBLE_BYTES,
        ))
    return tuple(program)


class BlockPlan:
    """The compile decisions of one block shape, replayable onto fresh
    hops of that shape (positions index :attr:`BlockShape.hops`)."""

    __slots__ = ("placements", "flagged", "order", "program")

    def __init__(self, hops: list[Hop], order: list[Hop],
                 program: tuple) -> None:
        position = {hop.id: i for i, hop in enumerate(hops)}
        self.placements = tuple(hop.placement for hop in hops)
        self.flagged = tuple(
            (i, flag) for i, hop in enumerate(hops) for flag in FLAGS
            if getattr(hop, flag))
        self.order = tuple(position[hop.id] for hop in order)
        self.program = program

    def replay(self, hops: list[Hop]) -> list[Hop]:
        """Apply the recorded placements and flags; return the order."""
        for hop, placement in zip(hops, self.placements):
            hop.placement = placement
        for i, flag in self.flagged:
            setattr(hops[i], flag, True)
        return [hops[i] for i in self.order]


class PlanMemo:
    """A session's key -> :class:`BlockPlan` memo, at most
    :data:`MEMO_BOUND` keys.

    A key seen once maps to ``None``: a block shape is recorded only
    when it comes back, so a session that compiles every shape once
    (a server request) pays one dict insert per block.
    """

    __slots__ = ("_plans",)

    def __init__(self) -> None:
        self._plans: dict[tuple, BlockPlan | None] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple) -> BlockPlan | bool:
        """The key's plan; else whether the key was seen before."""
        plan = self._plans.get(key, False)
        return True if plan is None else plan

    def note(self, key: tuple, seen: bool, hops: list[Hop],
             order: list[Hop], program: tuple) -> None:
        """Record a missed key: seen once, or its plan when seen again."""
        plans = self._plans
        if seen:
            plans[key] = BlockPlan(hops, order, program)
            return
        if len(plans) >= MEMO_BOUND:
            del plans[next(iter(plans))]
        plans[key] = None


class CompiledBlock(tuple):
    """``(roots, root_hops, order, extra)`` plus the lowered
    ``program``: what :meth:`repro.core.session.Session._compile`
    returns."""

    def __new__(cls, roots, root_hops, order, extra, program):
        block = super().__new__(cls, (roots, root_hops, order, extra))
        block.program = program
        return block
