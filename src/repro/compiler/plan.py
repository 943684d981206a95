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
  placement the hop already carries (a hop an earlier block placed is
  not placed again);
* data leaf: shape and effective placement (preset, else where its
  payload lives);
* literal: shape only.  CSE groups literals by value key, so the classes
  show as which positions the ops read; the values stay out of the key
  and every ``reg`` of a search maps to one plan.

A session keeps a bounded :class:`PlanMemo`.  On a miss the passes run;
the second time a key is seen, the outcome is recorded as a frozen
:class:`BlockPlan`.  On a hit :meth:`BlockPlan.replay` writes the
recorded placements onto the fresh hops and returns the order.  Either
way the interpreter runs the block's *lowered* program (:func:`lower`):
per instruction, the input-slot positions, the lineage attribute tuple,
the static costs that depend only on shapes, the transpose fusion of
the Spark ``tsmm``/``cpmm`` operators and the §5 rewrite flags
(prefetch, broadcast, checkpoint) — decisions of the program, so they
end with their block.
"""

from __future__ import annotations

from repro.common.costs import DOUBLE_BYTES, op_flops
from repro.compiler.ir import BROADCAST, CHECKPOINT, KIND_OP, PREFETCH, Hop
from repro.core.entry import BACKEND_SP
from repro.lineage.item import NAN_KEY, value_key
from repro.runtime.placement import matmul_pattern

#: most keys a session's memo holds (plans and keys seen once alike);
#: the oldest goes first.
MEMO_BOUND = 64


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

    __slots__ = ("hops", "tokens", "roots", "attrs")

    def __init__(self) -> None:
        #: canonical hops in walk order: a hop's position is its index.
        self.hops: list[Hop] = []
        #: one structural token per canonical hop.
        self.tokens: list = []
        #: positions of the roots.
        self.roots: tuple[int, ...] = ()
        #: hop id -> :func:`attr_data` of a canonical op with attributes
        #: (what :func:`lower` puts in its instruction).
        self.attrs: dict[int, tuple] = {}

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


def lower(order: list[Hop], consumers: dict | None, config,
          roots: list[Hop], prefetch, broadcast, checkpoint,
          attrs: dict[int, tuple]) -> tuple:
    """The lowered program of a linearized block, aligned with it:
    ``None`` per leaf and per op the instruction tuple
    ``(inputs, attrs, cost, cp_flops, cp_nbytes, operands, flags)``.

    ``inputs`` are the op's input positions in ``order``, ``attrs`` its
    lineage attribute tuple: the one the CSE walk keyed it with
    (``attrs`` maps hop id -> tuple, :attr:`BlockShape.attrs`).  The
    costs are what the runtime charged per instruction from the values
    before: ``cost`` is ``hop.flops``, charged by PUT, and
    ``cp_flops``/``cp_nbytes`` are the CP roofline's FLOPs and touched
    bytes (inputs + output, dense; a scalar is 8 bytes).  Values take
    their hop's shape, so all of them are fixed per block shape.

    Transpose fusion (SystemDS never materialises ``t(X)`` of
    ``t(X) %*% X`` or ``t(X) %*% Y``): a Spark ``ba+*`` whose
    :func:`~repro.runtime.placement.matmul_pattern` is ``tsmm`` or
    ``cpmm`` reads the positions in ``operands`` — the transpose's
    input and the right operand; every other op has ``None`` there and
    reads ``inputs``.  A transpose whose one consumer (``consumers``,
    the block's :func:`~repro.compiler.rewrites.async_ops.consumers_map`)
    is such a matmul, as its left operand, is *trace-only*: ``cost`` is
    ``None``, and it is traced but never probed, executed or put.  A
    transpose among the block's ``roots`` is never trace-only: its
    handle is bound to its value when the block ends.  ``consumers`` is
    ``None`` when no op of the block is on Spark or the GPU
    (:func:`~repro.runtime.placement.assign_placements`): then no
    operator reads through a transpose and the test is skipped.

    ``flags`` has the bit (``PREFETCH``, ``BROADCAST``, ``CHECKPOINT``)
    of each §5 pass whose returned ids hold the op; ``0`` for none.
    """
    flags_of: dict[int, int] = {}
    for flag, ids in ((PREFETCH, prefetch), (BROADCAST, broadcast),
                      (CHECKPOINT, checkpoint)):
        for hop_id in ids:
            flags_of[hop_id] = flags_of.get(hop_id, 0) | flag
    remote = consumers is not None
    index: dict[int, int] = {}
    program: list = []
    append = program.append
    for i, hop in enumerate(order):
        hop_id = hop.id
        index[hop_id] = i
        if hop.kind != KIND_OP:
            append(None)
            continue
        opcode, shape, inputs = hop.opcode, hop.shape, hop.inputs
        in_positions = tuple([index[h.id] for h in inputs])
        op_attrs = attrs[hop_id] if hop.attrs else ()
        flags = flags_of.get(hop_id, 0)
        operands = None
        if remote:
            if opcode == "r'" and hop not in roots:
                users = consumers.get(hop_id, ())
                if (len(users) == 1 and users[0].inputs[0] is hop
                        and _reads_through(users[0], config)):
                    append((in_positions, op_attrs, None, None, None, None,
                            flags))
                    continue
            if _reads_through(hop, config):
                left, right = inputs
                operands = (index[left.inputs[0].id], index[right.id])
        in_shapes = [h.shape for h in inputs]
        cost = op_flops(opcode, in_shapes, shape)
        nbytes = shape[0] * shape[1]
        for rows, cols in in_shapes:
            nbytes += rows * cols
        append((
            in_positions,
            op_attrs,
            cost,
            cost if in_shapes else op_flops(opcode, [(1, 1)], shape),
            nbytes * DOUBLE_BYTES,
            operands,
            flags,
        ))
    return tuple(program)


def _reads_through(hop: Hop, config) -> bool:
    """Whether a ``ba+*`` runs as Spark ``tsmm``/``cpmm``, which read
    the input of their left transpose instead of the transpose."""
    return (hop.opcode == "ba+*" and hop.placement == BACKEND_SP
            and matmul_pattern(hop, config) in ("tsmm", "cpmm"))


class BlockPlan:
    """The compile decisions of one block shape, replayable onto fresh
    hops of that shape (positions index :attr:`BlockShape.hops`)."""

    __slots__ = ("placements", "order", "program")

    def __init__(self, hops: list[Hop], order: list[Hop],
                 program: tuple) -> None:
        position = {hop.id: i for i, hop in enumerate(hops)}
        self.placements = tuple(hop.placement for hop in hops)
        self.order = tuple(position[hop.id] for hop in order)
        self.program = program

    def replay(self, hops: list[Hop]) -> list[Hop]:
        """Apply the recorded placements; return the order."""
        for hop, placement in zip(hops, self.placements):
            hop.placement = placement
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

    @property
    def trace_only(self) -> frozenset[int]:
        """Positions of the trace-only instructions (see :func:`lower`)."""
        return frozenset([i for i, instr in enumerate(self.program)
                          if instr is not None and instr[2] is None])

    @property
    def flags(self) -> dict[int, int]:
        """Hop id -> the non-zero ``flags`` of its instruction."""
        return {hop.id: instr[6] for hop, instr in zip(self[2], self.program)
                if instr is not None and instr[6]}
