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
the static costs that depend only on shapes, the §5 rewrite flags
(prefetch, broadcast, checkpoint) and a Spark instruction's physical
operator, which may read through a transpose, all decided by one walk
of the block's consumer edges (:func:`block_flags`) — decisions of the
program, so they end with their block.
"""

from __future__ import annotations

from repro.common.costs import DOUBLE_BYTES, op_flops
from repro.compiler.ir import (
    BROADCAST,
    CHECKPOINT,
    KIND_OP,
    PREFETCH,
    TRACE_ONLY,
    Hop,
)
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.lineage.item import NAN_KEY, value_key
from repro.runtime.placement import spark_operator

#: the bits of :func:`block_flags` a lowered instruction keeps.
_REWRITES = PREFETCH | BROADCAST | CHECKPOINT

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


def block_flags(roots: list[Hop], config,
                nodes: list[Hop]) -> tuple[dict[int, int], dict[int, str]]:
    """Hop id -> the non-zero rewrite bits (:mod:`repro.compiler.ir`) of
    a placed block's op hops, from its consumer edges, and hop id -> the
    :func:`~repro.runtime.placement.spark_operator` of its Spark ops.

    ``nodes`` is the block's post-order, so walking it backwards visits
    every consumer of a hop before the hop: one walk counts each hop's
    consumer edges, per occurrence (``X * X`` is two edges of ``X``),
    and decides the hop when it is reached.

    * ``CHECKPOINT`` (§5.2, ``enable_checkpoint_rewrite``): a Spark op
      with two or more Spark consumer edges, persisted so the jobs that
      share it do not recompute it.
    * ``PREFETCH`` (§5.1, ``enable_async_ops``): a remote-chain root,
      triggered asynchronously — a Spark op with a consumer off Spark,
      a Spark action ("this rewrite flags all other Spark actions for
      asynchronous execution"), or a consumer-less root of at most
      ``operation_memory_bytes // 8``, about to be collected; a GPU op
      with a CP consumer.  A prefetched Spark ``action`` runs as an
      ``async_action``.
    * ``BROADCAST`` (§5.1, ``enable_async_ops``): a CP op of at most
      ``driver_memory // 4`` with a Spark consumer.
    * ``TRACE_ONLY``: a transpose whose one consumer edge is the left
      operand of a Spark ``tsmm`` or ``cpmm`` (SystemDS never
      materialises ``t(X)`` of ``t(X) %*% X`` or ``t(X) %*% Y``).  A
      root transpose never is: its handle is bound to its value when
      the block ends.

    Only a block with an op on Spark or the GPU has any, so the compile
    pipeline calls this for those alone.
    """
    checkpoint = config.enable_checkpoint_rewrite
    async_ops = config.enable_async_ops
    collect_limit = config.cpu.operation_memory_bytes // 8
    bc_limit = config.spark.driver_memory // 4
    root_ids = {root.id for root in roots}
    # hop id -> consumer edges, Spark consumer edges, the last consumer;
    # the ids with a CP consumer
    edges: dict[int, int] = {}
    sp_edges: dict[int, int] = {}
    user: dict[int, Hop] = {}
    cp_fed: set[int] = set()
    flags: dict[int, int] = {}
    operators: dict[int, str] = {}
    for hop in reversed(nodes):
        if hop.kind != KIND_OP:
            continue
        hop_id, opcode, placement = hop.id, hop.opcode, hop.placement
        n = edges.get(hop_id, 0)
        bits = 0
        if placement == BACKEND_SP:
            operator = spark_operator(hop, config)
            n_sp = sp_edges.get(hop_id, 0)
            if checkpoint and n_sp >= 2:
                bits = CHECKPOINT
            if async_ops and (
                    n > n_sp or operator == "action"
                    or (not n and hop_id in root_ids
                        and hop.output_bytes <= collect_limit)):
                bits |= PREFETCH
                if operator == "action":
                    operator = "async_action"
            operators[hop_id] = operator  # None: PLC001, run time raises
        elif placement == BACKEND_GPU:
            if async_ops and hop_id in cp_fed:
                bits = PREFETCH
        elif placement == BACKEND_CP:
            if (async_ops and hop_id in sp_edges
                    and hop.output_bytes <= bc_limit):
                bits = BROADCAST
        if opcode == "r'" and n == 1 and hop_id not in root_ids:
            consumer = user[hop_id]
            if (consumer.inputs[0] is hop
                    and operators.get(consumer.id) in ("tsmm", "cpmm")):
                bits |= TRACE_ONLY
        if bits:
            flags[hop_id] = bits
        for inp in hop.inputs:
            inp_id = inp.id
            edges[inp_id] = edges.get(inp_id, 0) + 1
            user[inp_id] = hop
            if placement == BACKEND_SP:
                sp_edges[inp_id] = sp_edges.get(inp_id, 0) + 1
            elif placement == BACKEND_CP:
                cp_fed.add(inp_id)
    return flags, operators


def lower(order: list[Hop], flags: dict[int, int],
          operators: dict[int, str], attrs: dict[int, tuple]) -> tuple:
    """The lowered program of a linearized block, aligned with it:
    ``None`` per leaf and per op the instruction tuple
    ``(inputs, attrs, cost, cp_flops, cp_nbytes, operands, flags, op)``.

    ``inputs`` are the op's input positions in ``order``, ``attrs`` its
    lineage attribute tuple: the one the CSE walk keyed it with
    (``attrs`` maps hop id -> tuple, :attr:`BlockShape.attrs`).  The
    costs are what the runtime charged per instruction from the values
    before: ``cost`` is ``hop.flops``, charged by PUT, and
    ``cp_flops``/``cp_nbytes`` are the CP roofline's FLOPs and touched
    bytes (inputs + output, dense; a scalar is 8 bytes).  Values take
    their hop's shape, so all of them are fixed per block shape.

    ``flags`` and ``operators`` are the block's :func:`block_flags`
    (empty for a block with no op on Spark or the GPU).  ``op`` is a
    Spark instruction's physical operator, else ``None``; a ``tsmm`` or
    ``cpmm`` reads the positions in ``operands`` (its left transpose's
    input, its right operand), every other op ``None`` there and reads
    ``inputs``.  A ``TRACE_ONLY`` transpose has ``cost`` ``None``: it is
    traced but never probed, executed or put.  The instruction's
    ``flags`` keeps the §5 bits (``PREFETCH``, ``BROADCAST``,
    ``CHECKPOINT``); ``0`` for none.
    """
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
        bits = flags.get(hop_id, 0)
        rewrites = bits & _REWRITES
        if bits & TRACE_ONLY:
            append((in_positions, op_attrs, None, None, None, None,
                    rewrites, None))
            continue
        operator = operators.get(hop_id)
        operands = None
        if operator == "tsmm" or operator == "cpmm":
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
            rewrites,
            operator,
        ))
    return tuple(program)


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
    def lowered(self) -> dict[int, tuple[int, str | None]]:
        """Hop id -> ``(flags, operator)`` of each instruction with a §5
        bit or a Spark operator, what the verifier reads."""
        return {hop.id: instr[6:] for hop, instr in zip(self[2], self.program)
                if instr is not None and (instr[6] or instr[7])}
