"""Data the interpreter's dispatch loop runs on: slots and chain batching.

The loop itself — the paper's Fig. 4 stage sequence — is defined once,
in :meth:`repro.runtime.interpreter.Interpreter.run`.  This module holds
what it binds and what it can batch:

* :class:`Slot` — the runtime binding of one hop (lineage item plus the
  per-backend payloads), and :func:`_attr_data`, the deterministic
  flattening of hop attributes into lineage data.
* Chain batching — :func:`plan_chains` segments a linearized order into
  maximal straight-line runs of cell-wise instructions, and
  :func:`_run_chain` executes one through the vectorized ufunc-chain
  layer (``repro.backends.cpu.vectorized``).  The loop engages it only
  under ``ReuseMode.NONE`` with tracing, metrics, fault injection and
  planned spills all off: a chain's interior values are never probed
  for, admitted to the cache, or wrapped in an instruction span.
* :func:`step_lineage_inputs` — the lineage-input rule of one cell-wise
  step, shared by chain batching and the compile-time fused
  instruction (``Interpreter._exec_fused``).

Batched and per-instruction execution produce bit-identical results,
stats counters, and simulated clock readings
(``tests/test_dispatch_equivalence.py``); batching changes only *real*
wall-clock cost (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.backends.cpu.vectorized import CompiledStep, compile_step
from repro.common.simclock import SimFuture
from repro.compiler.ir import Hop
from repro.core.entry import BACKEND_CP
from repro.lineage.item import LineageItem

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.spark.broadcast import Broadcast
    from repro.runtime.interpreter import Interpreter


class Slot:
    """Runtime binding of one hop: lineage + multi-backend payloads."""

    __slots__ = ("lineage", "payloads", "future", "broadcast", "fused_from")

    def __init__(self, lineage: LineageItem) -> None:
        self.lineage = lineage
        self.payloads: dict[str, object] = {}
        #: pending asynchronous fetch (prefetch rewrite).
        self.future: Optional[SimFuture] = None
        #: broadcast variable created for this value (if any).
        self.broadcast: Optional["Broadcast"] = None
        #: for fused transposes: the slot of the underlying input.
        self.fused_from: Optional["Slot"] = None


def _attr_data(attrs: dict) -> tuple:
    """Flatten attributes into a deterministic lineage data tuple.

    NaN floats are encoded as a sentinel string: Python hashes NaN by
    object identity and ``nan != nan``, which would make structurally
    identical lineage items unequal (breaking all reuse of e.g.
    ``replace(NaN, v)``).
    """
    if not attrs:
        return ()
    out: list = []
    for key in sorted(attrs):
        out.append(key)
        value = attrs[key]
        if isinstance(value, float) and value != value:
            out.append("__nan__")
        elif isinstance(value, (int, float, bool, str)):
            out.append(value)
        else:
            out.append(str(value))
    return tuple(out)


# ------------------------------------------------------------- batch dispatch

class Chain:
    """A maximal run of chainable cell-wise hops with one matrix spine."""

    __slots__ = ("source_id", "steps")

    def __init__(self, source_id: int, steps: list[CompiledStep]) -> None:
        #: hop id of the matrix value feeding the first step.
        self.source_id = source_id
        self.steps = steps


def plan_chains(order: list[Hop]) -> dict[int, Chain]:
    """Segment a linearized order into batch-dispatchable cell-wise runs.

    A chain is a maximal *consecutive* subsequence of the order where
    each hop is a compilable cell-wise step
    (:func:`~repro.backends.cpu.vectorized.compile_step`) whose matrix
    operand is the immediately preceding hop — i.e. a straight-line run
    with no intervening control flow or consumers in between.  Runs
    shorter than two instructions are not worth the bookkeeping and
    stay on the per-instruction path.

    Returns a map from the first step's hop id to its :class:`Chain`.
    """
    plan: dict[int, Chain] = {}
    n = len(order)
    i = 0
    while i < n:
        first = compile_step(order[i])
        if first is None:
            i += 1
            continue
        source = order[i].inputs[first.matrix_index]
        if source.shape[0] * source.shape[1] <= 1:
            i += 1
            continue
        steps = [first]
        j = i + 1
        while j < n:
            step = compile_step(order[j])
            if step is None \
                    or order[j].inputs[step.matrix_index] is not order[j - 1]:
                break
            steps.append(step)
            j += 1
        if len(steps) >= 2:
            plan[order[i].id] = Chain(source.id, steps)
            i = j
        else:
            i += 1
    return plan


def step_lineage_inputs(step: CompiledStep, prev: LineageItem,
                        env: dict[int, Slot]) -> tuple:
    """Lineage inputs of one cell-wise step whose matrix operand is ``prev``.

    A unary step has the spine item alone; a scalar-operand step adds
    the literal's item on the side it occupies in ``hop.inputs`` — the
    tuple per-instruction TRACE builds from the same hop.
    """
    index = step.scalar_index
    if index is None:
        return (prev,)
    scalar = env[step.hop.inputs[index].id].lineage
    return (scalar, prev) if index == 0 else (prev, scalar)


def _run_chain(interp: "Interpreter", chain: Chain,
               env: dict[int, Slot], intern) -> None:
    """Execute one precompiled chain; bind a slot per interior hop.

    Every step still gets its own interned lineage item, CP payload,
    and environment slot, so out-of-chain consumers, handle rebinding,
    and lineage serialization observe exactly what the per-instruction
    path produces.
    """
    prev = env[chain.source_id]
    outs = interp.session.cpu.execute_chain(chain.steps, interp._to_cp(prev))
    for step, out in zip(chain.steps, outs):
        hop = step.hop
        slot = Slot(intern(hop.opcode, (),
                           step_lineage_inputs(step, prev.lineage, env)))
        slot.payloads[BACKEND_CP] = out
        env[hop.id] = slot
        prev = slot
