"""Operator linearization: depth-first and MAXPARALLELIZE (Algorithm 2).

SystemDS linearizes operator DAGs depth-first.  MEMPHIS's
``max_parallelize`` instead takes the roots of remote operator chains
(the ops :func:`~repro.compiler.plan.block_flags` gives the
``PREFETCH`` bit: Spark actions, Spark results collected to the driver,
GPU-to-host copies), counts the remote operators in each chain, and
linearizes the *longest chains first* — longer chains allow more concurrent execution once their
asynchronous jobs are in flight, and tight packing shortens the lifetime
of dangling RDD references (§5.3).
"""

from __future__ import annotations

from repro.common.errors import CompilationError
from repro.compiler.ir import KIND_OP, PREFETCH, Hop
from repro.core.entry import BACKEND_GPU, BACKEND_SP


def depth_first(roots: list[Hop],
                visited: set[int] | None = None) -> list[Hop]:
    """Classic post-order (inputs before consumers) linearization.

    Nodes are marked ``seen`` exactly when they are appended to the
    order — never earlier.  A node discovered twice before its first
    emission (shared sub-DAG, a node that is both an inner node and a
    later root, a duplicated root, or the same hop appearing twice in
    one ``inputs`` list) is therefore emitted exactly once, at its
    first post-order position, and every input still precedes all of
    its consumers.  The ``linearization_soundness`` analysis pass
    re-checks these invariants on every compiled block under
    ``runtime.scope(analysis=AnalysisCollector())``.

    ``visited`` shares emission state across successive calls (used by
    :func:`max_parallelize` to linearize remote chains first): ids
    already present are treated as emitted earlier and skipped.

    Raises :class:`~repro.common.errors.CompilationError` on a cyclic
    graph instead of looping forever.
    """
    order: list[Hop] = []
    seen = visited if visited is not None else set()
    on_path: set[int] = set()
    emit = order.append
    mark = seen.add
    enter = on_path.add
    leave = on_path.discard
    for root in roots:
        stack: list[tuple[Hop, bool]] = [(root, False)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, expanded = pop()
            nid = node.id
            if expanded:
                leave(nid)
                if nid not in seen:
                    mark(nid)
                    emit(node)
                continue
            if nid in seen or nid in on_path:
                continue
            enter(nid)
            push((node, True))
            inputs = node.inputs
            if inputs:
                for inp in reversed(inputs):
                    if inp.id in on_path:
                        raise CompilationError(
                            f"cycle in HOP DAG: {inp!r} reachable from "
                            f"itself via {node!r}"
                        )
                    push((inp, False))
    return order


def _count_backend_ops(root: Hop, backend: str) -> int:
    """Number of ``backend`` operators in the chain rooted at ``root``."""
    return sum(
        1 for hop in depth_first([root])
        if hop.kind == KIND_OP and hop.placement == backend
    )


def max_parallelize(roots: list[Hop], flags: dict[int, int],
                    nodes: list[Hop]) -> list[Hop]:
    """Algorithm 2: linearize remote chains first, longest chain first.

    The chain roots are the Spark and GPU hops with the ``PREFETCH`` bit
    in ``flags`` (:func:`~repro.compiler.plan.block_flags`).  ``nodes``
    is the depth-first linearization the caller already computed; with
    no remote chains present it is returned as-is, so the all-local
    common case costs zero extra traversals.
    """
    if not flags:
        return nodes
    # step 1: Spark chain roots before GPU ones, each in node order (the
    # stable sort below keeps that order among chains of equal length)
    counted = [(_count_backend_ops(hop, backend), hop)
               for backend in (BACKEND_SP, BACKEND_GPU)
               for hop in nodes
               if hop.placement == backend
               and flags.get(hop.id, 0) & PREFETCH]
    if not counted:
        return nodes
    counted.sort(key=lambda pair: -pair[0])

    visited: set[int] = set()
    order: list[Hop] = []
    for _, chain_root in counted:
        order.extend(depth_first([chain_root], visited))
    order.extend(depth_first(roots, visited))
    return order
