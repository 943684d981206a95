"""Operator linearization: depth-first and MAXPARALLELIZE (Algorithm 2).

SystemDS linearizes operator DAGs depth-first.  MEMPHIS's
``max_parallelize`` instead identifies the roots of remote operator
chains (Spark actions / prefetch ops / GPU-to-host copies), counts the
remote operators in each chain, and linearizes the *longest chains
first* — longer chains allow more concurrent execution once their
asynchronous jobs are in flight, and tight packing shortens the lifetime
of dangling RDD references (§5.3).
"""

from __future__ import annotations

from repro.common.errors import CompilationError
from repro.compiler.ir import KIND_OP, Hop
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


def _chain_roots(nodes: list[Hop]) -> tuple[list[Hop], list[Hop]]:
    """Collect Spark and GPU remote-chain roots (Algorithm 2 step 1)."""
    sp_roots: list[Hop] = []
    gpu_roots: list[Hop] = []
    for hop in nodes:
        if hop.kind != KIND_OP:
            continue
        if hop.prefetch and hop.placement == BACKEND_SP:
            sp_roots.append(hop)
        elif hop.prefetch and hop.placement == BACKEND_GPU:
            gpu_roots.append(hop)
    return sp_roots, gpu_roots


def _count_backend_ops(root: Hop, backend: str) -> int:
    """Number of ``backend`` operators in the chain rooted at ``root``."""
    return sum(
        1 for hop in root.iter_dag()
        if hop.kind == KIND_OP and hop.placement == backend
    )


def max_parallelize(roots: list[Hop],
                    nodes: list[Hop] | None = None) -> list[Hop]:
    """Algorithm 2: linearize remote chains first, longest chain first.

    ``nodes`` optionally supplies the depth-first linearization already
    computed by the caller; with no remote chains present it is returned
    as-is, so the all-local common case costs zero extra traversals.
    """
    if nodes is None:
        nodes = depth_first(roots)
    sp_roots, gpu_roots = _chain_roots(nodes)
    if not sp_roots and not gpu_roots:
        return nodes

    counted: list[tuple[int, Hop]] = []
    for hop in sp_roots:
        counted.append((_count_backend_ops(hop, BACKEND_SP), hop))
    for hop in gpu_roots:
        counted.append((_count_backend_ops(hop, BACKEND_GPU), hop))
    counted.sort(key=lambda pair: -pair[0])

    visited: set[int] = set()
    order: list[Hop] = []
    for _, chain_root in counted:
        order.extend(depth_first([chain_root], visited))
    order.extend(depth_first(roots, visited))
    return order
