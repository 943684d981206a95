"""Common subexpression elimination on HOP DAGs.

Structurally identical hops (same opcode, attributes, and canonical
inputs) are merged into one node before execution.  CSE removes
*within-DAG* redundancy; cross-DAG redundancy (conditional control flow,
function calls) is what the lineage cache handles at runtime (§2.1).

The walk is also where a block's shape key is built
(:mod:`repro.compiler.plan`): it already computes a structural key per
hop, so the token of each canonical hop costs no second walk.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.ir import KIND_LITERAL, KIND_OP, Hop
from repro.compiler.plan import BlockShape, attr_data
from repro.runtime.placement import data_location


def eliminate_common_subexpressions(
    roots: list[Hop], shape: Optional[BlockShape] = None,
) -> tuple[list[Hop], dict[int, list]]:
    """Merge duplicate sub-DAGs under ``roots``.

    Returns the (possibly replaced) roots and a map
    ``canonical_hop_id -> [handles]`` of extra handles whose hop was
    merged away, so the interpreter can still bind them after execution.
    With ``shape``, the walk also fills it with the canonical hops, their
    structural tokens and the roots' positions.
    """
    #: hop id -> position of its canonical hop in ``hops``
    pos: dict[int, int] = {}
    hops: list[Hop] = shape.hops if shape is not None else []
    record = shape.tokens.append if shape is not None else None
    claim = {}.setdefault  # CSE key -> position of its first hop
    extra_handles: dict[int, list] = {}
    merged = False  # until a hop merges, every input is canonical

    # iterative post-order walk (no deep recursion on long chains): a
    # popped hop whose inputs all have a canonical position is keyed
    # now; otherwise it goes back under its pending inputs (pushed in
    # order, so the last input is keyed first) and is keyed when popped
    # again
    for root in roots:
        stack = [root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            nid = node.id
            if nid in pos:
                continue
            inputs = node.inputs
            pending = False
            for inp in inputs:
                if inp.id not in pos:
                    if not pending:
                        pending = True
                        push(node)
                    push(inp)
            if pending:
                continue
            kind = node.kind
            if kind == KIND_OP:
                ins = tuple([pos[h.id] for h in inputs])
                attrs = node.attrs
                key = (node.opcode,
                       tuple(sorted(attrs.items())) if attrs else (), ins)
            elif kind == KIND_LITERAL:
                key = ("lit", node.value)
            else:
                handle = node.handle
                key = ("data", id(handle) if handle is not None else nid)
            n = len(hops)
            p = claim(key, n)
            if p != n:
                pos[nid] = p
                merged = True
                handle = node.handle
                if handle is not None:
                    existing = hops[p]
                    if existing.handle is not handle:
                        extra_handles.setdefault(
                            existing.id, []).append(handle)
                continue
            pos[nid] = n
            hops.append(node)
            if kind == KIND_OP and merged:
                node.inputs = [hops[i] for i in ins]
            if record is None:
                continue
            if kind == KIND_OP:
                if attrs:
                    key = (node.opcode, attr_data(attrs), ins)
                record((key, node.shape, node.placement, node.prefetch,
                        node.async_broadcast, node.checkpoint, node.fused))
            elif kind == KIND_LITERAL:
                record(("lit", node.shape))
            else:
                record(("data", node.shape,
                        node.placement or data_location(node)))

    if shape is not None:
        shape.roots = tuple([pos[r.id] for r in roots])
    return [hops[pos[r.id]] for r in roots], extra_handles
