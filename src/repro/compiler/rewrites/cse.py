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

from repro.common.errors import CompilationError
from repro.compiler.ir import KIND_LITERAL, KIND_OP, Hop
from repro.compiler.plan import BlockShape, attr_data
from repro.lineage.item import value_key
from repro.runtime.placement import data_location


def eliminate_common_subexpressions(
    roots: list[Hop], shape: Optional[BlockShape] = None,
) -> tuple[list[Hop], dict[int, list]]:
    """Merge duplicate sub-DAGs under ``roots``.

    Returns the (possibly replaced) roots and a map
    ``canonical_hop_id -> [handles]`` of extra handles whose hop was
    merged away, so the interpreter can still bind them after execution.
    With ``shape``, the walk also fills it with the canonical hops, their
    structural tokens, the roots' positions and the attribute tuples it
    keyed the ops with.  A cycle raises :class:`CompilationError`.
    """
    #: hop id -> position of its canonical hop in ``hops``
    pos: dict[int, int] = {}
    if shape is not None:
        hops, record, attr_of = shape.hops, shape.tokens.append, shape.attrs
    else:
        hops, record, attr_of = [], None, None
    claim = {}.setdefault  # CSE key -> position of its first hop
    # an acyclic walk sends each hop back at most once, so one sent back
    # twice is on a cycle; only a walk past 1024 pays to remember them
    budget, sent_back = 1024, set()
    extra_handles: dict[int, list] = {}
    merged = False  # until a hop merges, every input is canonical

    # iterative post-order walk (no deep recursion on long chains): a
    # popped hop whose inputs all have a canonical position is keyed
    # now; otherwise it goes back under its pending inputs (pushed in
    # order, so the last input is keyed first) and is keyed when popped
    # again (on a cycle an input is still pending then)
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
                        budget -= 1
                        if budget < 0:
                            if nid in sent_back:
                                raise CompilationError(f"cycle at {node!r}")
                            sent_back.add(nid)
                        pending = True
                        push(node)
                    push(inp)
            if pending:
                continue
            kind = node.kind
            ref = node._handle_ref  # ``node.handle``, inlined
            handle = None if ref is None else ref()
            if kind == KIND_OP:
                ins = tuple([pos[h.id] for h in inputs])
                attrs = node.attrs
                key = (node.opcode, attr_data(attrs) if attrs else (), ins)
            elif kind == KIND_LITERAL:
                key = ("lit", value_key(node.value))
            else:
                key = ("data", id(handle) if handle is not None else nid)
            n = len(hops)
            p = claim(key, n)
            if p != n:
                pos[nid] = p
                merged = True
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
                    attr_of[nid] = key[1]
                record((key, node.shape, node.placement))
            elif kind == KIND_LITERAL:
                record(("lit", node.shape))
            else:
                record(("data", node.shape,
                        node.placement or data_location(node)))

    if shape is not None:
        shape.roots = tuple([pos[r.id] for r in roots])
    return [hops[pos[r.id]] for r in roots], extra_handles
