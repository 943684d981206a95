"""Dataflow infrastructure shared by the analysis passes.

Two views of a compiled program are analyzed:

* the **HOP DAG** (post-rewrite), walked with a cycle-safe traversal —
  unlike :meth:`Hop.iter_dag`, :func:`walk_dag` terminates on cyclic
  graphs and reports the back edges it found, so the verifier can
  diagnose a broken rewrite instead of hanging;
* the **instruction stream** (the linearized order), summarized into
  def/use chains by :class:`StreamDefUse` — definition position and use
  positions per value, the classic input to liveness
  and soundness checks (red-dragon-style iterative dataflow collapses
  to a single pass here because the stream of one basic block is a
  straight line).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.compiler.ir import Hop


def walk_dag(roots: Iterable[Hop]) -> tuple[list[Hop], list[tuple[Hop, Hop]]]:
    """Cycle-safe traversal of the DAGs under ``roots``.

    Returns ``(nodes, back_edges)`` where ``nodes`` is every distinct
    reachable hop in deterministic left-to-right post-order (matching
    :meth:`Hop.iter_dag` on acyclic graphs) and ``back_edges`` lists
    ``(consumer, input)`` pairs closing a cycle.  On a cyclic graph the
    post-order is best-effort but the traversal always terminates.
    """
    nodes: list[Hop] = []
    back_edges: list[tuple[Hop, Hop]] = []
    done: set[int] = set()
    on_path: set[int] = set()
    for root in roots:
        stack: list[tuple[Hop, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                on_path.discard(id(node))
                if id(node) not in done:
                    done.add(id(node))
                    nodes.append(node)
                continue
            if id(node) in done or id(node) in on_path:
                continue
            on_path.add(id(node))
            stack.append((node, True))
            for inp in reversed(node.inputs):
                if id(inp) in on_path:
                    back_edges.append((node, inp))
                elif id(inp) not in done:
                    stack.append((inp, False))
    return nodes, back_edges


class StreamDefUse:
    """Def-use chains over one linearized instruction stream.

    For every hop in the stream this records the position at which its
    value is defined (``def_pos``), the positions at which it is used as
    an input (``use_pos``), and the hops that appear more than once
    (``duplicates``).  Values used before (or without) a definition show
    up in ``undefined_uses``.
    """

    def __init__(self, order: list[Hop],
                 roots: Optional[list[Hop]] = None) -> None:
        self.order = order
        self.root_ids: set[int] = {r.id for r in roots} if roots else set()
        self.def_pos: dict[int, int] = {}
        self.use_pos: dict[int, list[int]] = {}
        self.duplicates: list[Hop] = []
        #: (consumer position, consumer hop, input hop) triples whose
        #: input has no earlier definition in the stream.
        self.undefined_uses: list[tuple[int, Hop, Hop]] = []
        for pos, hop in enumerate(order):
            for inp in hop.inputs:
                self.use_pos.setdefault(inp.id, []).append(pos)
                if inp.id not in self.def_pos:
                    self.undefined_uses.append((pos, hop, inp))
            if hop.id in self.def_pos:
                self.duplicates.append(hop)
            else:
                self.def_pos[hop.id] = pos

    def uses(self, hop: Hop) -> list[int]:
        return self.use_pos.get(hop.id, [])

    def first_use(self, hop: Hop) -> Optional[int]:
        uses = self.use_pos.get(hop.id)
        return uses[0] if uses else None

    def is_dead(self, hop: Hop) -> bool:
        """Defined in the stream, never used, and not a program output."""
        return (
            hop.id in self.def_pos
            and not self.use_pos.get(hop.id)
            and hop.id not in self.root_ids
        )
