"""Lineage items: nodes of the fine-grained lineage DAG (paper §3.2).

A lineage item records the opcode, literal data items, and pointers to the
input lineage items of one executed instruction.  Because all primitives
are deterministic given their lineage (random seeds are data items), a
lineage DAG *uniquely identifies* an intermediate — the core property that
makes lineage keys safe cache keys.

Hashing and equality follow the paper exactly:

* the hash combines the opcode, the data items, and the *hashes* of the
  inputs (computed once, bottom-up, and memoized);
* equality uses a non-recursive, queue-based traversal with sub-DAG
  memoization and early-abort on hash mismatch, height difference, and
  shared sub-DAGs (object identity).
"""

from __future__ import annotations

from math import copysign
from typing import Iterable, Optional

from repro.common.runtime import IdSpace, current as current_runtime

#: opcode used for leaf items that name an input dataset.
OP_DATA = "data"
#: opcode used for scalar / string literals.
OP_LITERAL = "lit"
#: opcode prefix for function-level (coarse-grained) lineage items (§3.3).
OP_FUNCTION = "func"
#: opcode prefix for per-session namespace wrappers on a shared
#: substrate: ``ns:<uid>`` wraps a key whose DAG is impure (seeded /
#: nondeterministic) so it never unifies across sessions
#: (see ``repro.core.substrate``).
OP_NAMESPACE = "ns"


class LineageItem:
    """One node of a lineage DAG.

    Parameters
    ----------
    opcode:
        The instruction opcode (e.g. ``ba+*``), or :data:`OP_DATA` /
        :data:`OP_LITERAL` for leaves.
    data:
        Tuple of literal data items (scalar constants, seeds, dataset
        identifiers) that parameterize the operation.
    inputs:
        Input lineage items, in argument order.
    ids:
        The id space numbering this item (default: the current runtime
        context's).
    """

    __slots__ = ("id", "opcode", "data", "inputs", "height", "_hash")

    def __init__(self, opcode: str, data: tuple = (),
                 inputs: tuple["LineageItem", ...] = (),
                 ids: Optional[IdSpace] = None) -> None:
        # the TRACE path (interner, session, interpreter) passes its
        # runtime's id space; hand-built items number from the current one
        self.id: int = next(
            (ids if ids is not None else current_runtime().ids).lineage)
        self.opcode = opcode
        self.data = data if type(data) is tuple else tuple(data)
        inputs = inputs if type(inputs) is tuple else tuple(inputs)
        self.inputs = inputs
        # explicit loop instead of two genexprs: item construction is on
        # the TRACE hot path (one per interner miss)
        if inputs:
            hmax = -1
            hashes = []
            append = hashes.append
            for inp in inputs:
                if inp.height > hmax:
                    hmax = inp.height
                append(inp._hash)
            self.height = 1 + hmax
            self._hash = hash((opcode, self.data, tuple(hashes)))
        else:
            self.height = 0
            self._hash = hash((opcode, self.data, ()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LineageItem):
            return NotImplemented
        return dags_equal(self, other)

    def __repr__(self) -> str:
        data = ",".join(map(str, self.data))
        return (
            f"LineageItem#{self.id}({self.opcode}"
            f"{'[' + data + ']' if data else ''}, h={self.height})"
        )

    @property
    def is_leaf(self) -> bool:
        """Whether this item has no inputs (dataset or literal)."""
        return not self.inputs

    @property
    def is_function(self) -> bool:
        """Whether this is a coarse-grained (function-level) item."""
        return self.opcode.startswith(OP_FUNCTION)

    @property
    def is_namespaced(self) -> bool:
        """Whether this is a session-scoped namespace wrapper."""
        return self.opcode.startswith(OP_NAMESPACE + ":")

    def iter_dag(self) -> Iterable["LineageItem"]:
        """Yield every node of the DAG reachable from this item once."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.inputs)

    def dag_size(self) -> int:
        """Number of distinct nodes in this item's DAG."""
        return sum(1 for _ in self.iter_dag())


class LineageInterner:
    """Hash-consing table: structurally identical items become one object.

    The interpreter's TRACE step (paper Fig. 4) constructs one lineage
    item per executed instruction.  Iterative workloads re-trace the
    same instructions every iteration, so without interning each
    iteration allocates a fresh — structurally equal — item, and every
    cache probe pays a full :func:`dags_equal` structural comparison
    when dict hashing collides equal keys.

    Every item the runtime traces comes from here: op items
    (:meth:`intern`), literal and dataset leaves (:meth:`literal`,
    :meth:`dataset`) and function-reuse keys (:meth:`function`).  Op
    items key on ``(opcode, data, input identities)``; because their
    inputs are canonical too, identity of inputs is equivalent to
    structural equality of inputs, so structurally equal runtime items
    are one object and cache probes, puts and namespacing hit the
    dictionary's identity fast path instead of running ``dags_equal``.

    Items built *outside* the interner (deserialized logs, hand-built
    DAGs, the federated coordinator's items) simply miss the table and
    fall back to structural equality — behaviour is unchanged, only
    slower for that item.

    The interner belongs to the substrate (``Substrate.interner``): a
    private substrate's table lives as long as its one session, a
    shared substrate's is common to every session attached to it.
    """

    __slots__ = ("_table", "_ids")

    def __init__(self, ids: Optional[IdSpace] = None) -> None:
        self._table: dict[tuple, LineageItem] = {}
        self._ids = ids if ids is not None else current_runtime().ids

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, opcode: str, data: tuple,
               inputs: tuple[LineageItem, ...]) -> LineageItem:
        """Canonical item for ``(opcode, data, inputs)`` (hash-consing)."""
        key = (opcode, data, tuple(map(id, inputs)))
        item = self._table.get(key)
        if item is None:
            item = LineageItem(opcode, data, inputs, self._ids)
            self._table[key] = item
        return item

    def literal(self, value: object) -> LineageItem:
        """Canonical leaf for a scalar/string literal.

        ``==`` equates literals that replay and serialize differently
        (``0.0``/``-0.0``, ``1``/``1.0``/``True``), so the key carries
        the value's type and, for a float, its sign: one canonical leaf
        never stands for another's value.  A NaN keys by identity, as
        the structural comparison treats it.
        """
        sign = copysign(1.0, value) if isinstance(value, float) else None
        key = (OP_LITERAL, type(value), value, sign)
        item = self._table.get(key)
        if item is None:
            item = LineageItem(OP_LITERAL, (value,), (), self._ids)
            self._table[key] = item
        return item

    def dataset(self, name: str) -> LineageItem:
        """Canonical leaf for a named input dataset."""
        return self.intern(OP_DATA, (name,), ())

    def function(self, fname: str,
                 inputs: tuple[LineageItem, ...]) -> LineageItem:
        """Canonical coarse-grained item of a deterministic function call.

        The paper uses a special lineage item containing the function
        name and the inputs for each function output (§3.3, multi-level
        reuse); ``Session.function`` caches all outputs under one.
        """
        return self.intern(f"{OP_FUNCTION}:{fname}", (0,), inputs)


def literal(value: object, ids: Optional[IdSpace] = None) -> LineageItem:
    """Lineage leaf for a scalar/string literal, outside any interner
    (the runtime's come from :meth:`LineageInterner.literal`)."""
    return LineageItem(OP_LITERAL, (value,), (), ids)


def dataset(name: str, ids: Optional[IdSpace] = None) -> LineageItem:
    """Lineage leaf for a named input dataset, outside any interner
    (the runtime's come from :meth:`LineageInterner.dataset`)."""
    return LineageItem(OP_DATA, (name,), (), ids)


def dags_equal(a: LineageItem, b: LineageItem,
               memo: Optional[set[tuple[int, int]]] = None) -> bool:
    """Non-recursive DAG equality with memoization and early aborts.

    Early-abort conditions (paper §3.2): hash mismatch, height difference,
    and shared sub-DAGs (object identity short-circuits a subtree).
    """
    if a is b:
        return True
    if a._hash != b._hash or a.height != b.height:
        return False
    if memo is None:
        memo = set()
    queue: list[tuple[LineageItem, LineageItem]] = [(a, b)]
    while queue:
        x, y = queue.pop()
        if x is y:
            continue
        key = (id(x), id(y)) if id(x) < id(y) else (id(y), id(x))
        if key in memo:
            continue
        if (
            x._hash != y._hash
            or x.height != y.height
            or x.opcode != y.opcode
            or x.data != y.data
            or len(x.inputs) != len(y.inputs)
        ):
            return False
        memo.add(key)
        queue.extend(zip(x.inputs, y.inputs))
    return True
