"""Lineage items: nodes of the fine-grained lineage DAG (paper §3.2).

A lineage item records the opcode, literal data items, and pointers to the
input lineage items of one executed instruction.  Because all primitives
are deterministic given their lineage (random seeds are data items), a
lineage DAG *uniquely identifies* an intermediate — the core property that
makes lineage keys safe cache keys.

Identity is equality at run time.  Every item the runtime traces comes
from its substrate's :class:`LineageInterner`, so two structurally equal
runtime items are one object.  Items hash and compare by identity, so a
cache probe or put hashes and compares its key in C.  Questions asked
*across* substrates or of rebuilt logs are structural and go through
:func:`dags_equal` (a non-recursive, queue-based traversal with sub-DAG
memoization and early abort on height, opcode, data and arity, paper
§3.2) and :func:`structural_hashes`.
"""

from __future__ import annotations

from math import copysign
from operator import attrgetter
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

#: the attribute key of a NaN: ``nan != nan``, so a NaN attribute kept
#: as itself would make structurally identical items unequal.
NAN_KEY = "__nan__"
#: the key of ``-0.0``, which ``==`` and ``hash`` equate with ``0.0``
#: although ``1 / x`` tells them apart.
NEG_ZERO_KEY = "__-0.0__"


def value_key(value: object, nan: object = None) -> object:
    """The key under which ``value`` decides that two computations are
    the same — by CSE, plan tokens and lineage alike.

    Every value keys as itself except two floats ``==`` gets wrong:
    ``-0.0`` keys as :data:`NEG_ZERO_KEY`, and a NaN as ``nan``
    (attributes pass :data:`NAN_KEY`) or, without one, as itself, so by
    identity.  :func:`key_value` maps a key back to its value.
    """
    if isinstance(value, float):
        if value != value:
            return value if nan is None else nan
        if not value and copysign(1.0, value) < 0.0:
            return NEG_ZERO_KEY
    return value


def key_value(key: object) -> object:
    """The value a lineage data item stands for (inverts
    :func:`value_key`), for replaying a trace."""
    if key.__class__ is str:
        if key == NEG_ZERO_KEY:
            return -0.0
        if key == NAN_KEY:
            return float("nan")
    return key


def attrs_from_data(data: tuple) -> dict:
    """Rebuild an attribute dict from a flattened lineage data tuple.

    Inverse of :func:`~repro.compiler.plan.attr_data`: lineage items
    store op attributes as ``(key, value key, key, value key, ...)``.
    """
    attrs: dict = {}
    for i in range(0, len(data) - 1, 2):
        attrs[str(data[i])] = key_value(data[i + 1])
    return attrs


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

    __slots__ = ("id", "opcode", "data", "inputs", "height")

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
        # explicit loop instead of a genexpr: item construction is on
        # the TRACE hot path (one per interner miss)
        hmax = -1
        for inp in inputs:
            if inp.height > hmax:
                hmax = inp.height
        self.height = 1 + hmax

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
    same instructions every iteration; the interner hands back the item
    built the first time.

    Every item the runtime traces comes from here: op items
    (:meth:`intern`), literal and dataset leaves (:meth:`literal`,
    :meth:`dataset`) and function-reuse keys (:meth:`function`).  Op
    items key on ``(opcode, data, inputs)``; because their inputs are
    canonical too, identity of inputs is structural equality of inputs,
    so structurally equal runtime items are one object, and identity is
    the cache's key equality.  Two items built apart — one from
    another interner, a deserialized log — are different keys;
    :func:`dags_equal` compares them structurally.

    The interner belongs to the substrate (``Substrate.interner``): a
    private substrate's table lives as long as its one session, a
    shared substrate's is common to every session attached to it.  A
    federated worker owns the table its tenants' requests key on.
    """

    __slots__ = ("_table", "_ids")

    def __init__(self, ids: Optional[IdSpace] = None) -> None:
        self._table: dict[tuple, LineageItem] = {}
        self._ids = ids if ids is not None else current_runtime().ids

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, opcode: str, data: tuple,
               inputs: tuple[LineageItem, ...]) -> LineageItem:
        """Canonical item for ``(opcode, data, inputs)`` (hash-consing).

        The key holds the caller's ``inputs`` tuple, which the new item
        keeps as its ``inputs``: canonical inputs hash and compare by
        identity, so the key costs no per-input allocation.
        """
        key = (opcode, data, inputs)
        item = self._table.get(key)
        if item is None:
            item = LineageItem(opcode, data, inputs, self._ids)
            self._table[key] = item
        return item

    def wrap(self, opcode: str,
             item: LineageItem) -> tuple[LineageItem, bool]:
        """Canonical ``opcode(item)`` — the item ``intern(opcode, (),
        (item,))`` returns, under the same table key — and whether this
        call created it."""
        inputs = (item,)
        key = (opcode, (), inputs)
        wrapper = self._table.get(key)
        if wrapper is not None:
            return wrapper, False
        wrapper = self._table[key] = LineageItem(opcode, (), inputs,
                                                 self._ids)
        return wrapper, True

    def literal(self, value: object) -> LineageItem:
        """Canonical leaf for a scalar/string literal.

        ``==`` equates literals that replay and serialize differently
        (``0.0``/``-0.0``, ``1``/``1.0``/``True``), so the table key is
        the value's type and :func:`value_key`: one canonical leaf never
        stands for another's value.
        """
        key = (OP_LITERAL, type(value), value_key(value))
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


def dags_equal(a: LineageItem, b: LineageItem,
               memo: Optional[set[tuple[int, int]]] = None) -> bool:
    """Structural DAG equality: non-recursive, memoized, early-aborting.

    Runtime items of one substrate are canonical, so there ``is``
    decides; this answers the structural question across substrates
    and for rebuilt logs.  Early-abort conditions (paper §3.2): height,
    opcode, data or arity mismatch, and shared sub-DAGs (object
    identity short-circuits a subtree).  A zero literal also compares
    its :func:`value_key`: ``0.0 == -0.0``.
    """
    if a is b:
        return True
    if a.height != b.height:
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
            x.height != y.height
            or x.opcode != y.opcode
            or x.data != y.data
            or len(x.inputs) != len(y.inputs)
            or (x.opcode == OP_LITERAL and x.data[0] == 0.0
                and value_key(x.data[0]) != value_key(y.data[0]))
        ):
            return False
        memo.add(key)
        queue.extend(zip(x.inputs, y.inputs))
    return True


def structural_hashes(root: LineageItem) -> dict[int, int]:
    """``id(node) -> structural hash`` for every node of ``root``'s DAG,
    bottom-up once per call: structurally equal nodes of different DAGs
    hash alike.  Equal hashes are a bucket; :func:`dags_equal` decides.
    """
    hashes: dict[int, int] = {}
    for node in sorted(root.iter_dag(), key=attrgetter("height")):
        hashes[id(node)] = hash((node.opcode, node.data, tuple(
            [hashes[id(inp)] for inp in node.inputs])))
    return hashes
