"""Lineage -> executable DAG: the shared RECOMPUTE entry point (§3.2).

Both recovery paths replay lineage the same way: the public
``Session.recompute`` API (deserialized textual logs) and the fault
tolerance machinery (``Session.recompute_from_lineage``, invoked when
every cached copy of an intermediate has been lost).  This module holds
the common rebuild: a memoized walk of a :class:`LineageItem` trace that
re-emits HOPs, leaving dataset resolution to the caller so the execution
environment may differ from the one that produced the trace.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.runtime import IdSpace
from repro.compiler.ir import Hop, literal_hop, op_hop
from repro.lineage.item import LineageItem


def attrs_from_data(data: tuple) -> dict:
    """Rebuild an attribute dict from a flattened lineage data tuple.

    Inverse of the interpreter's attribute flattening: lineage items
    store op attributes as ``(key, value, key, value, ...)``.
    """
    attrs: dict = {}
    for i in range(0, len(data) - 1, 2):
        attrs[str(data[i])] = data[i + 1]
    return attrs


def hops_from_item(root: LineageItem,
                   read_dataset: Callable[[str], Hop],
                   ids: Optional[IdSpace] = None) -> Hop:
    """Rebuild the expression DAG of a lineage trace (memoized walk).

    ``read_dataset(name)`` resolves a ``data`` leaf to a data hop —
    typically by re-binding a session-registered input — and should
    raise :class:`~repro.common.errors.RecomputationError` when the
    dataset is unavailable.  Shared sub-traces become shared hops, so
    the replayed DAG preserves the original sharing structure (and the
    compiler's CSE/reuse machinery applies to the replay too).  ``ids``
    is the replaying session's id space (default: the current context's).
    """
    hops: dict[int, Hop] = {}

    def build(item: LineageItem) -> Hop:
        if item.id in hops:
            return hops[item.id]
        if item.opcode == "lit":
            hop = literal_hop(item.data[0], ids)
        elif item.opcode == "data":
            hop = read_dataset(str(item.data[0]))
        else:
            child_hops = [build(child) for child in item.inputs]
            hop = op_hop(item.opcode, child_hops,
                         attrs_from_data(item.data), ids)
        hops[item.id] = hop
        return hop

    return build(root)
