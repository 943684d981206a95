"""Lineage -> executable DAG: the shared RECOMPUTE entry point (§3.2).

Both recovery paths replay lineage the same way: the public
``Session.recompute`` API (deserialized textual logs) and the fault
tolerance machinery (``Session.recompute_from_lineage``, invoked when
every cached copy of an intermediate has been lost).  This module holds
the common rebuild — a memoized walk of a :class:`LineageItem` trace that
re-emits HOPs, leaving dataset resolution to the caller so the execution
environment may differ from the one that produced the trace — and
:func:`replay`, which runs it over a session.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

import numpy as np

from repro.common.errors import RecomputationError
from repro.common.runtime import IdSpace
from repro.compiler.ir import Hop, literal_hop, op_hop
from repro.lineage.item import LineageItem
from repro.runtime.handles import MatrixHandle

if TYPE_CHECKING:
    from repro.core.session import Session


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


def replay(session: "Session", item: LineageItem, datasets: Mapping,
           missing: str) -> tuple[MatrixHandle, np.ndarray]:
    """Rebuild ``item``'s DAG over ``session`` and compute it.

    ``data`` leaves are re-read from ``datasets`` (name -> array or
    scalar); a leaf it lacks raises :class:`RecomputationError` with
    ``missing.format(name=...)``.  The replay runs through the session's
    full compilation chain, so still-cached sub-traces are reused.
    Returns the evaluated root handle and its driver-side result.
    """
    #: keeps the re-read input handles alive until the replay has run
    #: (hops reference their handle weakly).
    anchors: list[MatrixHandle] = []

    def read_dataset(name: str) -> Hop:
        if name not in datasets:
            raise RecomputationError(missing.format(name=name))
        handle = session.read(datasets[name], name)
        anchors.append(handle)
        return handle.hop

    handle = MatrixHandle(
        session, hops_from_item(item, read_dataset, session.ids))
    return handle, session.compute(handle)
