"""Query processing over lineage traces (paper §3.2 / §8 future work).

The paper names "query processing on lineage traces for model
management" and "model debugging" as follow-up work to the RECOMPUTE
API.  This module implements that layer: declarative queries over
in-memory lineage DAGs — operator histograms, provenance filtering,
sub-trace extraction, trace diffing, and data-source audits — the
primitives a model-debugging UI would build on (MISTIQUE-style [123]).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lineage.item import (
    OP_DATA, OP_LITERAL, LineageItem, dags_equal, structural_hashes,
)


@dataclass
class TraceStats:
    """Aggregate statistics of one lineage trace."""

    num_nodes: int
    height: int
    opcode_histogram: dict[str, int]
    num_data_sources: int
    num_literals: int

    @property
    def num_operators(self) -> int:
        return self.num_nodes - self.num_data_sources - self.num_literals


def trace_stats(root: LineageItem) -> TraceStats:
    """Summarize a trace: size, depth, operator mix, input counts."""
    histogram: Counter = Counter()
    data_sources = 0
    literals = 0
    count = 0
    for node in root.iter_dag():
        count += 1
        histogram[node.opcode] += 1
        if node.opcode == OP_DATA:
            data_sources += 1
        elif node.opcode == OP_LITERAL:
            literals += 1
    return TraceStats(count, root.height, dict(histogram),
                      data_sources, literals)


def find_nodes(root: LineageItem,
               predicate: Callable[[LineageItem], bool]) -> list[LineageItem]:
    """All nodes of the trace satisfying ``predicate`` (pre-order)."""
    return [node for node in root.iter_dag() if predicate(node)]


def find_by_opcode(root: LineageItem, opcode: str) -> list[LineageItem]:
    """All nodes with the given opcode."""
    return find_nodes(root, lambda n: n.opcode == opcode)


def data_sources(root: LineageItem) -> list[str]:
    """Names of the input datasets this result depends on (provenance)."""
    names = []
    seen = set()
    for node in root.iter_dag():
        if node.opcode == OP_DATA and node.data:
            name = str(node.data[0])
            if name not in seen:
                seen.add(name)
                names.append(name)
    return sorted(names)


def depends_on(root: LineageItem, dataset_name: str) -> bool:
    """Whether the result was derived (transitively) from ``dataset_name``.

    The core primitive of data-distribution debugging and GDPR-style
    audits: does this model artifact depend on this input?
    """
    return dataset_name in data_sources(root)


def subtraces(root: LineageItem, opcode: str) -> list[LineageItem]:
    """The sub-traces rooted at every occurrence of ``opcode``.

    Each returned item can be fed to SERIALIZE/RECOMPUTE to materialize
    exactly that intermediate — the debugging workflow of §3.2.
    """
    return find_by_opcode(root, opcode)


@dataclass
class TraceDiff:
    """Structural difference between two traces."""

    equal: bool
    #: first differing node pair along the left spine (None if equal).
    divergence: Optional[tuple[LineageItem, LineageItem]] = None
    only_left_ops: dict[str, int] = field(default_factory=dict)
    only_right_ops: dict[str, int] = field(default_factory=dict)


def diff_traces(left: LineageItem, right: LineageItem) -> TraceDiff:
    """Compare two traces: equality, divergence point, operator deltas.

    Useful for answering "why did these two pipeline runs differ?" —
    e.g. a changed hyper-parameter literal or an extra cleaning step.
    """
    if dags_equal(left, right):
        return TraceDiff(equal=True)
    divergence = _first_divergence(left, right)
    left_hist = Counter(n.opcode for n in left.iter_dag())
    right_hist = Counter(n.opcode for n in right.iter_dag())
    only_left = {
        op: count - right_hist.get(op, 0)
        for op, count in left_hist.items()
        if count > right_hist.get(op, 0)
    }
    only_right = {
        op: count - left_hist.get(op, 0)
        for op, count in right_hist.items()
        if count > left_hist.get(op, 0)
    }
    return TraceDiff(False, divergence, only_left, only_right)


def _first_divergence(left: LineageItem, right: LineageItem):
    """Topmost structurally differing pair (queue-based descent)."""
    queue = [(left, right)]
    seen: set[tuple[int, int]] = set()
    while queue:
        a, b = queue.pop(0)
        if a is b:
            continue
        key = (id(a), id(b))
        if key in seen:
            continue
        seen.add(key)
        if (a.opcode != b.opcode or a.data != b.data
                or len(a.inputs) != len(b.inputs)):
            return (a, b)
        if not dags_equal(a, b):
            for pair in zip(a.inputs, b.inputs):
                if not dags_equal(*pair):
                    queue.append(pair)
    return (left, right)


def common_subtraces(left: LineageItem, right: LineageItem,
                     min_height: int = 1) -> list[LineageItem]:
    """Maximal sub-traces shared by both DAGs (the reuse frontier).

    These are exactly the intermediates MEMPHIS would reuse when
    executing ``right`` after ``left``; exposing them makes reuse
    decisions explainable.
    """
    left_hash = structural_hashes(left)
    right_hash = structural_hashes(right)
    right_by_hash: dict[int, list[LineageItem]] = {}
    for node in right.iter_dag():
        right_by_hash.setdefault(right_hash[id(node)], []).append(node)

    shared: list[LineageItem] = []
    covered: set[int] = set()
    # iterate top-down (higher nodes first) so only maximal ones are kept
    nodes = sorted(left.iter_dag(), key=lambda n: -n.height)
    for node in nodes:
        if id(node) in covered or node.height < min_height:
            continue
        candidates = right_by_hash.get(left_hash[id(node)], ())
        if any(dags_equal(node, other) for other in candidates):
            shared.append(node)
            for inner in node.iter_dag():
                covered.add(id(inner))
    return shared


def to_dot(root: LineageItem, max_nodes: int = 200) -> str:
    """GraphViz rendering of a trace for visual debugging.

    Builds the node/edge lists and delegates the actual DOT emission to
    :func:`repro.obs.explain.render_dot`, the repository's single
    GraphViz-emitting code path (shared with explain-plan dumps).
    """
    from repro.obs.explain import render_dot

    nodes: list[tuple[int, str, str]] = []
    seen: set[int] = set()
    truncated = False
    for node in root.iter_dag():
        if len(nodes) >= max_nodes:
            truncated = True
            break
        seen.add(id(node))
        label = node.opcode
        if node.data:
            payload = ",".join(str(d) for d in node.data[:3])
            label += f"\\n{payload[:24]}"
        shape = "box" if node.inputs else "ellipse"
        nodes.append((node.id, label, shape))
    edges = [
        (inp.id, node.id)
        for node in root.iter_dag() if id(node) in seen
        for inp in node.inputs if id(inp) in seen
    ]
    return render_dot(nodes, edges, graph_name="lineage",
                      truncated=truncated)
