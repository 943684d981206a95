"""Fine-grained, backend-agnostic lineage tracing (paper §3)."""

from repro.lineage.item import (
    OP_DATA,
    OP_FUNCTION,
    OP_LITERAL,
    LineageItem,
    dags_equal,
    structural_hashes,
)
from repro.lineage.query import (
    TraceDiff,
    TraceStats,
    common_subtraces,
    data_sources,
    depends_on,
    diff_traces,
    find_by_opcode,
    find_nodes,
    subtraces,
    to_dot,
    trace_stats,
)
from repro.lineage.serialize import deserialize, serialize

__all__ = [
    "LineageItem",
    "dags_equal",
    "structural_hashes",
    "serialize",
    "deserialize",
    "OP_DATA",
    "OP_FUNCTION",
    "OP_LITERAL",
    "TraceStats",
    "TraceDiff",
    "trace_stats",
    "find_nodes",
    "find_by_opcode",
    "data_sources",
    "depends_on",
    "subtraces",
    "diff_traces",
    "common_subtraces",
    "to_dot",
]
