"""Serialization of lineage traces to textual lineage logs (paper §3.1).

The format is line-based and topologically ordered (inputs before
consumers), similar to SystemDS lineage logs::

    (7) ba+* () (3 5)
    (8) +    (i:1) (7)

Each line holds a node id, the opcode, typed data items, and input ids.
``serialize``/``deserialize`` round-trip exactly, enabling sharing of
traces and exact recomputation in a different environment (§3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import LineageError
from repro.common.runtime import IdSpace
from repro.lineage.item import LineageItem


def _encode_datum(value: object) -> str:
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        # percent-encode the separator characters so a plain split works
        encoded = (
            value.replace("%", "%25").replace(";", "%3B")
            .replace("(", "%28").replace(")", "%29")
            .replace("\n", "%0A").replace(" ", "%20")
        )
        return "s:" + encoded
    raise LineageError(f"unsupported lineage data item type: {type(value)!r}")


def _decode_datum(token: str) -> object:
    kind, _, payload = token.partition(":")
    if kind == "b":
        return payload == "1"
    if kind == "i":
        return int(payload)
    if kind == "f":
        return float(payload)
    if kind == "s":
        return (
            payload.replace("%20", " ").replace("%0A", "\n")
            .replace("%29", ")").replace("%28", "(")
            .replace("%3B", ";").replace("%25", "%")
        )
    raise LineageError(f"malformed lineage data item: {token!r}")


def serialize(root: LineageItem) -> str:
    """Serialize the DAG rooted at ``root`` to a lineage log string."""
    order: list[LineageItem] = []
    seen: set[int] = set()
    # iterative post-order so inputs precede consumers
    stack: list[tuple[LineageItem, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if id(node) not in seen:
                seen.add(id(node))
                order.append(node)
            continue
        if id(node) in seen:
            continue
        stack.append((node, True))
        for inp in node.inputs:
            stack.append((inp, False))

    lines = []
    local_ids = {id(node): idx for idx, node in enumerate(order)}
    for idx, node in enumerate(order):
        data = ";".join(_encode_datum(d) for d in node.data)
        inputs = " ".join(str(local_ids[id(i)]) for i in node.inputs)
        lines.append(f"({idx}) {node.opcode} ({data}) ({inputs})")
    return "\n".join(lines)


def deserialize(log: str, ids: Optional[IdSpace] = None) -> LineageItem:
    """Parse a lineage log back into an in-memory lineage DAG root.

    ``ids`` numbers the rebuilt items (default: the current context's).
    """
    nodes: dict[int, LineageItem] = {}
    last: LineageItem | None = None
    for lineno, raw in enumerate(log.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx_part, rest = line.split(") ", 1)
            idx = int(idx_part.lstrip("("))
            opcode, rest = rest.split(" (", 1)
            data_part, input_part = rest.split(") (", 1)
            input_part = input_part.rstrip(")")
        except ValueError as exc:
            raise LineageError(f"malformed lineage log line {lineno}: {raw!r}") from exc
        data = tuple(
            _decode_datum(tok) for tok in data_part.split(";") if tok
        )
        try:
            inputs = tuple(nodes[int(t)] for t in input_part.split() if t)
        except KeyError as exc:
            raise LineageError(
                f"lineage log line {lineno} references undefined node"
            ) from exc
        node = LineageItem(opcode.strip(), data, inputs, ids)
        nodes[idx] = node
        last = node
    if last is None:
        raise LineageError("empty lineage log")
    return last
