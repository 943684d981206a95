"""The JSON schema of exported Chrome traces, plus its validator.

The schema pins down what the end-to-end trace case
(``tests/test_cli.py::TestQuickstartTrace``) and the round-trip tests
rely on; :func:`repro.common.schema.check` interprets it.
"""

from __future__ import annotations

from repro.common.schema import check

_TS = {"type": "number", "minimum": 0}

#: JSON-Schema (draft-07 subset) describing an exported trace document.
#: Which fields a phase needs is the ``oneOf`` on ``ph``: complete spans
#: (``X``) carry ``ts`` + ``dur``, instants (``i``) ``ts``, counter
#: samples (``C``) ``ts`` + ``args``, metadata (``M``) neither.
TRACE_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs Chrome trace",
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "ph": {"enum": ["X", "i", "M", "C"]},
                    "pid": {"type": "integer", "minimum": 0},
                    "tid": {"type": "integer", "minimum": 0},
                    "ts": _TS,
                    "dur": _TS,
                    "cat": {"type": "string"},
                    "s": {"enum": ["t", "p", "g"]},
                    "args": {"type": "object"},
                },
                "oneOf": [
                    {"properties": {"ph": {"const": "X"}},
                     "required": ["ph", "ts", "dur"]},
                    {"properties": {"ph": {"const": "i"}},
                     "required": ["ph", "ts"]},
                    {"properties": {"ph": {"const": "C"}},
                     "required": ["ph", "ts", "args"]},
                    {"properties": {"ph": {"const": "M"}},
                     "required": ["ph"]},
                ],
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
    },
}


def validate_chrome_trace(doc: object) -> list[str]:
    """Problems of ``doc`` against :data:`TRACE_SCHEMA`.

    An empty list means the document is a loadable Chrome/Perfetto
    trace as this repo emits it.
    """
    return check(doc, TRACE_SCHEMA)
