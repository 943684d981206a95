"""The JSON schema of exported Chrome traces, plus its validator.

The schema pins down what the end-to-end trace case
(``tests/test_cli.py::TestQuickstartTrace``) and the round-trip tests
rely on.  :func:`check` *interprets* it, so the dict and its validator
cannot disagree and no ``jsonschema`` dependency is needed (where it is
installed, ``tests/test_schema.py`` holds ``check`` to
``Draft7Validator``'s verdict).  It knows the draft-07 keywords the
dict uses: ``type``, ``required``, ``properties``, ``items``, ``enum``,
``const``, ``minimum``, ``minLength``, ``oneOf``.  One deliberate
difference: ``1.0`` is not an ``integer`` — :mod:`json` keeps ``1`` and
``1.0`` apart, and the integers the schema describes are ids.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

#: a report lists this many problems, then ``... (truncated)``.
MAX_PROBLEMS = 50

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

#: the JSON types of a Python value.  Exact classes, as :mod:`json`
#: produces them — which is also JSON Schema's rule that a boolean is
#: neither an ``integer`` nor a ``number``.
_JSON_TYPES: dict[type, tuple[str, ...]] = {
    dict: ("object",), list: ("array",), str: ("string",),
    bool: ("boolean",), int: ("integer", "number"), float: ("number",),
}


def _same(a: object, b: object) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _tag_misses(doc: object, branch: dict) -> int:
    """How many ``const`` properties of ``branch`` ``doc`` contradicts."""
    if not isinstance(doc, dict):
        return 0
    return sum("const" in sub and key in doc
               and not _same(doc[key], sub["const"])
               for key, sub in branch.get("properties", {}).items())


def _walk(doc: object, schema: dict, path: str) -> Iterator[str]:
    where = path or "$"
    kinds = _JSON_TYPES.get(type(doc), ())
    if "type" in schema and schema["type"] not in kinds:
        yield f"{where}: {doc!r} is not of type {schema['type']}"
        return
    if "const" in schema and not _same(doc, schema["const"]):
        yield f"{where}: {doc!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_same(doc, v) for v in schema["enum"]):
        yield f"{where}: {doc!r} is not one of {schema['enum']!r}"
    if "number" in kinds:
        if "minimum" in schema and doc < schema["minimum"]:
            yield f"{where}: {doc!r} is below the minimum {schema['minimum']!r}"
    elif "string" in kinds:
        if len(doc) < schema.get("minLength", 0):
            yield f"{where}: {doc!r} is shorter than {schema['minLength']}"
    elif "array" in kinds:
        if "items" in schema:
            for i, item in enumerate(doc):
                yield from _walk(item, schema["items"], f"{path}[{i}]")
    elif "object" in kinds:
        for key in schema.get("required", ()):
            if key not in doc:
                yield f"{where}: missing required {key!r}"
        properties = schema.get("properties", {})
        for key, value in doc.items():
            if key in properties:
                yield from _walk(value, properties[key],
                                 f"{path}.{key}" if path else key)
    if "oneOf" in schema:
        found = [list(_walk(doc, sub, path)) for sub in schema["oneOf"]]
        matched = sum(not problems for problems in found)
        if matched > 1:
            yield f"{where}: matches {matched} oneOf branches, not one"
        elif matched == 0:
            # report the branch the document most plausibly meant: the
            # one whose const tag(s) it does not contradict
            yield from min(zip(schema["oneOf"], found), key=lambda pair: (
                _tag_misses(doc, pair[0]), len(pair[1])))[1]


def check(doc: object, schema: dict) -> list[str]:
    """``path: problem`` strings for ``doc`` against ``schema`` (empty
    means valid); the root prints as ``$``."""
    problems = list(islice(_walk(doc, schema, ""), MAX_PROBLEMS + 1))
    if len(problems) > MAX_PROBLEMS:
        problems[MAX_PROBLEMS:] = ["... (truncated)"]
    return problems


def validate_chrome_trace(doc: object) -> list[str]:
    """Problems of ``doc`` against :data:`TRACE_SCHEMA`.

    An empty list means the document is a loadable Chrome/Perfetto
    trace as this repo emits it.
    """
    return check(doc, TRACE_SCHEMA)
