"""One interpreter for the draft-07 subset the repo's schema dicts use.

:func:`check` *interprets* ``TRACE_SCHEMA`` (``repro.obs.schema``) and
``SERVER_SCHEMA`` (``repro.harness.telemetry``), so a dict and its
validator cannot disagree and no ``jsonschema`` dependency is needed
(where it is installed, ``tests/test_schema.py`` holds ``check`` to
``Draft7Validator``'s verdict).  Keywords: ``type``,
``required``, ``properties``, ``additionalProperties``, ``items``,
``enum``, ``const``, ``minimum``, ``maximum``, ``minLength``,
``minItems``, ``oneOf``.  One deliberate difference: ``1.0`` is not an
``integer`` — :mod:`json` keeps ``1`` and ``1.0`` apart, and the
integers these schemas describe are counts.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

#: a report lists this many problems, then ``... (truncated)``.
MAX_PROBLEMS = 50

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
        if "maximum" in schema and doc > schema["maximum"]:
            yield f"{where}: {doc!r} is above the maximum {schema['maximum']!r}"
    elif "string" in kinds:
        if len(doc) < schema.get("minLength", 0):
            yield f"{where}: {doc!r} is shorter than {schema['minLength']}"
    elif "array" in kinds:
        if len(doc) < schema.get("minItems", 0):
            yield f"{where}: fewer than {schema['minItems']} item(s)"
        if "items" in schema:
            for i, item in enumerate(doc):
                yield from _walk(item, schema["items"], f"{path}[{i}]")
    elif "object" in kinds:
        for key in schema.get("required", ()):
            if key not in doc:
                yield f"{where}: missing required {key!r}"
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items():
            sub = properties.get(key, extra)
            if sub is False:
                yield f"{where}: unexpected property {key!r}"
            elif sub is not True:
                yield from _walk(value, sub, f"{path}.{key}" if path else key)
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


def check(doc: object, schema: dict, path: str = "") -> list[str]:
    """``path: problem`` strings for ``doc`` against ``schema`` (empty
    means valid); ``path`` names the document, the root prints as ``$``."""
    problems = list(islice(_walk(doc, schema, path), MAX_PROBLEMS + 1))
    if len(problems) > MAX_PROBLEMS:
        problems[MAX_PROBLEMS:] = ["... (truncated)"]
    return problems


def assert_valid(problems: list[str], what: str,
                 context: Optional[str] = None) -> None:
    """Raise ``ValueError`` listing ``problems`` (a validator's result)."""
    if problems:
        where = f" ({context})" if context else ""
        raise ValueError(f"invalid {what}{where}:\n  " + "\n  ".join(problems))
