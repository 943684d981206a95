"""``repro.common.schema.check`` against the reference implementation.

The two schema dicts are draft-07 documents and ``check`` claims to
interpret them; where the ``jsonschema`` package is installed (it is
not a dependency), ``Draft7Validator`` is the oracle: one valid document
per schema, every single-point mutation the schema suggests, and the
two must agree on each.
"""

import copy

import pytest

from repro.common.runtime import scope
from repro.common.schema import check
from repro.harness.telemetry import (
    SERVER_SCHEMA,
    server_report_records,
    validate_server_records,
)
from repro.obs import (
    TRACE_SCHEMA,
    TraceCollector,
    chrome_trace_dict,
)
from repro.server import run_server_demo
from repro.workloads.micro import run_fig2c

DROP = object()

#: values of the wrong JSON type for each ``type`` keyword (``True`` for
#: the numeric ones: a boolean is neither an integer nor a number).
WRONG_TYPE = {
    "object": [[], "x"], "array": [{}, "x"], "string": [5, True],
    "boolean": [0, "true"], "integer": ["1", 1.5, True, None],
    "number": ["1", True, None],
}


def _trace_doc() -> dict:
    with scope(trace=TraceCollector()) as rt:
        run_fig2c("MEMPHIS", num_chains=4)
    doc = chrome_trace_dict(rt.trace.events(), rt.trace.session_labels)
    # every phase the schema's oneOf names is there to mutate
    assert {e["ph"] for e in doc["traceEvents"]} == {"X", "i", "C", "M"}
    return doc


def _server_doc() -> list:
    return server_report_records(run_server_demo(4, seed=11), 4, 11)


DOCUMENTS = {
    "trace": (_trace_doc, TRACE_SCHEMA),
    "server": (_server_doc, {"type": "array", "items": SERVER_SCHEMA}),
}


def _thinned(value):
    """``value`` with one array item per shape (an event per phase and
    key set, a record per kind): mutating one stands for mutating all,
    and the oracle re-validates a small document per mutant."""
    if isinstance(value, dict):
        return {key: _thinned(item) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    first: dict = {}
    for item in value:
        shape = (tuple(sorted(item)), item.get("ph"), item.get("kind")) \
            if isinstance(item, dict) else type(item)
        first.setdefault(shape, item)
    return [_thinned(item) for item in first.values()]


def _mutations(value, schema, validator, path=()):
    """``(path, replacement)`` single-point mutations the schema suggests."""
    for wrong in WRONG_TYPE.get(schema.get("type"), ()):
        yield path, wrong
    if "const" in schema:
        yield path, "WRONG"
        yield path, schema["const"] == 1    # True is not 1
    if "enum" in schema:
        yield path, "zzz"
    if "minimum" in schema:
        yield path, schema["minimum"] - 1
    if "maximum" in schema:
        yield path, schema["maximum"] + 0.5
    if schema.get("minLength"):
        yield path, ""
    if schema.get("minItems"):
        yield path, []
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _mutations(item, schema["items"], validator,
                                  path + (i,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield path + (key,), DROP
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key in list(properties) + [k for k in value
                                       if k not in properties][:2]:
            sub = properties.get(key, extra)
            if key in value and isinstance(sub, dict):
                yield from _mutations(value[key], sub, validator,
                                      path + (key,))
    for branch in schema.get("oneOf", ()):
        if validator(branch).is_valid(value):
            yield from _mutations(value, branch, validator, path)


def _mutated(doc, path, replacement):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if replacement is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = replacement
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_check_agrees_with_draft7_validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    build, schema = DOCUMENTS[name]
    oracle = jsonschema.Draft7Validator(schema)
    doc = build()
    assert check(doc, schema) == [] and oracle.is_valid(doc)
    doc = _thinned(doc)
    assert check(doc, schema) == [] and oracle.is_valid(doc)
    rejected = 0
    for path, replacement in _mutations(doc, schema,
                                        jsonschema.Draft7Validator):
        if not path:
            continue  # the root is replaced by the cases below
        mutant = _mutated(doc, path, replacement)
        problems = check(mutant, schema)
        assert (problems == []) == oracle.is_valid(mutant), \
            (path, replacement, problems)
        rejected += bool(problems)
    assert rejected > 20, f"only {rejected} mutants rejected"
    for root in ([], {}, "x", None, 3):
        assert (check(root, schema) == []) == oracle.is_valid(root), root


def test_the_dict_is_what_is_interpreted(monkeypatch):
    records = _server_doc()
    request = next(r for r in records if r["kind"] == "request")
    request["steps"] = 0
    assert any("steps" in p for p in validate_server_records(records))
    branch = next(b for b in SERVER_SCHEMA["oneOf"]
                  if b["properties"]["kind"]["const"] == "request")
    monkeypatch.setitem(branch["properties"]["steps"], "minimum", 0)
    assert validate_server_records(records) == []
