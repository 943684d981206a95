"""``repro.obs.schema.check`` against the reference implementation.

``TRACE_SCHEMA`` is a draft-07 document and ``check`` claims to
interpret it; where the ``jsonschema`` package is installed (it is not
a dependency), ``Draft7Validator`` is the oracle: one valid trace, every
single-point mutation the schema suggests, and the two must agree on
each.
"""

import copy

import pytest

from repro.common.runtime import scope
from repro.obs import (
    TRACE_SCHEMA,
    TraceCollector,
    chrome_trace_dict,
    validate_chrome_trace,
)
from repro.obs.schema import MAX_PROBLEMS, check
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


DOCUMENTS = {"trace": (_trace_doc, TRACE_SCHEMA)}


def _thinned(value):
    """``value`` with one array item per shape (an event per phase and
    key set): mutating one stands for mutating all, and the oracle
    re-validates a small document per mutant."""
    if isinstance(value, dict):
        return {key: _thinned(item) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    first: dict = {}
    for item in value:
        shape = (tuple(sorted(item)), item.get("ph")) \
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
    if schema.get("minLength"):
        yield path, ""
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _mutations(item, schema["items"], validator,
                                  path + (i,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield path + (key,), DROP
        for key, sub in schema.get("properties", {}).items():
            if key in value:
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
    doc = _thinned(_trace_doc())
    doc["traceEvents"][0]["pid"] = -1
    assert any("pid" in p for p in validate_chrome_trace(doc))
    event = TRACE_SCHEMA["properties"]["traceEvents"]["items"]
    monkeypatch.setitem(event["properties"]["pid"], "minimum", -1)
    assert validate_chrome_trace(doc) == []


def test_problem_list_is_truncated():
    doc = {"traceEvents": [{"name": ""}] * MAX_PROBLEMS}
    problems = validate_chrome_trace(doc)
    assert len(problems) == MAX_PROBLEMS + 1
    assert problems[-1] == "... (truncated)"
