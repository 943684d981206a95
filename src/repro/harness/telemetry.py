"""Server telemetry: the schema-validated machine-readable SLO stream.

The server demo prints a human report; CI and regression tooling need
numbers.  ``python -m repro.harness --server N --server-report
OUT.jsonl`` flattens the :class:`~repro.server.scheduler.ServerReport`
into one JSON record per line — header, requests, per-tenant SLO rows,
attribution cells, merged counters — validated against
:data:`SERVER_SCHEMA` (interpreted by :func:`repro.common.schema.check`)
before anything is written.
"""

from __future__ import annotations

import json

from repro.common.schema import check

#: format tag of the server observability JSONL stream.
SERVER_FORMAT = "SERVER"

#: server stream version (bump on breaking record changes).
SERVER_VERSION = 1

#: record kinds a server JSONL stream may contain, in emission order.
SERVER_RECORD_KINDS = ("header", "request", "tenant_slo", "attribution",
                      "counters")

#: fields every tenant_slo record carries (the per-tenant SLO row).
SERVER_SLO_KEYS = (
    "tenant", "requests", "completed", "failed", "retries",
    "latency_p50_s", "latency_p99_s", "probes", "hits", "hit_rate",
    "cross_session_hits", "dedup_bytes_consumed", "dedup_bytes_produced",
    "backpressure_events", "admission_refusals", "quota_refusals",
    "cp_used", "cp_quota", "quota_headroom",
)

#: JSON-Schema (draft-07 subset) describing one line of the JSONL stream
#: ``python -m repro.harness --server N --server-report OUT.jsonl`` writes.
SERVER_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.server observability record",
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(SERVER_RECORD_KINDS)},
    },
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "header"},
                "format": {"const": SERVER_FORMAT},
                "version": {"const": SERVER_VERSION},
                "sessions": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "ok": {"type": "boolean"},
                "tenants": {"type": "array",
                            "items": {"type": "string", "minLength": 1},
                            "minItems": 1},
                "flight_dumps": {"type": "integer", "minimum": 0},
            },
            "required": ["format", "version", "sessions", "seed", "ok",
                         "tenants", "flight_dumps"],
        },
        {
            "properties": {
                "kind": {"const": "request"},
                "name": {"type": "string", "minLength": 1},
                "tenant": {"type": "string", "minLength": 1},
                "request_id": {"type": "string", "minLength": 1},
                "ok": {"type": "boolean"},
                "steps": {"type": "integer", "minimum": 1},
                "retries": {"type": "integer", "minimum": 0},
                "sim_latency_s": {"type": "number", "minimum": 0},
            },
            "required": ["name", "tenant", "request_id", "ok", "steps",
                         "retries", "sim_latency_s"],
        },
        {
            "properties": {
                "kind": {"const": "tenant_slo"},
                "tenant": {"type": "string", "minLength": 1},
                "latency_p50_s": {"type": "number", "minimum": 0},
                "latency_p99_s": {"type": "number", "minimum": 0},
                "hit_rate": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "required": list(SERVER_SLO_KEYS),
        },
        {
            "properties": {
                "kind": {"const": "attribution"},
                "producer": {"type": "string", "minLength": 1},
                "consumer": {"type": "string", "minLength": 1},
                "hits": {"type": "integer", "minimum": 1},
                "bytes": {"type": "integer", "minimum": 0},
                "cost_avoided": {"type": "number", "minimum": 0},
            },
            "required": ["producer", "consumer", "hits", "bytes",
                         "cost_avoided"],
        },
        {
            "properties": {
                "kind": {"const": "counters"},
                "counters": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
            },
            "required": ["counters"],
        },
    ],
}


#: the stream as one document: a non-empty list of such records.
_SERVER_STREAM = {"type": "array", "minItems": 1, "items": SERVER_SCHEMA}


def server_report_records(report, sessions: int, seed: int) -> list[dict]:
    """Flatten a :class:`~repro.server.scheduler.ServerReport` to records.

    One ``header`` line, one ``request`` line per request (submit
    order), one ``tenant_slo`` line per tenant (sorted), one
    ``attribution`` line per producer→consumer cell (sorted), and one
    trailing ``counters`` line with the merged counters — a stable
    order, so the same seed yields a byte-identical JSONL file.
    """
    records: list[dict] = [{
        "kind": "header",
        "format": SERVER_FORMAT,
        "version": SERVER_VERSION,
        "sessions": sessions,
        "seed": seed,
        "ok": report.ok,
        "tenants": sorted(report.slo),
        "flight_dumps": len(report.flight_dumps),
    }]
    for result in report.results:
        records.append({"kind": "request", **result.as_record()})
    for tenant in sorted(report.slo):
        records.append({"kind": "tenant_slo", **report.slo[tenant]})
    for cell in report.attribution:
        records.append({"kind": "attribution", **cell})
    records.append({
        "kind": "counters",
        "counters": {name: int(count)
                     for name, count in sorted(report.merged.counters().items())},
    })
    return records


def validate_server_records(records: object) -> list[str]:
    """Problems of a server JSONL stream: every record against
    :data:`SERVER_SCHEMA`, plus the stream structure no per-record
    schema can state — the first record is the only ``header``, and at
    least one ``tenant_slo`` and one ``counters`` record are present."""
    problems = check(records, _SERVER_STREAM, "records")
    if not isinstance(records, list) or not records:
        return problems
    kinds = [r.get("kind") if isinstance(r, dict) else None for r in records]
    if kinds[0] != "header" or kinds.count("header") != 1:
        problems.append("stream must start with exactly one 'header' record")
    problems += [f"stream has no {kind!r} record"
                 for kind in ("tenant_slo", "counters") if kind not in kinds]
    return problems


def write_server_jsonl(path: str, records: list[dict]) -> None:
    """Write records one-per-line with sorted keys (byte-reproducible)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_server_jsonl(path: str) -> list[dict]:
    """Load a server JSONL stream back into a list of records."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
