"""Benchmark telemetry: schema-validated machine-readable bench reports.

The harness experiments print human tables; CI and regression tooling
need numbers.  ``scripts/bench_report.py`` runs experiments under a
scoped :class:`~repro.obs.metrics.MetricsCollector` and serializes one
record per experiment — simulated time, wall-clock, key stats counters,
and per-series metric digests — into a ``BENCH_<n>.json`` document
validated against :data:`BENCH_SCHEMA`.

The validator is hand-rolled (like ``repro.obs.schema``) so the
repository needs no ``jsonschema`` dependency.
"""

from __future__ import annotations

from typing import Optional

from repro.common.stats import (
    CACHE_HITS,
    GPU_MALLOCS,
    GPU_RECYCLED,
    INSTRUCTIONS_EXECUTED,
    LINEAGE_PROBES,
    SPARK_JOBS,
)
from repro.workloads.base import WorkloadResult

#: the bench-report format version (bump on breaking record changes).
BENCH_FORMAT = 1

#: counters every experiment record carries (0 when never incremented).
KEY_COUNTERS = (
    LINEAGE_PROBES,
    CACHE_HITS,
    SPARK_JOBS,
    GPU_MALLOCS,
    GPU_RECYCLED,
    INSTRUCTIONS_EXECUTED,
)

#: JSON-Schema (draft-07 subset) describing a BENCH_<n>.json document.
BENCH_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.harness bench report",
    "type": "object",
    "required": ["format", "issue", "experiments"],
    "properties": {
        "format": {"const": BENCH_FORMAT},
        "issue": {"type": "integer", "minimum": 1},
        "experiments": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "wall_s", "sim_time_s", "counters",
                             "metric_series"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "wall_s": {"type": "number", "minimum": 0},
                    "sim_time_s": {"type": "number", "minimum": 0},
                    "workloads": {"type": "integer", "minimum": 0},
                    "counters": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"},
                    },
                    "metric_series": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["n", "min", "max", "mean", "last"],
                        },
                    },
                },
            },
        },
    },
}


def _workload_results(node) -> list[WorkloadResult]:
    """Recursively collect WorkloadResult leaves of an experiment grid."""
    if isinstance(node, WorkloadResult):
        return [node]
    if isinstance(node, dict):
        out: list[WorkloadResult] = []
        for value in node.values():
            out.extend(_workload_results(value))
        return out
    return []


def experiment_record(name: str, result, wall_s: float,
                      metrics_collector=None) -> dict:
    """One bench record for an :class:`ExperimentResult`.

    ``sim_time_s`` sums the simulated elapsed time of every workload
    cell of the grid; ``counters`` sums their stats counters (restricted
    to :data:`KEY_COUNTERS`); ``metric_series`` digests come from the
    run's metrics collector (empty when metering was off).
    """
    workloads = _workload_results(result.grid)
    sim_time = sum(w.elapsed for w in workloads)
    counters = {key: 0 for key in KEY_COUNTERS}
    for w in workloads:
        for key in KEY_COUNTERS:
            counters[key] += int(w.counters.get(key, 0))
    series: dict[str, dict] = {}
    if metrics_collector is not None:
        series = metrics_collector.merged_digests()
    return {
        "name": name,
        "wall_s": float(wall_s),
        "sim_time_s": float(sim_time),
        "workloads": len(workloads),
        "counters": counters,
        "metric_series": series,
    }


def build_bench_report(records: list[dict], issue: int) -> dict:
    """Assemble the top-level BENCH document from experiment records."""
    return {
        "format": BENCH_FORMAT,
        "issue": issue,
        "experiments": records,
    }


def validate_bench_report(doc: object) -> list[str]:
    """Validate ``doc`` against :data:`BENCH_SCHEMA` semantics.

    Returns human-readable problems; empty means the document is a
    well-formed bench report as ``scripts/bench_report.py`` emits it.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top-level document is not a JSON object"]
    if doc.get("format") != BENCH_FORMAT:
        problems.append(f"bad 'format' {doc.get('format')!r} "
                        f"(expected {BENCH_FORMAT})")
    issue = doc.get("issue")
    if not isinstance(issue, int) or issue < 1:
        problems.append(f"bad 'issue' {issue!r}")
    experiments = doc.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        return problems + ["missing/empty 'experiments' array"]
    for i, rec in enumerate(experiments):
        prefix = f"experiments[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{prefix}: not an object")
            continue
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{prefix}: missing/empty 'name'")
        for key in ("wall_s", "sim_time_s"):
            value = rec.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{prefix}: bad {key!r} {value!r}")
        counters = rec.get("counters")
        if not isinstance(counters, dict):
            problems.append(f"{prefix}: missing 'counters'")
        else:
            for cname, cvalue in counters.items():
                if not isinstance(cvalue, int):
                    problems.append(
                        f"{prefix}: counter {cname!r} not an integer"
                    )
        series = rec.get("metric_series")
        if not isinstance(series, dict):
            problems.append(f"{prefix}: missing 'metric_series'")
        else:
            for sname, digest in series.items():
                if not isinstance(digest, dict) or not (
                        {"n", "min", "max", "mean", "last"} <= set(digest)):
                    problems.append(
                        f"{prefix}: bad digest for series {sname!r}"
                    )
        if len(problems) > 50:
            problems.append("... (truncated)")
            break
    return problems


def assert_valid_bench_report(doc: object,
                              context: Optional[str] = None) -> None:
    """Raise ``ValueError`` with all problems if ``doc`` is invalid."""
    problems = validate_bench_report(doc)
    if problems:
        where = f" ({context})" if context else ""
        raise ValueError(
            f"invalid bench report{where}:\n  " + "\n  ".join(problems)
        )


# ------------------------------------------------- server SLO track (issue 10)

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

#: JSON-Schema (draft-07 subset) describing one line of the server
#: JSONL stream (``scripts/server_report.py`` /
#: ``python -m repro.harness --server N --server-report OUT.jsonl``).
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
                            "items": {"type": "string"},
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
            "properties": {"kind": {"const": "tenant_slo"}},
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
    """Validate a server JSONL stream against :data:`SERVER_SCHEMA`.

    Hand-rolled like :func:`validate_bench_report`.  Beyond per-record
    shape it checks stream structure: the first record must be the only
    ``header``, and at least one ``tenant_slo`` and one ``counters``
    record must be present.
    """
    problems: list[str] = []
    if not isinstance(records, list) or not records:
        return ["stream is not a non-empty list of records"]
    kinds: list[str] = []
    for i, rec in enumerate(records):
        prefix = f"records[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{prefix}: not an object")
            continue
        kind = rec.get("kind")
        kinds.append(kind)
        if kind == "header":
            if rec.get("format") != SERVER_FORMAT:
                problems.append(f"{prefix}: bad 'format' "
                                f"{rec.get('format')!r}")
            if rec.get("version") != SERVER_VERSION:
                problems.append(f"{prefix}: bad 'version' "
                                f"{rec.get('version')!r}")
            sessions = rec.get("sessions")
            if not isinstance(sessions, int) or isinstance(sessions, bool) \
                    or sessions < 1:
                problems.append(f"{prefix}: bad 'sessions' {sessions!r}")
            if not isinstance(rec.get("seed"), int):
                problems.append(f"{prefix}: bad 'seed' {rec.get('seed')!r}")
            if not isinstance(rec.get("ok"), bool):
                problems.append(f"{prefix}: bad 'ok' {rec.get('ok')!r}")
            tenants = rec.get("tenants")
            if not isinstance(tenants, list) or not tenants or not all(
                    isinstance(t, str) and t for t in tenants):
                problems.append(f"{prefix}: bad 'tenants' {tenants!r}")
            dumps = rec.get("flight_dumps")
            if not isinstance(dumps, int) or isinstance(dumps, bool) \
                    or dumps < 0:
                problems.append(f"{prefix}: bad 'flight_dumps' {dumps!r}")
        elif kind == "request":
            for key in ("name", "tenant", "request_id"):
                value = rec.get(key)
                if not isinstance(value, str) or not value:
                    problems.append(f"{prefix}: bad {key!r} {value!r}")
            if not isinstance(rec.get("ok"), bool):
                problems.append(f"{prefix}: bad 'ok' {rec.get('ok')!r}")
            for key in ("steps", "retries"):
                value = rec.get(key)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    problems.append(f"{prefix}: bad {key!r} {value!r}")
            latency = rec.get("sim_latency_s")
            if not isinstance(latency, (int, float)) \
                    or isinstance(latency, bool) or latency < 0:
                problems.append(f"{prefix}: bad 'sim_latency_s' {latency!r}")
        elif kind == "tenant_slo":
            missing = [k for k in SERVER_SLO_KEYS if k not in rec]
            if missing:
                problems.append(f"{prefix}: missing SLO fields {missing}")
                continue
            if not isinstance(rec["tenant"], str) or not rec["tenant"]:
                problems.append(f"{prefix}: bad 'tenant' {rec['tenant']!r}")
            for key in ("latency_p50_s", "latency_p99_s", "hit_rate"):
                value = rec.get(key)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    problems.append(f"{prefix}: bad {key!r} {value!r}")
            if isinstance(rec.get("hit_rate"), (int, float)) \
                    and rec["hit_rate"] > 1:
                problems.append(f"{prefix}: 'hit_rate' {rec['hit_rate']!r} "
                                f"> 1")
        elif kind == "attribution":
            for key in ("producer", "consumer"):
                value = rec.get(key)
                if not isinstance(value, str) or not value:
                    problems.append(f"{prefix}: bad {key!r} {value!r}")
            hits = rec.get("hits")
            if not isinstance(hits, int) or isinstance(hits, bool) \
                    or hits < 1:
                problems.append(f"{prefix}: bad 'hits' {hits!r}")
            for key in ("bytes", "cost_avoided"):
                value = rec.get(key)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    problems.append(f"{prefix}: bad {key!r} {value!r}")
        elif kind == "counters":
            counters = rec.get("counters")
            if not isinstance(counters, dict):
                problems.append(f"{prefix}: missing 'counters'")
            else:
                for cname, cvalue in counters.items():
                    if not isinstance(cvalue, int) \
                            or isinstance(cvalue, bool):
                        problems.append(
                            f"{prefix}: counter {cname!r} not an integer"
                        )
        else:
            problems.append(f"{prefix}: unknown kind {kind!r}")
        if len(problems) > 50:
            problems.append("... (truncated)")
            break
    if kinds[:1] != ["header"] or kinds.count("header") != 1:
        problems.append("stream must start with exactly one 'header' record")
    if "tenant_slo" not in kinds:
        problems.append("stream has no 'tenant_slo' record")
    if "counters" not in kinds:
        problems.append("stream has no 'counters' record")
    return problems


def assert_valid_server_records(records: object,
                                context: Optional[str] = None) -> None:
    """Raise ``ValueError`` with all problems if the stream is invalid."""
    problems = validate_server_records(records)
    if problems:
        where = f" ({context})" if context else ""
        raise ValueError(
            f"invalid server report{where}:\n  " + "\n  ".join(problems)
        )


def write_server_jsonl(path: str, records: list[dict]) -> None:
    """Write records one-per-line with sorted keys (byte-reproducible)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_server_jsonl(path: str) -> list[dict]:
    """Load a server JSONL stream back into a list of records."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
