#!/usr/bin/env python3
"""The repository benchmark: one command, six workloads.

    python3 bench/run.py                       # all six, one subprocess each
    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` names.  The
exit code is non-zero when any op failed or returned a wrong result.

Protocol (see README.md): a closed loop of one client in one thread; a
run is a sequence of identical *passes*, each building fresh program
state and replaying the same seeded op sequence (a fixed op count, so
counters repeat exactly).  Passes repeat until ``--seconds`` of op time
has been measured (at least four).  Op i is timed once per pass; its
latency is the lower quartile of those timings, and the latency metrics
are computed over that series (see ``quiet``).
"""

from __future__ import annotations

import os
import sys

# one thread, one hash seed: set before numpy / the interpreter start
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if os.environ.get("PYTHONHASHSEED") != "0" and __name__ == "__main__":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import gc
import importlib
import json
import platform
import resource
import subprocess
import time
import traceback

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

_pc = time.perf_counter

#: repro modules the workloads use; importing them is part of set-up.
REPRO_MODULES = ("repro", "repro.server", "repro.ml.l2svm",
                 "repro.workloads.micro", "repro.workloads.hcv")
IMPORT_REPEATS = 5
#: the calibration kernel is timed at most once per this much op time
#: (bounds its cost to a few percent of the fastest workload) ...
CAL_PERIOD_S = 1e-3
#: ... and all times are rescaled to a machine on which it takes this long.
CAL_REF_S = 40e-6
CAL_BURST = 15
MIN_PASSES = 4
MAX_PASSES = 64
MIN_TRACED_PASSES = 2
SMOKE_PASSES = 2

#: per-layer count metric -> Stats counter(s) it sums.
COUNTERS = {
    "memplan.blocks_planned": ("memplan/blocks_planned",),
    "dispatch.items": ("runtime/instructions_executed",
                       "runtime/instructions_skipped"),
    "lineage.items_traced": ("lineage/items_traced",),
    "cache.probes": ("cache/probes",),
    "cache.hits": ("cache/hits",),
    "cache.puts": ("cache/puts",),
    "cache.evictions": ("cache/evictions",),
    "cache.disk_spills": ("cache/disk_spills",),
    "memory.reserves": ("memory/reserves",),
    "memory.evictions": ("memory/evictions",),
    "memory.reserve_failures": ("memory/reserve_failures",),
    "cpu.bytes_allocated": ("cpu/bytes_allocated",),
    "spark.jobs": ("spark/jobs",),
    "spark.tasks": ("spark/tasks",),
    "spark.rdds_reused": ("spark/rdds_reused",),
    "spark.actions_reused": ("spark/actions_reused",),
    "spark.checkpoints_placed": ("compiler/checkpoints_placed",),
    "spark.prefetch_issued": ("async/prefetch_issued",),
    "gpu.kernels": ("gpu/kernels_launched",),
    "gpu.mallocs": ("gpu/cuda_mallocs",),
    "gpu.frees": ("gpu/cuda_frees",),
    "gpu.pointers_recycled": ("gpu/pointers_recycled",),
    "gpu.pointers_reused": ("gpu/pointers_reused",),
    "substrate.cross_session_hits": ("server/cross_session_hits",),
    "substrate.dedup_bytes_saved": ("server/dedup_bytes_saved",),
    "substrate.session_scoped_keys": ("server/session_scoped_keys",),
    "substrate.backpressure_events": ("server/backpressure_events",),
    "substrate.quota_refusals": ("server/quota_refusals",),
    "server.steps": ("server/scheduler_steps",),
    "server.requests": ("server/requests_submitted",),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ set-up

def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The yardstick for the machine's momentary speed: it shares no code
    with the program under test, so speeding the program up cannot move
    it, while a slow phase of the sandbox slows both alike (measured
    correlation across runs 0.97-0.99, see README.md).
    """
    start = _pc()
    acc = 0
    slots = {}
    for i in range(600):
        slots[i & 31] = acc
        acc += i * i
    return _pc() - start


def speed_of(samples) -> float:
    """Machine slowness over ``samples``: 1.0 is the reference machine."""
    return float(np.median(samples)) / CAL_REF_S


def quiet(values) -> float:
    """Lower quartile of repeated timings of the same work.

    The sandbox's speed swings by tens of percent for seconds at a time
    (noisy neighbours), and that noise only ever slows a run down, so a
    low quantile over repeats of identical work is far steadier than the
    median; the quartile, not the minimum, so that one lucky sample or
    the number of repeats does not set the value.
    """
    return float(np.quantile(values, 0.25))


def latency_stats(per_op) -> dict:
    """The latency metrics of one op-latency series (seconds per op)."""
    n = len(per_op)
    ordered = np.sort(per_op)
    decile = max(n // 10, 1)
    return {
        "ops_per_s": n / float(ordered.sum()),
        "op_p50_ms": 1e3 * float(np.median(ordered)),
        "op_p95_ms": 1e3 * float(ordered[min(n - 1, (n * 95) // 100)]),
        "drift_ratio": float(np.median(per_op[-decile:])
                             / np.median(per_op[:decile])),
    }


def timed_import(repeats: int) -> float:
    """Seconds to import the repro modules, over fresh imports.

    Every repeat drops the package (and the workloads bound to it) from
    ``sys.modules`` first, so id counters and ambient slots start clean.
    """
    samples = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "workloads"
                     or m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        speed = speed_of([calibrate() for _ in range(CAL_BURST)])
        start = _pc()
        for name in REPRO_MODULES:
            importlib.import_module(name)
        samples.append((_pc() - start) / speed)
    return quiet(samples)


# ------------------------------------------------------------------ passes

def run_pass(workload, inputs: dict, n_ops: int, probe) -> dict:
    """One pass: fresh state, the whole op sequence, every op timed."""
    gc.collect()
    traced = probe.traced
    if traced:
        probe.reset_spans()
        probe.install_module_wrappers()
    lat = [0.0] * n_ops
    outs: list = [None] * n_ops
    errors: list[str] = []
    cal = [calibrate() for _ in range(CAL_BURST)]
    op = workload.op
    try:
        start = _pc()
        state = workload.setup(inputs, probe)
        t0 = _pc()
        setup_s = t0 - start
        next_cal = t0
        for i in range(n_ops):
            if t0 >= next_cal:
                cal.append(calibrate())
                next_cal = _pc() + CAL_PERIOD_S
            t0 = _pc()
            if traced:
                probe.op = i
                root = probe.begin("handles.build")
            try:
                outs[i] = op(state, inputs, i)
            except Exception:  # an op that raises is a failed op
                if len(errors) < 3:
                    errors.append(traceback.format_exc())
            if traced:
                probe.end(root)
                probe.op = -1
            t1 = _pc()
            lat[i] = t1 - t0
            t0 = t1
            if state.sessions_end_with_op:
                state.fold()
        facts = state.finish()
    finally:
        if traced:
            probe.uninstall()
    # everything timed in this pass is rescaled by the machine's speed
    # while it ran, as the interleaved calibration kernel saw it
    speed = speed_of(cal)
    result = {
        "speed": speed,
        "setup_s": setup_s / speed,
        "lat": np.asarray(lat) / speed,
        "op_wall_s": sum(lat),
        "failed": workload.verify(inputs, outs),
        "errors": errors,
        "facts": facts,
    }
    if traced:
        result["layers"] = layer_metrics(probe, facts, result["op_wall_s"],
                                         speed)
    return result


def layer_metrics(probe, facts: dict, op_wall: float, speed: float) -> dict:
    """Per-layer numbers of one traced pass (times at reference speed)."""
    from tracing import COMPILE_PASSES, SPAN_METRIC

    total, in_ops, span_counts = probe.self_times()
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    for span, seconds in total.items():
        out[SPAN_METRIC[span]] += seconds / speed
    out["compiler.compile_s"] += sum(out[m] for m in COMPILE_PASSES)
    counters = facts["counters"]
    for metric, names in COUNTERS.items():
        out[metric] = sum(counters.get(n, 0) for n in names)
    out["cpu.calls"] = span_counts.get("cpu.exec", 0)
    out["compiler.blocks"] = probe.blocks
    out["compiler.hops_per_block"] = probe.block_hops / max(probe.blocks, 1)
    out["memory.victim_scan_len_mean"] = (
        probe.victim_scan_len / max(probe.victim_scans, 1))
    out["dispatch.self_us_per_item"] = (
        1e6 * out["dispatch.self_s"] / max(out["dispatch.items"], 1))
    out["cache.hit_rate"] = out["cache.hits"] / max(out["cache.probes"], 1)
    out["cache.entries_end"] = facts["cache_entries_end"]
    out["lineage.interner_size"] = facts["interner_size"]
    out["session.inits"] = facts["session_inits"]
    out["sim.host_s"] = facts["sim_s"]
    out["harness.layer_sum_ratio"] = sum(in_ops.values()) / op_wall
    return out


def run_workload(args, spec: dict) -> dict:
    """All passes of one workload in this process; returns the record."""
    import_s = timed_import(2 if args.smoke else IMPORT_REPEATS)
    from tracing import NullProbe, SpanProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    n_ops = workload.smoke_ops if args.smoke else workload.ops
    start = _pc()
    inputs = workload.generate(args.seed, n_ops)
    gen_s = _pc() - start

    plain, probe = NullProbe(), SpanProbe()
    budget = 0.0 if args.smoke else args.seconds
    if args.trace:
        floor = 1 if args.smoke else MIN_TRACED_PASSES
    else:
        floor = SMOKE_PASSES if args.smoke else MIN_PASSES
    untraced: list[dict] = []
    traced: list[dict] = []
    measured = 0.0
    while len(untraced) + len(traced) < MAX_PASSES:
        # a traced run alternates traced and untraced passes, so both
        # sides of the overhead ratio see the same warm-up and drift
        tracing = bool(args.trace and len(traced) <= len(untraced))
        enough = (len(traced) >= floor and len(untraced) >= 1) \
            if args.trace else len(untraced) >= floor
        if enough and measured >= budget:
            break
        result = run_pass(workload, inputs, n_ops, probe if tracing else plain)
        (traced if tracing else untraced).append(result)
        measured += result["op_wall_s"]

    passes = untraced + traced
    facts = passes[0]["facts"]
    repeatable = all(p["facts"] == facts for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "ops_per_pass": n_ops,
        "passes": len(passes),
        "attempted": n_ops * len(passes),
        "failed": failed,
        "repeatable": repeatable,
        "errors": [e for p in passes for e in p["errors"]][:3],
        "sim_s": facts["sim_s"],
        "counters": facts["counters"],
        "gen_s": gen_s,
        #: per pass; a reported time x this = the raw time on this box
        "machine_speed": [p["speed"] for p in passes],
    }

    # end-to-end numbers always come from untraced passes.  Every pass
    # replays the same ops, so op i is timed once per pass: its latency
    # is the lower quartile of those timings (see ``quiet``).
    per_op = np.quantile([p["lat"] for p in untraced], 0.25, axis=0)
    by_pass = [latency_stats(np.asarray(p["lat"])) for p in untraced]
    stats = latency_stats(per_op)
    e2e = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "peak_rss_mb":
            values = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024.0]
            value = values[0]
        elif name == "setup_s":
            values = [import_s + p["setup_s"] for p in untraced]
            value = quiet(values)
        else:
            values = [row[name] for row in by_pass]
            value = stats[name]
        e2e[name] = {"value": value, "unit": metric["unit"],
                     "passes": values}
    record["end_to_end"] = e2e
    record["failed_op_share"] = failed / record["attempted"]

    if args.trace:
        traced_per_op = np.quantile([p["lat"] for p in traced], 0.25, axis=0)
        layers = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "harness.trace_overhead_ratio":
                value = float(traced_per_op.sum() / per_op.sum())
            elif name == "harness.drift_ratio":
                value = stats["drift_ratio"]
            elif name == "harness.gen_s":
                value = gen_s
            else:
                value = quiet([p["layers"][name] for p in traced])
            layers[name] = {"value": value, "unit": metric["unit"]}
        record["per_layer"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_doc = {"workload": workload.name, "seed": args.seed,
                     "ops_per_pass": n_ops, **probe.sample()}
        with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                  "w") as fh:
            json.dump(trace_doc, fh)
    return record


# ------------------------------------------------------------------ output

def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"{record['passes']} passes x {record['ops_per_pass']} ops  "
          f"trace={record['trace']}")
    rows = [(name, m["value"], m["unit"])
            for name, m in record["end_to_end"].items()]
    rows.append(("sim_s", record["sim_s"], "sim_s"))
    rows.append(("failed_op_share", record["failed_op_share"], "ratio"))
    rows.extend((name, m["value"], m["unit"])
                for name, m in record.get("per_layer", {}).items())
    for name, value, unit in rows:
        print(f"  {name:<34s} {value:>16.6f} {unit}")
    if not record["repeatable"]:
        print("  NOT REPEATABLE: counters or sim_s differ between passes")
    for error in record["errors"]:
        print(error, file=sys.stderr)


def result_line(record: dict) -> str:
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0 and record["repeatable"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in source.items()},
    })


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def run_suite(args, spec: dict) -> int:
    """Every workload in its own subprocess (clean counters, own RSS)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    suite = {"seed": args.seed, "seconds": args.seconds,
             "machine": machine_facts(), "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace in ([0, 1] if args.trace else [0]):
            out = os.path.join(OUT_DIR, f"run-{name}-{trace}.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", out]
            if args.smoke:
                cmd.append("--smoke")
            status |= subprocess.run(cmd, check=False).returncode
            if os.path.exists(out):
                with open(out) as fh:
                    record = json.load(fh)
                os.remove(out)
                slot = suite["workloads"].setdefault(name, record)
                if trace:
                    slot["per_layer"] = record["per_layer"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(suite, fh, indent=1)
    return 1 if status else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="op time to measure before stopping")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, two passes (tests)")
    parser.add_argument("--out", help="write the full record as JSON")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args, spec)
    record = run_workload(args, spec)
    print_record(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(result_line(record))
    return 0 if record["failed"] == 0 and record["repeatable"] else 1


if __name__ == "__main__":
    sys.exit(main())
