#!/usr/bin/env python3
"""Baseline + noise study: the benchmark run the way the driver runs it.

    python3 bench/noise.py --seeds 1-10 --out bench/BASELINE.json

Runs every workload once per seed with the exact driver command line
(``<command> --workload W --seed S --seconds N --trace 0``), parses the
result line, and reports for each end-to-end metric the median, the
quartiles and the *spread* — the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median — next to the bound ``BENCHMARK.json`` fixes.  A spread above a
third of the bound is flagged.  ``--repeat-seed S`` additionally runs one
seed several times, checks that ``sim_s`` and every counter repeat
exactly, and records one traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One driver-style run; returns its full record."""
    out = os.path.join(BENCH_DIR, "out", f"noise-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--out", out]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                         f"\n{proc.stderr}")
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    record["process_wall_s"] = wall
    return record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    from run import load_spec, machine_facts

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--repeat-seed", type=int,
                        help="also run this seed --repeats times and check "
                             "sim_s and all counters are identical")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="write the study as JSON")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    study = {"machine": machine_facts(), "seconds": args.seconds,
             "seeds": seeds, "workloads": {}}
    flagged = 0
    for name in args.workloads.split(","):
        records = [run_once(spec, name, seed, args.seconds)
                   for seed in seeds]
        entry = {
            "ops_per_pass": records[0]["ops_per_pass"],
            "passes": [r["passes"] for r in records],
            "process_wall_s": summarise(
                [r["process_wall_s"] for r in records]),
            "sim_s_by_seed": [r["sim_s"] for r in records],
            "metrics": {},
        }
        print(f"== {name}: {len(seeds)} seeds, "
              f"{entry['ops_per_pass']} ops/pass, passes {entry['passes']}")
        for metric, bound in bounds.items():
            stats = summarise(
                [r["end_to_end"][metric]["value"] for r in records])
            stats["bound"] = bound
            entry["metrics"][metric] = stats
            loud = stats["spread"] > bound / 3 and metric != "setup_s"
            flagged += loud
            print(f"  {metric:<12s} median {stats['median']:>12.4f}  "
                  f"q1 {stats['q1']:>12.4f}  q3 {stats['q3']:>12.4f}  "
                  f"spread {stats['spread']:6.2%} of median "
                  f"(bound {bound:.0%}){'  <-- above bound/3' if loud else ''}")
        if args.repeat_seed is not None:
            repeats = [run_once(spec, name, args.repeat_seed, args.seconds)
                       for _ in range(args.repeats)]
            same = all(r["sim_s"] == repeats[0]["sim_s"]
                       and r["counters"] == repeats[0]["counters"]
                       for r in repeats)
            entry["repeat_seed"] = {
                "seed": args.repeat_seed, "runs": args.repeats,
                "sim_s": repeats[0]["sim_s"],
                "counters_identical": same,
                "metrics": {m: summarise([r["end_to_end"][m]["value"]
                                          for r in repeats])
                            for m in bounds},
            }
            print(f"  seed {args.repeat_seed} x{args.repeats}: sim_s and "
                  f"counters {'identical' if same else 'DIFFER'}")
            flagged += not same
            traced = run_once(spec, name, args.repeat_seed, args.seconds,
                              trace=1)
            entry["repeat_seed"]["per_layer"] = {
                m: v["value"] for m, v in traced["per_layer"].items()}
        study["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(study, fh, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
