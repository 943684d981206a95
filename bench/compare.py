#!/usr/bin/env python3
"""Compare two benchmark records: A (base) against B.

    python3 bench/compare.py A.json B.json [--exact]

``A.json``/``B.json`` are what ``bench/run.py --out`` writes (a whole
suite or one workload).  One row per workload x end-to-end metric: both
medians, the ratio B/A with its base, the bound from ``BENCHMARK.json``
and a verdict:

* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``same``       within the bound;
* ``unresolved`` a side's own pass-to-pass spread (interquartile range
  over its median) exceeds the bound, so the comparison cannot tell.

``sim_s`` and the counters are deterministic: they are reported as
``identical`` or ``changed``.  Exit code 1 on any ``worse`` — and, with
``--exact`` (an A/A comparison of one commit), on any ``unresolved`` or
``changed`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path: str) -> dict[str, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value).

    Inclusive quartiles: a run has as few as four passes, and the default
    method extrapolates beyond the observed values on so few points.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse B is than A as a share of A)."""
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    if max(spread(a["passes"]), spread(b["passes"])) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact", action="store_true",
                        help="A/A mode: unresolved or changed also fail")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    side_a, side_b = load_records(args.a), load_records(args.b)
    failing = {"worse"} | ({"unresolved", "changed"} if args.exact else set())
    status = 0
    print(f"{'workload':<15s} {'metric':<12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s}  {'bound':>5s}  verdict")
    for name in side_a:
        if name not in side_b:
            print(f"{name:<15s} missing in B")
            status = 1
            continue
        a, b = side_a[name], side_b[name]
        for metric in metrics:
            key = metric["name"]
            ma, mb = a["end_to_end"][key], b["end_to_end"][key]
            word, worse_by = verdict(ma, mb, metric["better"],
                                     metric["bound"])
            status |= word in failing
            print(f"{name:<15s} {key:<12s} {ma['value']:>12.4f} "
                  f"{mb['value']:>12.4f} {mb['value'] / ma['value']:>7.3f}  "
                  f"{metric['bound']:>5.0%}  {word} "
                  f"({worse_by:+.1%} worse, base A = {ma['value']:.4f} "
                  f"{metric['unit']})")
        for key in ("sim_s", "counters", "failed"):
            word = "identical" if a[key] == b[key] else "changed"
            status |= word in failing
            shown = (f"{a[key]!r} -> {b[key]!r}" if key != "counters"
                     else f"{len(a[key])} counters")
            print(f"{name:<15s} {key:<12s} {shown}  {word}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
