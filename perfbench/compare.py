#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE CANDIDATE

BASE and CANDIDATE are files holding one run.py result line per run (the
last stdout line of each run). For every end_to_end metric the medians of
the two sets are compared; a metric is flagged when the candidate's median
is worse than the base's by more than the metric's bound (a share of the
base median). Exits 1 when any metric is flagged.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def regressions(base, cand, spec):
    """Names of the end_to_end metrics whose candidate median is worse than
    the base median by more than the bound, with the relative change."""
    flagged = {}
    for row in spec["end_to_end"]:
        name = row["name"]
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        c = statistics.median(r["metrics"][name]["value"] for r in cand)
        change = (c - b) / b if row["better"] == "lower" else (b - c) / b
        if change > row["bound"]:
            flagged[name] = change
    return flagged


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    flagged = regressions(load_runs(sys.argv[1]), load_runs(sys.argv[2]), load_spec())
    for name, change in flagged.items():
        print(f"{name}: worse by {100 * change:.1f}% (beyond its bound)")
    print("regression" if flagged else "no regression beyond the bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
