#!/usr/bin/env python3
"""Self-test of the benchmark's comparison (compare.py).

    python3 perfbench/selftest.py

1. Two identical sets of runs are not flagged.
2. A synthetic slowdown injected into portal_perfbench's timing harness
   (--inject-slowdown 1.0: every timed call spins as long again) is flagged
   as worse than the bound. The runs use the offline workload on shrunken
   inputs, so the whole test takes about a minute.
"""
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 3
SLOWDOWN = 1.0  # far beyond any bound in BENCHMARK.json (at most 0.25)


def bench(seed, slowdown):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "offline", "--seed",
         str(seed), "--seconds", "2", "--trace", "0", "--scale", "0.1",
         "--inject-slowdown", str(slowdown)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = compare.load_spec()
    base = [bench(seed, 0.0) for seed in range(1, RUNS + 1)]
    slow = [bench(seed, SLOWDOWN) for seed in range(1, RUNS + 1)]
    failures = []

    same = compare.regressions(base, base, spec)
    if same:
        failures.append(f"identical runs flagged: {same}")

    flagged = compare.regressions(base, slow, spec)
    for name in ("setup_s", "latency_p50_s", "latency_tail_s"):
        if name not in flagged:
            failures.append(f"injected {SLOWDOWN:g}x slowdown not flagged on {name}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(f"ok: identical runs not flagged; injected slowdown flagged on "
              f"{', '.join(sorted(flagged))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
