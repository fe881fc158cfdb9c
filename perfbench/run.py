#!/usr/bin/env python3
"""Portal's benchmark: one workload at one seed, traced or untraced.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the library from src/ plus the portal_perfbench binary)
under .bench_build/ on first use, runs it, checks its answers and
prints every metric by name with its unit. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). The exit code is non-zero when an answer check failed.

setup_s is the median of at least three set-ups. The serve workloads set up
a fresh service per trial inside the run; offline sets up once per process
(its cold JIT compile needs an empty artifact cache), so further
--setup-only processes, each with a fresh cache, make up the count.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "portal_perfbench")
WORKLOADS = ("offline", "serve-mixed", "serve-ingest", "serve-ann")
SETUP_SAMPLES = 3       # set-ups per run whose median is setup_s
BENCH_TIMEOUT_S = 150  # per portal_perfbench process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then an incremental build. Logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                    "portal_perfbench"], stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code even where the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(args, tag):
    """One portal_perfbench process with a fresh JIT artifact cache and TMPDIR inside
    the checkout; returns its JSON record."""
    work = os.path.join(SCRATCH, f"{os.getpid()}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "jit"))
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(nproc())
    env["PORTAL_JIT_CACHE_DIR"] = os.path.join(work, "jit")
    env["TMPDIR"] = os.path.join(work, "tmp")
    env.pop("PORTAL_TRACE", None)
    try:
        proc = subprocess.run([BINARY] + args, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=BENCH_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"portal_perfbench exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset size factor (the self-test shrinks inputs)")
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    help="self-test only: spin this multiple of every timed call")
    opt = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    common = ["--workload", opt.workload, "--seed", str(opt.seed), "--seconds",
              str(opt.seconds), "--scale", str(opt.scale), "--inject-slowdown",
              str(opt.inject_slowdown)]
    main_args = common + ["--trace", str(opt.trace)]
    spans_path = None
    if opt.trace:
        spans_path = os.path.join(ROOT, ".bench_build", "spans",
                                  f"{opt.workload}-seed{opt.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        main_args += ["--spans", spans_path]
    rec = run_bench(main_args, "main")
    setups = [rec]
    setup_samples = list(rec["setup_s"])
    # A traced run reports no setup_s, so it adds no set-ups.
    while not opt.trace and len(setup_samples) < SETUP_SAMPLES:
        setups.append(run_bench(common + ["--setup-only"], f"setup{len(setups)}"))
        setup_samples += setups[-1]["setup_s"]

    setup_s = statistics.median(setup_samples)
    mismatches = sum(r["mismatches"] for r in setups)
    attempted = sum(r["attempted"] for r in setups[1:]) + rec["attempted"]
    failed = sum(r["failed"] for r in setups) + mismatches
    correct = mismatches == 0

    e2e = {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_s": metric(statistics.median(rec["latency_p50_s"]), "s"),
        "latency_tail_s": metric(statistics.median(rec["latency_tail_s"]), "s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in setups), "MB"),
    }

    # Human-readable report: provenance, phases, every named metric.
    machine = dict(rec["machine"], nproc=nproc(), git_commit=git_commit(),
                   source_sha256=source_digest(), seed=opt.seed,
                   workload=opt.workload, trace=opt.trace)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"setup_s samples: {[round(v, 6) for v in setup_samples]}")
    print(f"latency_p50_s per trial: {rec['latency_p50_s']}")
    print(f"latency_tail_s per trial: {rec['latency_tail_s']}")
    for name, ph in rec["phases"].items():
        print(f"phase {name:16s} sent {ph['sent']:8d} ok {ph['ok']:8d} "
              f"failed {ph['failed']:6d}")
    print(f"answer checks: {rec['checked']} checked, {mismatches} mismatched")
    for note in rec["mismatch_notes"]:
        print(f"  mismatch: {note['note']}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g} ratio")
    print(f"latency tail = p{100 * rec['latency_tail_q']:g} over "
          f"{rec['latency_samples']} samples")
    for name, m in rec["named"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in e2e.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    if opt.trace:
        for name, row in rec["spans"].items():
            print(f"span {name:24s} count {row['count']:8.0f} total {row['total_s']:.6f} s "
                  f"self {row['self_s']:.6f} s")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        for name, m in rec["layers"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        wanted = spec["per_layer"]
        source = rec["layers"]
    else:
        wanted = spec["end_to_end"]
        source = e2e

    metrics = {}
    for row in wanted:
        got = source.get(row["name"])
        if got is None or got["value"] is None or got["unit"] != row["unit"]:
            raise RuntimeError(f"metric {row['name']} ({row['unit']}) missing from the "
                               f"{opt.workload} run")
        metrics[row["name"]] = {"value": got["value"], "unit": row["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
