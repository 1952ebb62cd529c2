#!/usr/bin/env python3
"""Builds and runs the real-core benchmark, then checks its own output.

Usage, from the repository root:

    python3 perfbench/run.py --workload fattree-dense --seed 1 --seconds 10 --trace 0

Builds the library from src/ plus the benchmark program in perfbench/ (CMake,
Release) under .bench_build/perfbench/, runs one workload for --seconds, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics named in BENCHMARK.json, with --trace 1 the per-layer ones. The full
record of the run (provenance, every metric with its sample count, every
sample) and, with --trace 1, a Chrome trace-event JSON of one traced sample
are written to .bench_build/perfbench/results/.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fattree-dense", "torus-sync", "wan-whatif")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = BUILD / "build"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return build_dir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"  # An exported checkout; src_digest() names the code.
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the library sources, so a result names the code it ran
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in result: {keys}")
    return dict(pairs)


def self_check(result, trace):
    """Every metric BENCHMARK.json names for this mode is printed exactly
    once, with its unit and a finite value, and nothing else is."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, not {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} has value {got.get('value')}")
    extra = sorted(set(metrics) - set(names))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    binary = build()
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {BINARY_TIMEOUT_S} s")
        sys.exit(1)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        log(f"no result line (exit status {done.returncode}): {e}")
        sys.exit(1)
    problems = self_check(result, args.trace == 1)
    if problems:
        for p in problems:
            log(f"self-check: {p}")
        sys.exit(1)
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
