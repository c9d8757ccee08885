#!/usr/bin/env python3
"""End-to-end benchmark front end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It builds perfbench/ (the load
generator, linked against the library sources under src/) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's seeded
inputs into .bench_cache/ (cached by design, size and seed), runs the
workload and prints its report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. A per-layer metric that a workload does
not exercise reads 0 (that layer did no work). With --trace 1 a
Perfetto/chrome trace of the run is written under .bench_out/.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each invocation must finish within 180 s; the first one in a checkout
# also builds and may take longer.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}", 2)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_BUDGET_S
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_quiet(configure, deadline)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_quiet(["cmake", "--build", build_dir, "-j", jobs], deadline)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def run_quiet(command, deadline):
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        fail(f"failed: {' '.join(command)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cache_dir = os.path.join(ROOT, ".bench_cache")
    out_dir = os.path.join(ROOT, ".bench_out")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache", cache_dir]

    deadline = time.monotonic() + RUN_BUDGET_S
    run_quiet([binary, "gen"] + common, deadline)
    try:
        result = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--out", out_dir],
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload run exceeded its time budget")
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        fail(f"workload run exited with {result.returncode}")
    lines = result.stdout.rstrip("\n").split("\n")
    report = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": entry["unit"]}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            fail(f"workload did not report end-to-end metric {name}")
    unknown = sorted(set(measured) - set(metrics))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
