#!/usr/bin/env python3
"""Host benchmark for the SecPB simulator: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig6_grid --seed 1 --seconds 40 --trace 0

Builds the simulator library and the benchmark program from source (CMake,
Release) into $CARGO_TARGET_DIR or .bench_build, runs the workload in its
own process, and prints the program's report. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(BENCHMARK.json lists both). Exits non-zero when the build fails, a check
fails or a metric is missing.

README.md in this directory has the details.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fig6_grid", "paper_point", "crash_soak", "multicore_mix")

PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the program; return its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_program(exe, args, timeout):
    """Run the benchmark program; return (exit code, output lines)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, []
    return proc.returncode, proc.stdout.splitlines() + \
        proc.stderr.splitlines()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every op (for the tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if exe is None:
        return 1

    prog_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--scale", args.scale]
    if args.trace:
        prog_args += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    code, lines = run_program(exe, prog_args, PROGRAM_TIMEOUT_S)
    if code is None:
        log("benchmark program timed out")
        return 1
    result = None
    for line in lines:
        if line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:
        log(f"benchmark program exited {code} without a result")
        return 1

    attempted = result["ops"]
    failed = result["ops_failed"]

    metrics = result["metrics"]
    missing = [m for m in expected_metrics(args.trace) if m not in metrics]
    if missing:
        log("missing metrics: " + ", ".join(missing))
        return 1
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
