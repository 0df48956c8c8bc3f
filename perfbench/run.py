#!/usr/bin/env python3
"""End-to-end benchmark of the VULFI reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-campaign --seed 1 --seconds 50 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build, runs one
workload for --seconds seconds and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (spans are written to
.bench_run/trace-<workload>-<seed>.json). Exits non-zero, without printing a
result, when the build or the run fails, and with status 1 after printing
the result when an output check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
            "-j", jobs]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        if subprocess.run(make, stdout=sys.stderr).returncode == 0:
            return True
        if attempt == 0:
            log("build failed; reconfiguring from scratch")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return False


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot-campaign", "daemon-study"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 3
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digest = pinned_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench exited with status %d" % proc.returncode)
        return 3
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(names) ^ set(result["metrics"])))
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
