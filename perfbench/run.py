#!/usr/bin/env python3
"""Build and run the CereSZ benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first call builds the repository's
src/ modules and the driver into .bench_build/perfbench (CMake, Release);
later calls rebuild only what changed. The driver then runs workload W
with inputs generated from seed N, measuring for S seconds, with the
pinned parameters of perfbench/config.json (--smoke swaps in tiny sizes).
Its last stdout line is the JSON result; the exit code is non-zero when a
check failed, the build failed, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ceresz_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no CereSZ sources under {ROOT}/src")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j4"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def parameters(workload, seed, smoke):
    with open(os.path.join(BENCH_DIR, "config.json")) as f:
        config = json.load(f)
    if workload not in config["workloads"]:
        fail(f"unknown workload {workload!r}")
    params = dict(config["common"])
    params.update(config["workloads"][workload])
    if smoke:
        params.update(config["smoke"]["common"])
        params.update(config["smoke"][workload])
    else:
        cycles = config["expected_cycles"].get(workload, {}).get(str(seed))
        if cycles:
            params["expect_compress_cycles"], params["expect_decompress_cycles"] = cycles
    return params


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail(f"result keys {sorted(result)} != {sorted(keys)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and mesh, for the smoke check")
    args = ap.parse_args()

    params = parameters(args.workload, args.seed, args.smoke)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if not lines or not lines[-1].startswith("{"):
        fail(f"driver exited with {proc.returncode} without a result")
    result = check_result(lines[-1], args.trace)
    print(lines[-1])
    sys.exit(proc.returncode if proc.returncode != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
