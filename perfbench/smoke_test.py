#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at tiny size, untraced and
traced. Asserts that each run exits 0 with "correct": true, and that every
metric BENCHMARK.json names (end-to-end untraced, per-layer traced) is
printed with its unit and a finite value.

    python3 perfbench/smoke_test.py        # from the root of a checkout
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(workload, trace)
                assert result["correct"] is True, "correctness checks failed"
                assert result["failed"] == 0 and result["attempted"] >= 1
                for metric in spec[group]:
                    got = result["metrics"].get(metric["name"])
                    assert got is not None, f"missing {metric['name']}"
                    assert got["unit"] == metric["unit"], f"{metric['name']} unit {got['unit']}"
                    assert math.isfinite(got["value"]), f"{metric['name']} not finite"
                print(f"ok   {workload} trace={trace} ({len(spec[group])} metrics)")
            except (AssertionError, json.JSONDecodeError, subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
