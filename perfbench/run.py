#!/usr/bin/env python3
"""Run one workload of the HighRPM repository benchmark.

    python3 perfbench/run.py --workload fleet-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (and through it the
library in src/) into .bench_build/ in Release mode, runs the benchmark
executable, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. A
per-layer metric the workload does not exercise reads 0. Build output goes
to stderr. Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "highrpm_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "highrpm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    env = dict(os.environ, HIGHRPM_OBS="0")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not args.trace:
                fail(f"end-to-end metric {name} missing")
            got[name] = {"value": 0, "unit": unit}  # layer not exercised
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            fail(f"{name}: unit {got[name]['unit']!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: non-finite value {value!r}")
        if not args.trace and value <= 0:
            fail(f"end-to-end metric {name} is {value}, must be positive")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(got) - set(metrics))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))

    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
