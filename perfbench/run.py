#!/usr/bin/env python3
"""Corner-sweep benchmark: build corner_bench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the emc
library and the benchmark under .bench_build/perfbench (about a minute on
4 cores); later runs rebuild only what changed. Progress and the human-readable
report go to stderr; the last line of stdout is the JSON result, checked here
against BENCHMARK.json (exact keys, every metric of the mode with its unit).
Exits nonzero, without a result line, when the build or the run fails or the
result is malformed; exits nonzero after the result line when a correctness
check failed.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def sh(cmd, timeout):
    """Run `cmd` with its stdout sent to our stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True, timeout=timeout)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
           BUILD_TIMEOUT_S)
    sh(["cmake", "--build", str(BUILD), "--target", "corner_bench", "-j", "4"],
       BUILD_TIMEOUT_S)


def check_result(line, metrics):
    """Parse the result line; raise ValueError unless it has exactly the
    contract's keys and exactly `metrics` ({name: unit})."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys must be correct, attempted, failed, metrics")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if doc["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    got = doc["metrics"]
    if not isinstance(got, dict) or set(got) != set(metrics):
        missing = sorted(set(metrics) - set(got or {}))
        extra = sorted(set(got or {}) - set(metrics))
        raise ValueError(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, unit in metrics.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError(f"metric {name} must be {{value, unit: {unit}}}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name} has no numeric value")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in spec[kind]}

    try:
        build()
        proc = subprocess.run(
            [str(BUILD / "corner_bench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(BUILD / "work"),
             "--expected", str(HERE / "expected")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"run.py: {e}")

    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: corner_bench printed no result (exit code {proc.returncode})")
    try:
        doc = check_result(lines[-1], metrics)
    except ValueError as e:
        sys.exit(f"run.py: malformed result: {e}")
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not doc["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
