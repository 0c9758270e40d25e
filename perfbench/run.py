#!/usr/bin/env python3
"""Fremont benchmark runner.

Builds fremont_perfbench from the repository's sources (CMake + Ninja, into
$CARGO_TARGET_DIR or .bench_build at the repository root) and runs one
workload:

    python3 perfbench/run.py --workload campus --seed 1 --seconds 20 --trace 0

--workload all runs every workload in turn and ends with one combined JSON
line whose metrics are named <workload>.<metric>. The last line of standard
output is always the result JSON; build output goes to standard error. The
exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campus", "sharded_sweep", "journal_serve")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(build_path):
    """Configures (once) and builds the benchmark; returns the binary or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_path / "build.ninja").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_path), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_path), "--target", "fremont_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return build_path / "fremont_perfbench"


def run_one(binary, build_path, args, workload):
    """Runs one workload; returns (exit status, its result line)."""
    out_dir = build_path / f"run-{workload}-{os.getpid()}"
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    if args.trace:
        command += ["--spans", str(build_path / f"trace-{workload}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no Fremont sources under {ROOT}", file=sys.stderr)
        return 3
    build_path = build_dir()
    binary = build(build_path)
    if binary is None or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    if args.workload != "all":
        status, lines = run_one(binary, build_path, args, args.workload)
        print("\n".join(lines), flush=True)
        return status

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        status, lines = run_one(binary, build_path, args, workload)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or status
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return status or 1
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
