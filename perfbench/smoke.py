"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--tiny`` at two seeds untraced
and at one seed traced, and checks that each run passes its correctness gates,
that every metric BENCHMARK.json names appears with its unit, that the two
seeds build different inputs, and that the benchmark refuses to run (nonzero
exit, no result) in a directory holding only BENCHMARK.json and perfbench/.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
TIMEOUT_S = 180


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected, label):
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[0])["info"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: gates failed: {info['problems']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics/units differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{label}: {name} is not a finite number")
    return result, info


def check_refuses_without_checkout(workload):
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    lonely = os.path.join(ROOT, ".perfbench_work", "smoke-lonely")
    shutil.rmtree(lonely, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        proc = run(workload, SEEDS[0], 0, cwd=lonely)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(lonely))
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        digests = []
        for seed in SEEDS:
            result, info = check_result(run(w, seed, 0), end_to_end, f"{w} seed {seed}")
            zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
            if zero:
                raise AssertionError(f"{w} seed {seed}: end-to-end metrics at 0: {zero}")
            digests.append(info["input_sha256"])
        if len(set(digests)) != len(SEEDS):
            raise AssertionError(f"{w}: seeds {SEEDS} built the same inputs")
        _, info = check_result(run(w, SEEDS[0], 1), per_layer, f"{w} traced")
        if info["unfired_spans"]:
            raise AssertionError(f"{w}: spans with zero calls {info['unfired_spans']}")
        print(f"ok {w}")
    check_refuses_without_checkout(bench["workloads"][0]["name"])
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
