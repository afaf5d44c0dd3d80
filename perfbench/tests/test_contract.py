#!/usr/bin/env python3
"""Tests of the benchmark as a whole.

usage: python3 perfbench/tests/test_contract.py

Builds the benchmark binary and its unit tests, runs the unit tests, then runs every
workload briefly with --trace 0 and --trace 1 and checks the result line
against BENCHMARK.json: every printed metric is declared with the same unit
and every declared metric is printed. Finally it checks that the benchmark
fails, without a result, in a tree that holds only BENCHMARK.json and the
benchmark's own files.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    return spec, end_to_end, per_layer, workloads


def run_workload(workload, trace):
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = result.stdout.strip().splitlines()
    check(result.returncode == 0,
          f"{workload} trace {trace} exits 0 (got {result.returncode}: "
          f"{result.stderr.strip()[-300:]})")
    return json.loads(lines[-1]) if lines else {}


def check_result(workload, trace, result, expected):
    where = f"{workload} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys are correct/attempted/failed/metrics")
    check(result.get("correct") is True, f"{where}: outputs are correct")
    check(isinstance(result.get("attempted"), int) and
          result["attempted"] >= 1, f"{where}: attempted >= 1")
    check(isinstance(result.get("failed"), int) and result["failed"] >= 0,
          f"{where}: failed is a count")
    printed = result.get("metrics", {})
    check(set(printed) == set(expected),
          f"{where}: printed metrics {sorted(set(printed) ^ set(expected))} "
          "differ from the declared ones")
    for name, entry in printed.items():
        check(set(entry) == {"value", "unit"},
              f"{where}: {name} has a value and a unit")
        check(entry.get("unit") == expected.get(name),
              f"{where}: {name} unit {entry.get('unit')} is declared")
        value = entry.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{where}: {name} is a finite number")
        if trace == 0:
            check(value > 0, f"{where}: end-to-end {name} is never 0")


def check_fails_without_sources():
    bare = ROOT / ".bench_build" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solver_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(result.returncode != 0, "a tree without sources exits non-zero")
    check(result.stdout.strip() == "", "a tree without sources prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec, end_to_end, per_layer, workloads = declared()
    check(spec["command"] == ["python3", "perfbench/run.py"],
          "BENCHMARK.json runs perfbench/run.py")
    check(tuple(workloads) == run.WORKLOADS,
          "BENCHMARK.json declares the workloads run.py accepts")

    build_dir = run.build(["perfbench", "perfbench_tests"])
    unit = subprocess.run([str(build_dir / "perfbench_tests")])
    check(unit.returncode == 0, "perfbench_tests pass")

    for workload in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = run_workload(workload, trace)
            check_result(workload, trace, result, expected)
            if trace == 1 and workload.endswith("_stream"):
                share = result["metrics"]["dlt.share_of_run"]["value"]
                check(0.0 < share < 1.0,
                      f"{workload}: dlt.share_of_run is a share of the run")
            if trace == 1:
                overhead = result["metrics"]["bench.trace_overhead"]["value"]
                check(overhead > 0.0, f"{workload}: bench.trace_overhead > 0")

    check_fails_without_sources()
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("test_contract: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
