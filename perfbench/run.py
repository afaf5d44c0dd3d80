#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the nldl library under src/) into
.bench_build/perfbench with CMake, runs the perfbench binary, and passes
its standard output through; the last line is the JSON result. Build
output goes to standard error. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("online_stream", "qos_stream", "solver_sweep", "paper_kernels")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure once, then bring `targets` up to date. Returns the build dir."""
    if not (ROOT / "src").is_dir():
        fail(f"no nldl sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD_DIR


def revision():
    """The git revision when the tree is a git checkout, else a digest of
    the library and benchmark sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = build(["perfbench"])
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision(), "--out-dir", str(OUT_DIR)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
