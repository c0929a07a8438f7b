#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch_build|live_churn|serve_static \
        [--seed N] [--seconds S] [--trace 0|1] [--world-seed N]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the repo's libraries plus the benchmark, Release) under
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. Standard output ends with the benchmark's accounting line
and then its result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is the benchmark's: 0 only when every output was correct.
Traced runs leave their spans in .bench_build/traces/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_BUILD = ROOT / ".bench_build"
BUILD_DIR = BENCH_BUILD / "perfbench"
WORKLOADS = ("batch_build", "live_churn", "serve_static")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def call(command, timeout):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        die(f"command failed ({result.returncode}): {' '.join(command)}")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT} holds no src/ tree to build; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake is required to build the benchmark")
    BENCH_BUILD.mkdir(exist_ok=True)
    with open(BENCH_BUILD / "build.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD_DIR / "CMakeCache.txt"
        if cache.exists() and f"={HERE}\n" not in cache.read_text(
                encoding="utf-8", errors="replace"):
            shutil.rmtree(BUILD_DIR)  # configured for another checkout path
        if not cache.exists():
            call(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        call(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
              "asrel_perfbench", "perfbench_selftest"], timeout=1500)
    return BUILD_DIR


def run_workload(args, build_dir):
    workdir = BENCH_BUILD / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "asrel_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--world-seed", str(args.world_seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", str(workdir)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        spans = workdir / f"spans-{args.workload}.jsonl"
        if spans.exists():
            traces = BENCH_BUILD / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(spans),
                        str(traces / f"{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = result.stdout.decode("utf-8", errors="replace").splitlines()
    if not lines or not lines[-1].startswith('{"correct":'):
        die(f"{args.workload} printed no result (exit {result.returncode})",
            result.returncode or 3)
    print("\n".join(lines), flush=True)
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=42)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.world_seed < 0 or args.seconds < 1:
        parser.error("seeds must be >= 0 and --seconds >= 1")

    build_dir = build()
    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_selftest")],
                              check=False).returncode
    return run_workload(args, build_dir)


if __name__ == "__main__":
    sys.exit(main())
