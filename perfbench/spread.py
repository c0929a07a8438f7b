#!/usr/bin/env python3
"""Runs one workload over several seeds and reports how steady it is.

    python3 perfbench/spread.py --workload live_churn [--runs 10] \
        [--first-seed 1]

For every end-to-end metric it prints the median of the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
marked "ok". Any failed run stops the script with its exit code.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"])]
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, check=False)
        lines = result.stdout.decode().splitlines()
        if result.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({result.returncode})")
            return result.returncode or 1
        metrics = json.loads(lines[-1])["metrics"]
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.6g}" for name, metric in
            metrics.items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {name:20s} median {median:12.6g}  spread {spread:6.3f}  "
              f"bound {bound:.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
