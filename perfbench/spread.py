#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage (from the root of an AirIndex checkout):

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the bound BENCHMARK.json fixes for the metric. The
benchmark is steady when every spread but setup_s's stays well below its
bound. Exits non-zero if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stderr)
            print(f"seed {seed}: exit {result.returncode}")
            return 1
        report = json.loads(lines[-1])
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']}",
              flush=True)

    print(f"{'metric':40} {'median':>16} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:40} {median:16.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
