"""Steadiness of the benchmark: repeat each workload over seeds and summarize each metric.

    python3 perfbench/steady.py --runs 10 --seconds 30 [--first-seed 1]

Runs perfbench/run.py untraced once per (workload, seed) for every
workload, one run at a time, and prints for every metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
with the failed share of each run.  The end-to-end bounds in
BENCHMARK.json were set from these spreads (see README.md).
The raw results go to perfbench/results/steady-<first seed>-<runs>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

import checkout
import workloads


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(checkout.ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=checkout.ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[name] = {
            "unit": entry["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    report = {}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            run = run_once(workload, seed, opts.seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}", file=sys.stderr)
        shares = sorted({str(Fraction(run["failed"], run["attempted"])) for run in runs})
        report[workload] = {
            "runs": runs,
            "all_correct": all(run["correct"] for run in runs),
            "failed_shares": shares,
            "metrics": summarize(runs),
        }
        print(f"\n{workload}: {opts.runs} runs of {opts.seconds:g} s, seeds "
              f"{opts.first_seed}..{opts.first_seed + opts.runs - 1}, all correct: "
              f"{report[workload]['all_correct']}, failed shares: {', '.join(shares)}")
        print(f"  {'metric':<44} {'unit':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in report[workload]["metrics"].items():
            print(f"  {name:<44} {row['unit']:<16} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.2%}")
        sys.stdout.flush()

    checkout.RESULTS.mkdir(exist_ok=True)
    out = checkout.RESULTS / f"steady-{opts.first_seed}-{opts.runs}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
