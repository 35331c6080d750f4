#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 hostbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 25] [--trace 0]

For every metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread: the interquartile range as a
share of the median, the figure the bounds in BENCHMARK.json are judged
against. It also prints each run's attempted/failed counts and metric
values, and exits 1 if any run failed or reported incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = ["python3", "hostbench/run.py"]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    a = p.parse_args()

    values = {}
    units = {}
    ok = True
    for seed in range(a.first_seed, a.first_seed + a.runs):
        proc = subprocess.run(
            RUN + ["--workload", a.workload, "--seed", str(seed),
                   "--seconds", a.seconds, "--trace", a.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        shown = " ".join(f"{name}={m['value']:.6g}"
                         for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
        else:
            q1 = q3 = spread = float("nan")
        print(f"{name:34} median {med:14.6g} {units[name]:6} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
