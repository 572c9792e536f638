#!/usr/bin/env python3
"""Runs each benchmark workload N times and reports how steady it is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seconds 15] [--trace 0]
        [--first-seed 1] [--workloads analyst_session,stream_ingest]

Run i uses seed first_seed + i. For every metric the script prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)),
the quartile spread (q3 - q1) as a share of the median, and the largest
deviation from the median as a share of it. The workloads default to
the ones BENCHMARK.json lists. When BENCHMARK.json at the
repository root gives the metric a bound, the spread is compared with it.
It also prints each workload's failed/attempted share, which must be the
same in every run. The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec()["workloads"]))
    args = ap.parse_args()
    bound = {m["name"]: m["bound"] for m in spec()["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, args.trace)
            results.append(r)
            values = " ".join(f"{k}={m['value']:.4g}"
                              for k, m in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {values}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed/attempted shares "
              f"{sorted(shares)}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'maxdev':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            maxdev = (max(abs(v - med) for v in values) / med
                      if med else float("nan"))
            b = bound.get(name)
            flag = ""
            if b is not None and med:
                flag = "OK" if spread < b / 3 else (
                    "within" if spread <= b else "WIDE")
            print(f"  {name:36} {med:14.5g} {q1:14.5g} {q3:14.5g} "
                  f"{spread:8.3f} {maxdev:8.3f} "
                  f"{'' if b is None else b:>6} {flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
