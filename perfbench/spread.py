#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads peel-mem,dynamic-serve]
                                [--seeds 1-10] [--seconds N]

Runs perfbench/run.py once per seed on each workload (--trace 0) and, for
every end_to_end metric of BENCHMARK.json, prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the
interquartile spread as a share of the median, next to the metric's
bound. A spread above a third of its bound is flagged. Exit status 1 when
any run fails or any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        run_seconds = []
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            run_seconds.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            summary = json.loads(lines[-1])
            for name in values:
                values[name].append(summary["metrics"][name]["value"])
        print(f"\n{workload}  ({len(values[spec['end_to_end'][0]['name']])} runs, "
              f"{max(run_seconds):.1f} s longest, {sum(run_seconds):.0f} s total)")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag = "  OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}", flush=True)
            print(f"    values: {' '.join(f'{x:.6g}' for x in v)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
