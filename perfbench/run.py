#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload peel-mem --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the densest library from ../src through
the repository's own CMakeLists.txt) into .bench_build/ at the repository
root, runs the benchmark's unit tests, then runs one workload. The
human-readable report goes to stdout; the last stdout line is one JSON
object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value": v, "unit": u}. The full
results (all metrics with sample counts and tails, checks, the
environment fingerprint) are in .bench_build/out/result-*.json, and a
traced run's span timeline (chrome://tracing JSON) in
.bench_build/out/trace-*.json.

--workload all runs every workload in turn and prints one summary line
whose metric names are prefixed with the workload.

Exit status: 0 when every check passed; 1 when a check failed, the build
or a test failed, or the run did not finish. No summary line is printed
unless the workload ran to completion.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["peel-mem", "peel-disk", "dynamic-serve"]
# Time budget of one workload run, after the build.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with output to log_path; True on exit status 0."""
    with open(log_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return False


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, build_log, 300):
            log("configure failed:\n" + tail(build_log))
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "perfbench_test", "-j", jobs]
    if not run_logged(cmd, build_log, 800):
        log("build failed:\n" + tail(build_log))
        return False
    test_log = os.path.join(BUILD_DIR, "test.log")
    if not run_logged([os.path.join(BUILD_DIR, "perfbench_test")], test_log, 60):
        log("perfbench_test failed:\n" + tail(test_log))
        return False
    return True


def git_sha():
    """HEAD of the checkout when it is its own git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(workload, seed, seconds, trace, sha, deadline):
    """Runs one workload; returns its results document, or None."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--git-sha", sha]
    result_path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} did not finish in time")
        return None
    sys.stdout.write(out)
    sys.stdout.flush()
    if not os.path.exists(result_path):
        log(f"{workload} exited {proc.returncode} without results")
        return None
    with open(result_path) as f:
        return json.load(f)


def summary_metrics(results, names, spec_units, prefix=""):
    """The requested metrics as {name: {value, unit}}; None if one is missing."""
    metrics = {}
    for name in names:
        m = results["metrics"].get(name)
        value = None if m is None else m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"{results['workload']}: metric {name} missing or not a number: {m}")
            return None
        metrics[prefix + name] = {"value": value, "unit": spec_units[name]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}

    if not build():
        return 1
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        results = run_workload(workload, args.seed, args.seconds, args.trace, sha, deadline)
        if results is None:
            return 1
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics = summary_metrics(results, names, units, prefix)
        if metrics is None:
            return 1
        summary["correct"] = summary["correct"] and results["correct"]
        summary["attempted"] += results["attempted"]
        summary["failed"] += results["failed"]
        summary["metrics"].update(metrics)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
