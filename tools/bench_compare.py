#!/usr/bin/env python3
# Copyright 2026 The densest Authors.
"""Compares two sets of perfbench results, parent against change (stdlib-only).

Usage:
  tools/bench_compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD/METRIC]
  tools/bench_compare.py PARENT_DIR CHANGE_DIR --layers
  tools/bench_compare.py --self-test

Each directory holds perfbench's own result files,
result-<workload>-seed<N>-trace0.json, as perfbench/run.py writes them to
.bench_build/out/. For every workload and every end_to_end metric of
BENCHMARK.json this prints, per side, the run count n, the median and the
quartiles q1/q3 (statistics.quantiles(n=4), as perfbench/spread.py
computes them), then the relative move of the medians and how many
same-seed pairs the change wins. Each metric gets a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound, and the two interquartile ranges do not
              overlap
  unresolved  worse by more than the bound, but the ranges overlap
  ok          everything else

It also prints each side's attempted and failed operations and names every
file whose "correct" is false. Exit status 1 on any `worse` verdict, any
metric with no values on one side, any such file, or a larger failed share
on the change side; 0 otherwise.

--claim WORKLOAD/METRIC checks a claimed gain on one end_to_end metric and
appends one line, "claim WORKLOAD/METRIC: met" or "not met" with the
reason. The gain rule: at least 10 same-seed pairs; the change wins at
least 9/10 of them, ties counting for neither side; and the medians differ
in the better direction by more than the parent's q3 - q1. A claim that is
not met also makes the exit status 1.
--layers prints the pass layer instead: for each workload with traced
result files (result-<workload>-seed<N>-trace1.json) on both sides, each
side's median [q1, q3] and file count of every pass.* metric in them
(undirected and directed pass seconds at 1 and nproc threads, the step
passes, thread_speedup). Exit status 1 when no workload has traced files
on both sides.
--self-test checks the verdicts, the claim rule, the exit rule and the
layer table on synthetic result sets.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import re
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_NAME = re.compile(
    r"^result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
# The gain rule's smallest number of same-seed pairs.
CLAIM_MIN_PAIRS = 10


def load_side(directory: str, trace: int = 0):
    """{workload: {seed: result document}} of the untraced (or traced)
    result files."""
    runs: dict[str, dict[int, dict]] = {}
    pattern = f"result-*-trace{trace}.json"
    for path in sorted(glob.glob(os.path.join(directory, pattern))):
        match = RESULT_NAME.match(os.path.basename(path))
        if match is None:
            continue
        with open(path) as f:
            doc = json.load(f)
        doc["_path"] = path
        runs.setdefault(match["workload"], {})[int(match["seed"])] = doc
    return runs


def metric_value(doc: dict, name: str):
    """The metric's numeric value, or None when missing or insufficient."""
    value = doc.get("metrics", {}).get(name, {}).get("value")
    return value if isinstance(value, (int, float)) else None


def spread(values: list[float]):
    """(median, q1, q3) with statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(metric: dict, parent: list[float], change: list[float]):
    """(verdict, relative move of the medians) for one metric."""
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    if p_med == 0:
        move = 0.0 if c_med == 0 else float("inf") * (1 if c_med > 0 else -1)
    else:
        move = (c_med - p_med) / abs(p_med)
    worse_by = move if metric["better"] == "lower" else -move
    if worse_by <= metric["bound"]:
        return "ok", move
    overlap = max(p_q1, c_q1) <= min(p_q3, c_q3)
    return ("unresolved" if overlap else "worse"), move


def wins(metric: dict, parent: dict[int, float], change: dict[int, float]):
    """(pairs the change wins, same-seed pairs)."""
    seeds = sorted(set(parent) & set(change))
    lower = metric["better"] == "lower"
    won = sum(1 for s in seeds
              if (change[s] < parent[s] if lower else change[s] > parent[s]))
    return won, len(seeds)


def fmt(value: float) -> str:
    return f"{value:.4g}"


def claim_verdict(metric: dict, parent: dict[int, float], change: dict[int, float]):
    """(met, reason) of a claimed gain on one metric under the gain rule."""
    won, pairs = wins(metric, parent, change)
    p_med, p_q1, p_q3 = spread(list(parent.values()))
    c_med = spread(list(change.values()))[0]
    gap = p_med - c_med if metric["better"] == "lower" else c_med - p_med
    iqr = p_q3 - p_q1
    detail = (f"{won}/{pairs} pairs won, median {fmt(p_med)} -> {fmt(c_med)}, "
              f"gap {fmt(gap)} vs parent q3 - q1 {fmt(iqr)}")
    if pairs < CLAIM_MIN_PAIRS:
        return False, f"{pairs} same-seed pairs, fewer than {CLAIM_MIN_PAIRS}; {detail}"
    if won * 10 < pairs * 9:
        return False, f"the change wins fewer than 9/10 pairs; {detail}"
    if not gap > iqr:
        return False, f"the median gap is not above the parent's q3 - q1; {detail}"
    return True, detail


def compare(spec: dict, parent_dir: str, change_dir: str, out=sys.stdout,
            claim: str | None = None):
    """Prints the comparison; returns (exit status, {(workload, metric): verdict}).

    With `claim` ("WORKLOAD/METRIC"), also judges that claimed gain: its line
    comes last, and a claim that is not met sets the exit status to 1.
    """
    sides = {"parent": load_side(parent_dir), "change": load_side(change_dir)}
    verdicts: dict[tuple[str, str], str] = {}
    claim_values = None  # the claimed metric's {seed: value} per side
    status = 0

    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<30} {'n':>2}  "
              f"{'change median [q1, q3]':<30} {'n':>2}  {'move':>8}  {'wins':>5}  verdict")
    print(header, file=out)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_seed = {}
            for side, runs in sides.items():
                values = {}
                for seed, doc in runs.get(workload, {}).items():
                    value = metric_value(doc, name)
                    if value is not None:
                        values[seed] = value
                per_seed[side] = values
            parent, change = per_seed["parent"], per_seed["change"]
            if claim == f"{workload}/{name}":
                claim_values = (metric, parent, change)
            if not parent or not change:
                print(f"{workload:<14} {name:<12} missing on "
                      f"{'parent' if not parent else 'change'} side", file=out)
                status = 1
                continue
            result, move = verdict(metric, list(parent.values()), list(change.values()))
            verdicts[(workload, name)] = result
            if result == "worse":
                status = 1
            won, pairs = wins(metric, parent, change)
            cells = []
            for values in (parent, change):
                med, q1, q3 = spread(list(values.values()))
                cells.append(f"{fmt(med) + ' [' + fmt(q1) + ', ' + fmt(q3) + ']':<30} "
                             f"{len(values):>2}")
            print(f"{workload:<14} {name:<12} {cells[0]}  {cells[1]}  "
                  f"{move * 100:>+7.1f}%  {f'{won}/{pairs}':>5}  {result}", file=out)

    print("", file=out)
    shares = {}
    for side, runs in sides.items():
        attempted = failed = 0
        for workload in sorted(runs):
            w_attempted = sum(doc.get("attempted", 0) for doc in runs[workload].values())
            w_failed = sum(doc.get("failed", 0) for doc in runs[workload].values())
            attempted += w_attempted
            failed += w_failed
            print(f"{side} {workload}: attempted={w_attempted} failed={w_failed}", file=out)
            for seed in sorted(runs[workload]):
                doc = runs[workload][seed]
                if doc.get("correct") is not True:
                    print(f"{side}: correct is false in {doc['_path']}", file=out)
                    status = 1
        shares[side] = failed / attempted if attempted else 0.0
    if shares["change"] > shares["parent"]:
        print(f"failed share rose: {shares['parent']:.6g} -> {shares['change']:.6g}", file=out)
        status = 1
    claim_line = None
    if claim is not None:
        if claim_values is None:
            met, reason = False, "no such workload and end_to_end metric"
        elif not claim_values[1] or not claim_values[2]:
            met, reason = False, "no values on one side"
        else:
            met, reason = claim_verdict(*claim_values)
        claim_line = f"claim {claim}: {'met' if met else 'not met'} ({reason})"
        if not met:
            status = 1
    counts = {v: list(verdicts.values()).count(v) for v in ("ok", "unresolved", "worse")}
    print(f"verdicts: {counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['worse']} worse; exit {status}", file=out)
    if claim_line is not None:
        print(claim_line, file=out)
    return status, verdicts


def layers(parent_dir: str, change_dir: str, out=sys.stdout):
    """Prints the pass.* layer medians and quartiles of the traced files;
    returns the exit status (1 when no workload has traced files on both
    sides)."""
    sides = (load_side(parent_dir, trace=1), load_side(change_dir, trace=1))
    print(f"{'workload':<14} {'metric':<26} {'parent median [q1, q3]':<32} {'n':>2}  "
          f"{'change median [q1, q3]':<32} {'n':>2}", file=out)
    shown = 0
    for workload in sorted(set(sides[0]) & set(sides[1])):
        per_side = []
        for runs in sides:
            values: dict[str, list[float]] = {}
            for doc in runs[workload].values():
                for name in doc.get("metrics", {}):
                    value = metric_value(doc, name)
                    if name.startswith("pass.") and value is not None:
                        values.setdefault(name, []).append(value)
            per_side.append(values)
        for name in sorted(set(per_side[0]) | set(per_side[1])):
            cells = []
            for values in per_side:
                found = values.get(name, [])
                cell = "-"
                if found:
                    med, q1, q3 = spread(found)
                    cell = f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
                cells.append(f"{cell:<32} {len(found):>2}")
            print(f"{workload:<14} {name:<26} {cells[0]}  {cells[1]}", file=out)
            shown += 1
    return 0 if shown else 1


# -------------------------------------------------------------- self-test --

def self_test() -> int:
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "t_s", "better": "lower", "bound": 0.2},
            {"name": "ops", "better": "higher", "bound": 0.1},
        ],
    }
    # The same metrics over two workloads, for the missing-workload case.
    two_workloads = dict(spec, workloads=[{"name": "w"}, {"name": "v"}])

    def write(directory, seed, t_s, ops, correct=True, attempted=10, failed=0,
              workload="w"):
        doc = {"workload": workload, "seed": str(seed), "correct": correct,
               "attempted": attempted, "failed": failed,
               "metrics": {"t_s": {"value": t_s}, "ops": {"value": ops}}}
        name = f"result-{workload}-seed{seed}-trace0.json"
        with open(os.path.join(directory, name), "w") as f:
            json.dump(doc, f)

    def run(parent_rows, change_rows, spec=spec, claim=None):
        """parent_rows/change_rows: lists of write() keyword dicts; returns
        (exit status, verdicts, printed comparison)."""
        with tempfile.TemporaryDirectory() as tmp:
            dirs = []
            for side, rows in (("parent", parent_rows), ("change", change_rows)):
                d = os.path.join(tmp, side)
                os.makedirs(d)
                for seed, row in enumerate(rows, start=1):
                    write(d, seed, **row)
                dirs.append(d)
            out = io.StringIO()
            status, verdicts = compare(spec, dirs[0], dirs[1], out=out, claim=claim)
            return status, verdicts, out.getvalue()

    def rows(t_values, ops_values, **extra):
        return [dict(t_s=t, ops=o, **extra) for t, o in zip(t_values, ops_values)]

    base_t = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]
    base_ops = [100, 101, 99, 100, 102, 98]
    cases = [
        # (label, parent, change, want t_s verdict, want ops verdict, want
        # exit[, spec])
        ("same", rows(base_t, base_ops), rows(base_t, base_ops), "ok", "ok", 0),
        ("faster", rows(base_t, base_ops), rows([t / 2 for t in base_t], base_ops),
         "ok", "ok", 0),
        ("tight regression", rows(base_t, base_ops),
         rows([t * 1.5 for t in base_t], base_ops), "worse", "ok", 1),
        ("noisy regression", rows(base_t, base_ops),
         rows([0.9, 1.3, 1.4, 1.25, 2.0, 0.95], base_ops), "unresolved", "ok", 0),
        ("within bound", rows(base_t, base_ops),
         rows([t * 1.15 for t in base_t], base_ops), "ok", "ok", 0),
        ("higher-is-better drop", rows(base_t, base_ops),
         rows(base_t, [o * 0.5 for o in base_ops]), "ok", "worse", 1),
        ("incorrect file", rows(base_t, base_ops),
         rows(base_t, base_ops)[:5] + rows([1.0], [100], correct=False), "ok", "ok", 1),
        ("failed share rose", rows(base_t, base_ops),
         rows(base_t, base_ops, failed=1), "ok", "ok", 1),
        ("empty change directory", rows(base_t, base_ops), [], None, None, 1),
        ("workload only on parent side",
         rows(base_t, base_ops) + rows(base_t, base_ops, workload="v"),
         rows(base_t, base_ops), "ok", "ok", 1, two_workloads),
    ]
    bad = 0
    for label, parent, change, want_t, want_ops, want_exit, *case_spec in cases:
        status, verdicts, _ = run(parent, change, *case_spec)
        got = (verdicts.get(("w", "t_s")), verdicts.get(("w", "ops")), status)
        if got != (want_t, want_ops, want_exit):
            print(f"self-test FAIL [{label}]: got {got}, want "
                  f"{(want_t, want_ops, want_exit)}")
            bad += 1

    # The gain rule on t_s (lower is better), over ten pairs unless stated.
    ten_t = base_t + [1.03, 0.97, 1.01, 0.99]
    ten_ops = base_ops + [100, 99, 101, 100]
    faster = [t * 0.7 for t in ten_t]
    wide_t = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    claim_cases = [
        # (label, parent t_s, change t_s, want met)
        ("claim met", ten_t, faster, True),
        # Two ties count for neither side: 8/10 wins.
        ("claim too few wins", ten_t, ten_t[:2] + faster[2:], False),
        ("claim too few pairs", ten_t[:6], faster[:6], False),
        ("claim gap inside the IQR", wide_t, [t - 0.05 for t in wide_t], False),
    ]
    for label, parent_t, change_t, want_met in claim_cases:
        ops = ten_ops[:len(parent_t)]
        status, _, printed = run(rows(parent_t, ops), rows(change_t, ops),
                                 claim="w/t_s")
        last = printed.splitlines()[-1]
        met = last.startswith("claim w/t_s: met ")
        if (met, status) != (want_met, 0 if want_met else 1):
            print(f"self-test FAIL [{label}]: got met={met} exit {status}: {last}")
            bad += 1

    # The layer table: medians, quartiles and file counts of the traced pass.*
    # metrics, only for workloads traced on both sides.
    with tempfile.TemporaryDirectory() as tmp:
        for side, speedups in (("parent", [0.8, 0.7, 0.9]), ("change", [2.8, 2.5])):
            d = os.path.join(tmp, side)
            os.makedirs(d)
            for seed, speedup in enumerate(speedups, start=1):
                doc = {"metrics": {"pass.thread_speedup": {"value": speedup},
                                   "stream.scan_s": {"value": 1.0}}}
                with open(os.path.join(d, f"result-w-seed{seed}-trace1.json"), "w") as f:
                    json.dump(doc, f)
            # Traced on one side only: not shown.
            with open(os.path.join(d, f"result-{side}only-seed1-trace1.json"), "w") as f:
                json.dump({"metrics": {"pass.directed_1t_s": {"value": 1.0}}}, f)
        out = io.StringIO()
        status = layers(os.path.join(tmp, "parent"), os.path.join(tmp, "change"), out=out)
        rows = [line.split() for line in out.getvalue().splitlines()[1:]]
        want = [["w", "pass.thread_speedup", "0.8", "[0.7,", "0.9]", "3",
                 "2.65", "[2.425,", "2.875]", "2"]]
        if (status, rows) != (0, want):
            print(f"self-test FAIL [layers]: got exit {status} rows {rows}, want 0 {want}")
            bad += 1
        empty = io.StringIO()
        if layers(os.path.join(tmp, "parent"), tmp, out=empty) != 1:
            print("self-test FAIL [layers with no traced pair]: want exit 1")
            bad += 1
    if bad:
        return 1
    print(f"bench_compare.py self-test: {len(cases) + len(claim_cases) + 2} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="check a claimed gain on one end_to_end metric")
    parser.add_argument("--layers", action="store_true",
                        help="print the traced pass.* medians instead")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on synthetic result sets")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent_dir is None or args.change_dir is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    if args.layers:
        return layers(args.parent_dir, args.change_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    status, _ = compare(spec, args.parent_dir, args.change_dir, claim=args.claim)
    return status


if __name__ == "__main__":
    sys.exit(main())
