#!/usr/bin/env python3
"""Run one workload several times and report the spread of each metric,
or compare two such sets of runs.

    python3 perfbench/spread.py --workload dispatch [--runs 10]
        [--seed 1] [--seconds S] [--trace 0|1] [--jsonl FILE]
    python3 perfbench/spread.py --compare FIRST.jsonl SECOND.jsonl

Run from the root of a checkout. Run i uses seed --seed + i. For every
metric the report gives the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the minimum and maximum, and the
quartile spread as a share of the median; for end-to-end metrics it also
gives the metric's bound from BENCHMARK.json and whether the spread is
within a third of it and within it. It also compares the median of the
first half of the runs with the second half. --jsonl appends every run's
result line to FILE.

--compare reads two such files, each one set of runs of the same code,
and for every workload and end-to-end metric in both gives each set's
median and spread and how much worse the second median is than the first,
as a share of the first, against the metric's bound. This is the check
that two sets of runs of the same code agree within the bounds.

Every end-to-end metric's set-to-set change is checked, and so is its
run-to-run spread, except that a setup_s spread beyond its bound is
reported but does not fail the check: setup_s is five samples of a
1.5-second operation per run, against hundreds of samples in the timed
phase, so its spread is wide by construction. Its set-to-set change is
what guards it, as for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {out.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


# End-to-end metrics whose run-to-run spread is reported but not gated.
SPREAD_NOT_GATED = {"setup_s"}


def spread_check(name, s, bound):
    """The spread verdict, and whether it fails the check."""
    if s < bound / 3:
        return "spread<bound/3", False
    if s <= bound:
        return "spread<bound", False
    if name in SPREAD_NOT_GATED:
        return "spread>bound (not gated)", False
    return "SPREAD>BOUND", True


def spread(vals):
    """Median and quartile spread over the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else float("nan"))


def worse_share(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return float("nan")
    return (second - first) / first if better == "lower" else (first - second) / first


def report_set(bench, workload, results, seconds, trace):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = list(results[0]["metrics"])
    runs = len(results)
    half = runs // 2
    print(f"\n{workload}: {runs} runs of {seconds} s, trace={trace}")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'min':>14}"
          f"{'max':>14}{'iqr/med':>9}{'bound':>7}  2nd/1st  verdict")
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, s = spread(vals)
        m1 = statistics.median(vals[:half])
        m2 = statistics.median(vals[half:])
        drift = m2 / m1 if m1 else float("nan")
        verdict = ""
        bound_s = f"{'':>7}"
        if name in bounds:
            b = bounds[name]["bound"]
            worse = worse_share(m1, m2, bounds[name]["better"])
            spread_verdict, spread_fails = spread_check(name, s, b)
            verdict = f"{spread_verdict}, {'drift ok' if worse <= b else 'DRIFT>BOUND'}"
            ok = ok and not spread_fails and worse <= b
            bound_s = f"{b:>7.3f}"
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{min(vals):>14.6g}"
              f"{max(vals):>14.6g}{s:>9.4f}{bound_s}  {drift:7.4f}  {verdict}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"attempted {attempted}, failed {failed}; "
          f"{'all checks hold' if ok else 'SOME CHECKS FAIL'}")
    return ok


def load_sets(path):
    """Untraced result lines of a --jsonl file, by workload."""
    sets = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if row["trace"] == 0:
                    sets.setdefault(row["workload"], []).append(row["result"])
    return sets


def compare(bench, first_path, second_path):
    first, second = load_sets(first_path), load_sets(second_path)
    ok = True
    print(f"{'workload':<10}{'metric':<14}{'bound':>7}{'1st median':>14}"
          f"{'2nd median':>14}{'1st iqr/med':>13}{'2nd iqr/med':>13}"
          f"{'2nd worse by':>14}  verdict")
    for workload in sorted(set(first) & set(second)):
        a, b = first[workload], second[workload]
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in a + b)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med_a, _, _, s_a = spread([r["metrics"][name]["value"] for r in a])
            med_b, _, _, s_b = spread([r["metrics"][name]["value"] for r in b])
            worse = worse_share(med_a, med_b, m["better"])
            spread_verdict, spread_fails = spread_check(name, max(s_a, s_b), bound)
            checks = [spread_verdict, "agree" if worse <= bound else "WORSE>BOUND"]
            ok = ok and not spread_fails and worse <= bound
            print(f"{workload:<10}{name:<14}{bound:>7.3f}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{s_a:>13.4f}{s_b:>13.4f}{worse:>+14.4f}  {', '.join(checks)}"
                  f"  (runs {len(a)}, {len(b)})")
    missing = sorted(set(first) ^ set(second))
    if missing:
        print(f"in one file only: {', '.join(missing)}")
    print("all checks hold" if ok else "SOME CHECKS FAIL")
    return ok


def main():
    bench = load_bench()
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--jsonl")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = p.parse_args()
    if a.compare:
        return 0 if compare(bench, *a.compare) else 1
    if not a.workload:
        raise SystemExit("--workload or --compare is required")
    if a.runs < 2:
        raise SystemExit("--runs must be at least 2")

    results = []
    for i in range(a.runs):
        r = run_once(a.workload, a.seed + i, a.seconds, a.trace)
        results.append(r)
        print(f"run {i + 1}/{a.runs} seed {a.seed + i}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        if a.jsonl:
            with open(a.jsonl, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": a.seed + i,
                                    "trace": a.trace, "result": r}) + "\n")
    return 0 if report_set(bench, a.workload, results, a.seconds, a.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
