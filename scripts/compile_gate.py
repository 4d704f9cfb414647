#!/usr/bin/env python3
"""Compile-time gate: each Table 3 program's perfbench `compile` median,
at the reference host speed, stays under one ceiling over a checked-in
baseline.

    python3 scripts/compile_gate.py check   # one run; exits 1 on a failure
    python3 scripts/compile_gate.py record  # five runs -> BENCH_compile_baseline.json

Run from anywhere; both commands work at the root of the checkout. Each
run is

    python3 perfbench/run.py --workload compile --seed SEED --seconds 24 --trace 0

which builds perfbench offline first. Two lines of its report are read:

    compile per-program median [min..max], ms: rawcaudio 289.123 [...] (n=15), ...
    suite: ... yardstick median Y ms over N samples (reference R ms)

and each program's median (as measured) is converted to the reference
speed as median * R / Y: its time on a host that runs perfbench's
yardstick kernel in R ms. `record` runs seeds 1..5 and keeps, per
program, the median and quartiles of its converted medians, with the
host, CPU count and seeds. `check` runs seed 1 and fails on a failed
build or run, an incorrect run (a compile whose choices or work counters
differ from the set-up round), a program missing from the report, or a
program above CEILING times its baseline median.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_compile_baseline.json")
SECONDS = 24
SEEDS = [1, 2, 3, 4, 5]

# One ceiling for all six programs. On the recording host (2 vCPUs),
# unchanged code has read 0.92x to 1.11x a program's baseline, so +35%
# leaves about three times that drift for a CI runner whose CPU relates
# the yardstick and the solver differently, while solving every network
# twice reads 1.92x to 2.53x and fails on every program. It is tighter
# than the gate this replaces, whose floors allowed fft +48%, rawdaudio
# +58% and rawcaudio +69% over their last recorded times, on three
# programs only.
CEILING = 1.35

MEDIANS = re.compile(r"compile per-program median \[min\.\.max\], ms: (.*)$")
PROGRAM = re.compile(r"(\S+) ([0-9.]+) \[[0-9.]+\.\.[0-9.]+\] \(n=\d+\)")
SUITE = re.compile(
    r"suite: .*yardstick median ([0-9.]+) ms over \d+ samples "
    r"\(reference ([0-9.]+) ms\)")


def run(seed):
    """One compile run: per-program medians at the reference speed (ms)
    and the run's yardstick median (ms). Raises RuntimeError on a failed
    or incorrect run or an unreadable report."""
    args = ["perfbench/run.py", "--workload", "compile", "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    print("$ python3 " + " ".join(args), file=sys.stderr, flush=True)
    proc = subprocess.run([sys.executable] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RuntimeError(
            f"incorrect run: {result.get('failed')} of "
            f"{result.get('attempted')} operations failed")
    medians = yard = ref = None
    for line in lines:
        if m := MEDIANS.search(line):
            medians = {p: float(ms) for p, ms in PROGRAM.findall(m.group(1))}
        elif m := SUITE.search(line):
            yard, ref = float(m.group(1)), float(m.group(2))
    if not medians or yard is None:
        raise RuntimeError("no per-program medians or yardstick line in the report")
    return {p: ms * ref / yard for p, ms in medians.items()}, yard


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {platform.system()} {platform.release()}"


def record():
    per_run, yards = [], []
    for seed in SEEDS:
        medians, yard = run(seed)
        per_run.append(medians)
        yards.append(round(yard, 3))
    programs = {}
    for p in per_run[0]:
        ms = [r[p] for r in per_run]
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        programs[p] = {
            "median_ms": round(median, 3),
            "q1_ms": round(q1, 3),
            "q3_ms": round(q3, 3),
            "runs_ms": [round(v, 3) for v in ms],
        }
    baseline = {
        "procedure": "python3 scripts/compile_gate.py record",
        "command": "python3 perfbench/run.py --workload compile --seed SEED "
                   f"--seconds {SECONDS} --trace 0",
        "unit": "ms per compile at the reference speed, median over runs "
                "of each run's per-program median",
        "host": host(),
        "cpus": os.cpu_count(),
        "seeds": SEEDS,
        "yardstick_ms": yards,
        "programs": programs,
    }
    with open(BASELINE, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    for p, row in programs.items():
        spread = (row["q3_ms"] - row["q1_ms"]) / row["median_ms"] * 100
        print(f"{p:<10} {row['median_ms']:9.1f} ms  quartile spread {spread:4.1f}%")
    print(f"wrote {os.path.relpath(BASELINE, ROOT)}")


def check():
    with open(BASELINE) as f:
        baseline = json.load(f)["programs"]
    medians, _ = run(1)
    failed = False
    print(f"{'program':<10} {'ms':>9} {'baseline':>9} {'ceiling':>9}  ratio")
    for p, row in baseline.items():
        ceiling = row["median_ms"] * CEILING
        ms = medians.get(p)
        if ms is None:
            print(f"{p:<10} missing from the report")
            failed = True
            continue
        over = ms > ceiling
        failed |= over
        print(f"{p:<10} {ms:9.1f} {row['median_ms']:9.1f} {ceiling:9.1f}  "
              f"{ms / row['median_ms']:.3f}{'  ABOVE THE CEILING' if over else ''}")
    if failed:
        sys.exit(1)


def main():
    args = sys.argv[1:]
    try:
        if args == ["check"]:
            check()
        elif args == ["record"]:
            record()
        else:
            sys.exit(__doc__)
    except RuntimeError as e:
        sys.exit(f"compile_gate: {e}")


if __name__ == "__main__":
    main()
