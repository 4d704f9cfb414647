#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile|dispatch|offload \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a package of its own
(perfbench/Cargo.toml) with path dependencies on the crates under
crates/; it is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). The last line of standard
output is the benchmark's JSON result. With --trace 1 the benchmark's
spans are written to <target dir>/perfbench/trace-<workload>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    workload = "run"
    if "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
    extra = []
    if "--trace-out" not in args:
        extra = ["--trace-out",
                 os.path.join(target, "perfbench", f"trace-{workload}.json")]
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + args + extra, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
