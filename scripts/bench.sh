#!/usr/bin/env bash
# Solve-time benchmark of the region-exploration engine across the light
# benchmark set.
#
#   scripts/bench.sh [benchmark names...]
#
# Emits BENCH_solve.json (the same JSON goes to stdout via --json, so
# callers never scrape tables) and a Chrome trace at BENCH_trace.json in
# the repository root (override the report path with SOLVEBENCH_OUT).
# Each benchmark row carries a speedup_vs_baseline field computed against
# the checked-in BENCH_baseline.json (override with SOLVEBENCH_BASELINE),
# so the perf trajectory is tracked across PRs. Runs fully offline on a
# release build.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) ==" >&2
cargo build --release -p offload-bench --offline

echo "== solvebench ==" >&2
./target/release/solvebench --json --trace BENCH_trace.json "$@"
