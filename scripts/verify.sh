#!/usr/bin/env bash
# Tier-1 verification: everything a reviewer needs to trust a change.
#
#   scripts/verify.sh
#
# Runs fully offline: the format check and clippy with warnings denied
# (each when its component is installed), release build, the whole
# test suite, the interpreter's tests again in release (where integer
# overflow wraps instead of panicking), the benchmark's build and unit
# tests (so deleting a field that perfbench reads fails here), and the
# API docs with warnings denied (so a doc link to a deleted item fails).
# CI's verify job runs this script as its only gate.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== test =="
cargo test -q --workspace --offline --no-fail-fast

echo "== interpreter tests (release) =="
# The tests above run unoptimized, where integer overflow panics; users,
# perfbench and the fuzz job run release builds, where it wraps. So the
# interpreter's own tests, the exact ledger and control state, the
# equivalence tests and the Table 3 loopback runs also run in release.
cargo test -q --release --offline -p offload-runtime
cargo test -q --release --offline -p offload-bench --test exact_ledger --test distributed_equivalence
cargo test -q --release --offline -p offload-net --test table3_loopback

echo "== perfbench (build + test) =="
# perfbench is a package of its own, built where perfbench/run.py builds
# it. Warnings are not denied: it still calls the deprecated
# `ServerConfigBuilder::threads`.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "clippy not installed; skipping (build + tests above are the gate)"
fi

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== verify OK =="
