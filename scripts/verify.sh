#!/usr/bin/env bash
# Tier-1 verification: everything a reviewer needs to trust a change.
#
#   scripts/verify.sh
#
# Runs fully offline: the format check and clippy with warnings denied
# (each when its component is installed), release build, and the whole
# test suite. CI's verify job runs this script as its only gate.

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
cargo test -q --workspace --offline

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "clippy not installed; skipping (build + tests above are the gate)"
fi

echo "== verify OK =="
