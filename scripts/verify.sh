#!/usr/bin/env bash
# Repo verification: the Rust checks CI runs — formatting, tier-1
# (build + root tests), workspace tests, the guard against
# feature-gated test files, doctests, clippy, rustdoc, the benchmark
# build and the quick-output digests. Fully offline — the workspace has
# no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> no feature-gated test files"
if grep -rlE 'cfg(_attr)?\(.*feature' crates/*/tests tests; then
    echo "the test files above are gated by a cargo feature" >&2
    exit 1
fi

echo "==> cargo test -q --workspace --doc"
cargo test -q --workspace --doc

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> quick outputs match the committed digests"
cargo build --release -p desc-experiments --bin repro
python3 scripts/check_golden.py target/release/repro

echo "==> OK"
