#!/usr/bin/env bash
# Builds the system under test (`repro`, `serve`) and the load
# generator from source, then runs the generator with this script's
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload serve-warm --seed 2013 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet -p desc-experiments -p desc-serve --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
