#!/usr/bin/env bash
# Build the release ssa-server and the benchmark driver from source, then
# run the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload refine --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# driver's scratch files go to .bench_work. The last line of standard
# output is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (needs Cargo.toml, crates/ and perfbench/)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p ssa-server >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/ssa-server" "$@"
