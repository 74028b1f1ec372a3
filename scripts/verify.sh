#!/usr/bin/env sh
# Offline repo verification: the tier-1 gate plus formatting and lints.
#
#   scripts/verify.sh          # build + full test suite + fmt + clippy
#
# Works without network access (all dependencies are vendored or
# path-local). fmt/clippy are skipped with a notice when the toolchain
# component is not installed, so the script degrades to the tier-1
# gate on minimal toolchains.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The server binary must build warning-free on its own: it is what CI's
# server-smoke job boots, and a warning there is a bug waiting for a
# connection to trigger it.
echo "==> cargo build -p ssa-server --release (deny warnings)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build -p ssa-server --release

# `perfbench/` is its own workspace, so the build above skips it; build
# it here so a change to the library API it calls fails this gate.
echo "==> cargo build --manifest-path perfbench/Cargo.toml"
cargo build --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --workspace --features fault-injection"
cargo test --workspace --features fault-injection -q

# The binary codec's corruption fuzz and save-rollback pins run above as
# part of the workspace suites, but they are the load-bearing gate for
# the on-disk format (DESIGN.md §16), so name them: a refactor that
# accidentally drops these test files must fail here, not pass quietly.
echo "==> corruption fuzz + atomic-save rollback (fault-injection)"
cargo test --features fault-injection --test persist_binary --test atomicity -q

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings
    # Library crates must not unwrap/expect on hot paths (test modules
    # opt back in via cfg_attr); see DESIGN.md §12.
    echo "==> cargo clippy (deny unwrap in library crates)"
    cargo clippy -p spreadsheet-algebra -p ssa-relation -p ssa-server -- \
        -D warnings -D clippy::unwrap_used
else
    echo "==> cargo clippy not installed; skipping lints"
fi

if command -v shellcheck >/dev/null 2>&1; then
    echo "==> shellcheck scripts/*.sh"
    shellcheck scripts/*.sh
else
    echo "==> shellcheck not installed; skipping shell lint"
fi

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "verify: OK"
