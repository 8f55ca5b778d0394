#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the benchmark.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target); cargo's own messages go to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p wdm-cli >&2
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2

WDM_BENCH_COMMIT="$(GIT_DIR=.git git rev-parse HEAD 2>/dev/null || echo unknown)"
export WDM_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/wdm-benchmark" --wdm "$CARGO_TARGET_DIR/release/wdm" "$@"
