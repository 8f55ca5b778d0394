#!/usr/bin/env bash
# Smoke test of the benchmark: its unit tests, then every workload at
# 1/50 length with the full correctness gate, then one short traced run.
#
#   bash benchmark/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo test --offline --quiet --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
bash benchmark/run.sh --quick --trace --workload small_closed
