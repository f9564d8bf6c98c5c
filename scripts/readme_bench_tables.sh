#!/usr/bin/env sh
# Regenerate the README.md runtime table from the committed
# BENCH_runtime.json. Run after the bench script:
#
#   ./scripts/bench_runtime.sh && ./scripts/readme_bench_tables.sh
set -eu
cd "$(dirname "$0")/.."
cargo run --release -q -p pspdg-bench --bin readme_bench_tables
