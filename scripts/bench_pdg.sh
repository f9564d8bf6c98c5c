#!/usr/bin/env sh
# Regenerate BENCH_pdg.json (naive-oracle vs bucketed PDG construction,
# plus the overlay effective-graph re-assemble, on the NAS Class::Test
# suite + SYNTH widths).
set -e
cd "$(dirname "$0")/.."
cargo run --release -p pspdg-bench --bin bench_pdg_json -- BENCH_pdg.json
