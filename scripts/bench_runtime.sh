#!/usr/bin/env bash
# Regenerate BENCH_runtime.json: predicted-vs-measured numbers for the
# plan-driven parallel runtime over the NAS Class::Mini suite.
#
# The timed rows run with no recorder attached; the JSON's `profiling`
# section re-runs the suite with a recorder for its span summary,
# measures the recorder's own absent/enabled overhead, and carries the
# opcode tables derived from the oracle run's profile; --smoke checks that
# those tables account for every oracle step.
#
# Usage: scripts/bench_runtime.sh [OUT.json] [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p pspdg-bench --bin bench_runtime_json -- "${@:-BENCH_runtime.json}"
