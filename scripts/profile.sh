#!/usr/bin/env bash
# Profile the full pipeline: run the runtime suite with a recorder
# attached end to end (PS-PDG build, planning, scheduling, every runtime
# activation) and export
#
#   OUTDIR/profile_trace.json    Chrome trace-event JSON — load it in
#                                https://ui.perfetto.dev or chrome://tracing
#   OUTDIR/profile_metrics.json  counters, span summaries
#   stdout                       top opcodes (the oracle's block counts x
#                                each block's static mix) / top spans
#
# Usage: scripts/profile.sh [OUTDIR] [--smoke]
#
# OUTDIR defaults to target/profile. --smoke uses the Class::Test suite
# and asserts the observability gates (the opcode table accounts for
# every oracle step, valid trace nesting, pipeline and activation spans
# present). Recorder overhead is scripts/bench_runtime.sh's number.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p pspdg-bench --bin profile_json -- "${@:-target/profile}"
