#!/usr/bin/env bash
# Build the benchmark package and run it from the repo root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the command BENCHMARK.json names); the last
#       line of stdout is the result object
#   benchmark/run.sh --smoke
#       every workload, untraced and traced, reduced counts, same checks
#   benchmark/run.sh --suite OUT.json [--seeds A,B,..] [--seconds S] [--trace 0|1]
#       every workload in its own process; results and host particulars in OUT.json
#   benchmark/run.sh --compare A.json B.json
#       per workload x end-to-end metric: medians, spreads, ratio (base A), verdict
#   benchmark/run.sh --repeat-check [--seeds A,B,..]
#       the untraced suite twice on the same build (five seeds a side unless
#       given), then --compare of the two
#   benchmark/run.sh --spread
#       the untraced suite under ten seeds, then each metric's spread against its bound
#   benchmark/run.sh --goldens
#       regenerate benchmark/expected/ from the sequential interpreter
#
# The package is built into $CARGO_TARGET_DIR, or the root `target/` when unset.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/pspdg_benchmark"
out=benchmark/out
case "${1:-}" in
--smoke)
    exec "$bin" --suite "$out/smoke.json" --smoke
    ;;
--repeat-check)
    shift
    "$bin" --suite "$out/repeat_a.json" --trace 0 --seeds 1,2,3,4,5 "$@"
    "$bin" --suite "$out/repeat_b.json" --trace 0 --seeds 1,2,3,4,5 "$@"
    exec "$bin" --compare "$out/repeat_a.json" "$out/repeat_b.json"
    ;;
--spread)
    "$bin" --suite "$out/spread.json" --trace 0 --seeds 1,2,3,4,5,6,7,8,9,10
    exec "$bin" --compare "$out/spread.json" "$out/spread.json"
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
