#!/usr/bin/env bash
# Alternating parent/change pairs of one BENCHMARK.json workload: the
# procedure benchmark/README.md and the choosing-metrics rule ask of every
# PR that claims (or denies) a gain, in one command.
#
#   scripts/bench_pairs.sh PARENT_REF WORKLOAD N [SECONDS]
#
# Both sides are throwaway copies under target/bench_pairs/, removed on
# exit, so building benchmark/ rewrites only the copies' Cargo.lock and the
# repository itself is never touched: the parent is a `git clone --shared`
# checked out at PARENT_REF as this repository resolves it, and the change
# is a copy of this checkout's tracked and untracked files as they stand,
# committed or not. Each side builds benchmark/ from its own sources into
# its own CARGO_TARGET_DIR, then N pairs of untraced runs of WORKLOAD (SECONDS
# each, default 15) alternate which side goes first. Both runs of a pair
# share a seed; the first seed comes from the clock, so every invocation
# measures on seeds the change was not written against. Prints one line per
# run, then per end-to-end metric each side's median and quartiles, the
# ratio of the medians (base parent) and the pairs the change won (a tie
# counts for neither side). Exits 1 if any run was not `correct`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REF WORKLOAD N [SECONDS]" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=$3 seconds=${4:-15}
root=$PWD
work=$root/target/bench_pairs
parent=$work/parent
change=$work/change
runs=$work/runs.tsv
rev=$(git rev-parse --verify "$ref^{commit}")
mkdir -p "$work"
: >"$runs"

cleanup() { rm -rf "$parent" "$change"; }
trap cleanup EXIT
cleanup
git clone --quiet --shared --no-checkout "$root" "$parent"
git -C "$parent" checkout --quiet --detach "$rev"
mkdir -p "$change"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf - | tar -xf - -C "$change"

build() { # checkout target-dir
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}
build "$parent" "$work/target_parent"
build "$change" "$work/target_change"

bad=0
run() { # side pair seed
    local side=$1 dir=$change result
    [ "$side" = parent ] && dir=$parent
    result=$(cd "$dir" && "$work/target_$side/release/pspdg_benchmark" \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    case $result in
    '{"correct":true,'*) ;;
    *) bad=1 ;;
    esac
    # {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":{"value":<v>,..
    local head=${result%%,\"metrics\"*} line="pair $2 seed $3 $side"
    line+=" $(tr -d '{"' <<<"$head" | tr ',' ' ')"
    while IFS=: read -r name value; do
        printf '%s\t%s\t%s\t%s\n' "$side" "$2" "$name" "$value" >>"$runs"
        line+=" $name=$value"
    done < <(grep -o '"[a-z0-9_]*":{"value":[-+0-9.eE]*' <<<"$result" |
        sed 's/"\([a-z0-9_]*\)":{"value":/\1:/')
    echo "$line"
}

seed0=$(($(date +%s) % 1000000))
for k in $(seq 1 "$pairs"); do
    seed=$((seed0 + k))
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$k" "$seed"
    done
done

echo
echo "workload $workload, $pairs pairs of ${seconds} s, parent $(git rev-parse --short "$rev")"
# `better` per metric comes from BENCHMARK.json (pretty-printed: a "name"
# line, then its "better" line).
awk -F'\t' '
FNR == NR {
    if ($0 ~ /"name":/) { split($0, q, "\""); name = q[4] }
    if ($0 ~ /"better":/) { split($0, q, "\""); better[name] = q[4] }
    next
}
{
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
    val[$1, $3, $2] = $4
    if ($2 > pairs) pairs = $2
}
# Quantile p of side s, metric m (linear interpolation between order statistics).
function quantile(s, m, p,    i, j, n, t, v, h, lo) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((s, m, i) in val) v[++n] = val[s, m, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
        t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
    }
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
END {
    printf "%-20s %12s %25s %12s %25s %7s %6s\n", "metric", "parent", "(q1 - q3)", "change", "(q1 - q3)", "ratio", "won"
    for (k = 1; k <= metrics; k++) {
        m = order[k]; won = 0
        for (i = 1; i <= pairs; i++) {
            d = val["change", m, i] - val["parent", m, i]
            if (better[m] == "higher") d = -d
            if (d < 0) won++
        }
        pm = quantile("parent", m, 0.5); cm = quantile("change", m, 0.5)
        printf "%-20s %12.4f (%11.4f -%11.4f) %12.4f (%11.4f -%11.4f) %7.3f %3d/%d\n", m, pm, quantile("parent", m, 0.25), quantile("parent", m, 0.75), cm, quantile("change", m, 0.25), quantile("change", m, 0.75), cm / pm, won, pairs
    }
}' BENCHMARK.json "$runs"
exit "$bad"
