#!/usr/bin/env bash
# A/B one bench_e2e workload: a parent revision against the checkout, run
# alternately, with the end-to-end metrics judged the way a perf claim is.
#
#   scripts/bench_ab.sh WORKLOAD [PARENT]     PARENT defaults to HEAD~1
#
# The parent is exported (git archive) to target/bench_ab/<sha>/ and built
# there; the checkout's bench_e2e is built as bench_e2e/run.sh builds it,
# and the bench_e2e/Cargo.lock that build rewrites is put back as it was.
# Then PAIRS pairs of runs, parent first in odd pairs and the checkout first
# in even ones, so a drifting host moves both sides alike. For each metric
# of BENCHMARK.json's end_to_end list it prints both medians, the median
# change, the parent's quartile spread and how many pairs the checkout won,
# and a verdict: "better" or "worse" when at least 9 of 10 pairs agree and
# the medians differ by more than the parent's quartile spread, otherwise
# "unresolved". Raw values land in target/bench_ab/WORKLOAD.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: $0 WORKLOAD [PARENT]" >&2; exit 2; }
workload=$1
sha=$(git rev-parse --verify "${2:-HEAD~1}^{commit}")
PAIRS=10

out=target/bench_ab
parent=$out/$sha
if [ ! -f "$parent/.exported" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
    touch "$parent/.exported"
fi
lock=$(mktemp)
cp bench_e2e/Cargo.lock "$lock"
trap 'cp "$lock" bench_e2e/Cargo.lock; rm -f "$lock"' EXIT
build() { # $1 = tree holding bench_e2e/
    CARGO_TARGET_DIR="$1/.bench_build" cargo build --release --offline --quiet \
        --manifest-path "$1/bench_e2e/Cargo.toml" >&2
}
build "$parent"
build "$PWD"

# One run: "side metric value" lines from the result line's metrics object.
run() { # $1 = side name, $2 = tree
    "$2/.bench_build/release/bench_e2e" --workload "$workload" | tail -n 1 |
        awk -v side="$1" '{
            line = $0
            while (match(line, /"[a-z_]+":\{"value":[-0-9.eE+]+/)) {
                m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
                split(m, a, "\""); v = m; sub(/.*"value":/, "", v)
                print side, a[2], v
            }
        }'
}
tsv=$out/$workload.tsv
: >"$tsv"
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent head"; else order="head parent"; fi
    for side in $order; do
        tree=$PWD
        [ "$side" = parent ] && tree=$parent
        run "$side" "$tree" | awk -v i="$i" '{ print i, $0 }' >>"$tsv"
    done
    echo "pair $i of $PAIRS done" >&2
done

echo "bench_ab $workload: parent ${sha:0:12} vs checkout, $PAIRS alternated pairs"
grep -o '{"name": *"[a-z_]*"[^}]*}' BENCHMARK.json | grep '"bound"' | sed 's/.*"name": *"\([a-z_]*\)".*"better": *"\([a-z]*\)".*/\1 \2/' |
    awk -v tsv="$tsv" '
function sort(a, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t } }
function quant(a, n, p,    x, lo) { x = 1 + (n - 1) * p; lo = int(x); return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo+1] - a[lo]) }
BEGIN {
    while ((getline line < tsv) > 0) { split(line, f, " "); val[f[3], f[2], f[1]] = f[4]; if (f[1] > pairs) pairs = f[1] }
    printf "%-14s %12s %12s %9s %12s %6s  %s\n", "metric", "parent_p50", "head_p50", "change", "parent_iqr", "wins", "verdict"
}
{
    name = $1; sign = ($2 == "lower") ? -1 : 1; n = 0; wins = 0; losses = 0
    for (i = 1; i <= pairs; i++) {
        if (!((name, "parent", i) in val) || !((name, "head", i) in val)) continue
        n++; p[n] = val[name, "parent", i]; h[n] = val[name, "head", i]
        d = sign * (h[n] - p[n]); wins += d > 0; losses += d < 0
    }
    if (n == 0) next
    sort(p, n); sort(h, n)
    mp = quant(p, n, 0.5); mh = quant(h, n, 0.5); iqr = quant(p, n, 0.75) - quant(p, n, 0.25)
    gain = sign * (mh - mp); need = int((9 * n + 9) / 10)
    verdict = "unresolved"
    if (wins >= need && gain > iqr) verdict = "better"
    if (losses >= need && -gain > iqr) verdict = "worse"
    printf "%-14s %12.6g %12.6g %+8.1f%% %11.1f%% %3d/%-2d  %s\n", name, mp, mh, 100 * (mh - mp) / mp, 100 * iqr / mp, wins, n, verdict
}'
