#!/usr/bin/env bash
# Diff two BENCH_*.json files (flat `nkg_bench::Row` lines) and gate the counts.
#
#   scripts/bench_gate.sh OLD.json NEW.json
#
# Rows are joined on their identity: every string field except the stamp and
# result hashes, plus the integer fields that size a case. For each joined row
# the relative change of every numeric field is printed. Timings are printed
# only — they belong to whichever host wrote the file — but a count is a
# property of the algorithm: the script exits 1 when a COUNT field rose by more
# than 2%. Rows present on one side only are listed.

# Deterministic work counts: more of these is a regression on any host.
COUNT="iters_total messages bytes dof s_dof"
# Integer fields that identify the case a row measured.
SIZE="p k n_particles ranks shards payload_f64 pool_threads_requested buffer_bytes nx ny patches jobs groups workers solves steps elems"
# Fields that say where and when a row was written, not what it measured.
STAMP="host_cores threads commit golden_hash"

set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 OLD.json NEW.json" >&2; exit 2; }

awk -v count="$COUNT" -v size="$SIZE" -v stamp="$STAMP" '
function words(list, set,    a, i) { split(list, a, " "); for (i in a) set[a[i]] = 1 }
BEGIN { words(count, is_count); words(size, is_size); words(stamp, is_stamp) }
FNR == 1 { file++ }
{
    # A row is a flat object of plain strings, numbers and booleans.
    line = $0; id = ""; nf = 0
    while (match(line, /"[^"]+":("[^"]*"|[^,}]+)/)) {
        pair = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        key = substr(pair, 2, index(pair, "\":") - 2); val = substr(pair, index(pair, "\":") + 2)
        if (key in is_stamp) continue
        if (val ~ /^"/ || key in is_size) { id = id " " key "=" val; continue }
        if (val ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/) { nf++; k[nf] = key; v[nf] = val }
    }
    # The n-th row of an identity in OLD pairs with the n-th in NEW.
    id = id " #" (++seen[file, id])
    if (file == 1) { is_old[id] = 1; old_ids[++n_old] = id; for (i = 1; i <= nf; i++) old[id, k[i]] = v[i]; next }
    new_id[id] = 1
    if (!(id in is_old)) { printf "new row %s\n", id; next }
    printf "%s\n", id
    for (i = 1; i <= nf; i++) {
        if (!((id, k[i]) in old)) { printf "    %-32s %14s  (new field)\n", k[i], v[i]; continue }
        o = old[id, k[i]]; rel = (o != 0) ? (v[i] - o) / (o < 0 ? -o : o) : (v[i] != 0)
        mark = ""
        if (k[i] in is_count && rel > 0.02) { mark = "  <-- count rose by more than 2%"; bad++ }
        printf "    %-32s %14s -> %-14s %+8.1f%%%s\n", k[i], o, v[i], 100 * rel, mark
    }
}
END {
    for (i = 1; i <= n_old; i++) if (!(old_ids[i] in new_id)) printf "row gone%s\n", old_ids[i]
    if (bad) { printf "bench_gate: %d failure(s)\n", bad; exit 1 }
    print "bench_gate: counts within 2%"
}' "$1" "$2"
