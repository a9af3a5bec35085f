#!/usr/bin/env bash
# DESIGN.md §3 (the reachability table) lists every `pub mod` of every
# crate, and nothing else: each `pub mod` in a `crates/*/src/lib.rs` needs
# a row under its crate, each module row must name a `pub mod` that
# exists, each "crate root" row a package that exists, and a package with
# no `pub mod` needs a "crate root" row. Prints each offending name and
# exits 1 if any.
# Run from anywhere inside the repo: ./scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# From the code: `crate module` per `pub mod`, `crate` per package, and
# `crate` per package without a `pub mod`.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    name=$(awk -F'"' '/^\[/ { pkg = ($0 == "[package]"); next }
        pkg && /^name *=/ { print $2; exit }' "$manifest")
    echo "$name" >>"$tmp/packages"
    mods=$(sed -n 's/^pub mod \([A-Za-z0-9_]*\);.*/\1/p' "$dir/src/lib.rs")
    if [ -z "$mods" ]; then
        echo "$name" >>"$tmp/leaves"
    fi
    for m in $mods; do
        echo "$name $m" >>"$tmp/code_mods"
    done
done

# From §3: a blank crate cell continues the crate of the row above.
awk -F'|' -v mods="$tmp/table_mods" -v roots="$tmp/table_roots" '
    /^## / { in3 = /^## 3\./; next }
    !in3 || !/^\| / { next }
    {
        c = $2; m = $3
        gsub(/[ `]/, "", c); gsub(/^ +| +$|`/, "", m)
        if (c == "Crate") next
        if (c != "") crate = c
        if (m == "crate root") print crate >>roots
        else print crate, m >>mods
    }' DESIGN.md
touch "$tmp/code_mods" "$tmp/leaves" "$tmp/table_mods" "$tmp/table_roots"
for f in packages leaves code_mods table_mods table_roots; do
    sort -o "$tmp/$f" "$tmp/$f"
done

status=0
report() {
    while read -r line; do
        echo "$1: $line"
        status=1
    done
}
report "pub mod without a DESIGN.md §3 row" < <(comm -23 "$tmp/code_mods" "$tmp/table_mods")
report "DESIGN.md §3 row names no pub mod" < <(comm -13 "$tmp/code_mods" "$tmp/table_mods")
report "DESIGN.md §3 crate-root row names no package" < <(comm -13 "$tmp/packages" "$tmp/table_roots")
report "package without a pub mod or a DESIGN.md §3 crate-root row" < <(comm -23 "$tmp/leaves" "$tmp/table_roots")
if [ "$status" -eq 0 ]; then
    echo "DESIGN.md §3 lists every pub mod ($(wc -l <"$tmp/code_mods")) and crate root ($(wc -l <"$tmp/table_roots")), and nothing else"
fi
exit "$status"
