#!/usr/bin/env bash
# Every `[dependencies]` edge of the root package and of each crate under
# crates/ must be used: its name (with `-` → `_`) has to appear somewhere
# in that package's src/. Prints each unused edge and exits 1 if any.
# Run from anywhere inside the repo: ./scripts/unused_deps.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { in_deps = ($0 == "[dependencies]"); next }
                in_deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$manifest")
    for dep in $deps; do
        if ! grep -rqw -- "${dep//-/_}" "$dir/src"; then
            echo "unused dependency: $manifest -> $dep"
            status=1
        fi
    done
done
[ "$status" -eq 0 ] && echo "every [dependencies] edge is used"
exit "$status"
