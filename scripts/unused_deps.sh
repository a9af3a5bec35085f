#!/usr/bin/env bash
# Every dependency edge of the root package and of each crate under
# crates/ must be used: its name (with `-` → `_`) has to appear somewhere
# in the code that can use it. A `[dependencies]` edge is searched in the
# package's src/; a `[dev-dependencies]` edge in its src/ and tests/ (the
# root package's examples/ too). Prints each unused edge and exits 1 if any.
# Run from anywhere inside the repo: ./scripts/unused_deps.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Names listed under the manifest section `$2` of manifest `$1`.
section_deps() {
    awk -v want="$2" '/^\[/ { in_deps = ($0 == want); next }
        in_deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$1"
}

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    dev_dirs=("$dir/src")
    for sub in tests examples; do
        if [ -d "$dir/$sub" ] && { [ "$sub" = tests ] || [ "$dir" = . ]; }; then
            dev_dirs+=("$dir/$sub")
        fi
    done
    for dep in $(section_deps "$manifest" "[dependencies]"); do
        if ! grep -rqw -- "${dep//-/_}" "$dir/src"; then
            echo "unused dependency: $manifest -> $dep"
            status=1
        fi
    done
    for dep in $(section_deps "$manifest" "[dev-dependencies]"); do
        if ! grep -rqw -- "${dep//-/_}" "${dev_dirs[@]}"; then
            echo "unused dev-dependency: $manifest -> $dep"
            status=1
        fi
    done
done
[ "$status" -eq 0 ] && echo "every [dependencies] and [dev-dependencies] edge is used"
exit "$status"
