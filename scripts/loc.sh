#!/usr/bin/env bash
# Tracked Rust lines per top-level directory, so "net lines down" is one
# command. `vendor/` (API stand-ins for external crates) and `bench_e2e/`
# (the benchmark, frozen by BENCHMARK.json) are listed apart from the
# code a PR is expected to shrink.
# Run from anywhere inside the repo: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z -- '*.rs' | xargs -0 wc -l | awk '
  $2 == "total" { next }
  {
    n = split($2, part, "/")
    top = (n > 1) ? part[1] : "."
    lines[top] += $1
    if (top == "vendor" || top == "bench_e2e") apart += $1; else ours += $1
  }
  END {
    for (top in lines)
      if (top != "vendor" && top != "bench_e2e") printf "%8d  %s\n", lines[top], top | "sort -k2"
    close("sort -k2")
    printf "%8d  total outside vendor/ and bench_e2e/\n", ours
    printf "%8d  vendor\n%8d  bench_e2e\n", lines["vendor"], lines["bench_e2e"]
    printf "%8d  total tracked Rust\n", ours + apart
  }'
