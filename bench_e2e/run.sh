#!/usr/bin/env bash
# Build the benchmark, then run it: one process per workload.
#
#   bench_e2e/run.sh                       all five workloads, end-to-end metrics
#   bench_e2e/run.sh --trace 1             all five, per-layer metrics and traces
#   bench_e2e/run.sh --smoke [--trace 1]   every workload at about 1/20 size
#   bench_e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   bench_e2e/run.sh compare A.jsonl B.jsonl
#
# Exits non-zero if the build, a result check or the comparison fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/bench_e2e"
case " $* " in
*" --workload "* | " compare "*) exec "$bin" "$@" ;;
esac
status=0
for workload in coupled_sem coupled_dpd coupled_io ranks_uds serve_sweep; do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
