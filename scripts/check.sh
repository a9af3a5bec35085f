#!/usr/bin/env bash
# CI gate: formatting, lints (warnings are errors), build, full test suite.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: broken intra-doc links fail here) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== fault-injection suite over framed Unix sockets (NKG_TRANSPORT=uds) =="
NKG_TRANSPORT=uds cargo test -q --test integration_fault

echo "== supervised respawn suite: dead ranks resurrected in place (NKG_TRANSPORT=uds) =="
NKG_TRANSPORT=uds cargo test -q --test integration_respawn

echo "== collectives and distributed CG over the wire (NKG_TRANSPORT=uds): butterfly allreduce, fused reductions =="
NKG_TRANSPORT=uds cargo test -q --test integration_distributed --test integration_wakeups --test property_invariants
NKG_TRANSPORT=uds cargo test -q -p nkg-mci --test transport_semantics
cargo run --release -q -p nkg-bench --bin bench_mci -- --smoke

echo "== thread invariance: overlap suite on 1 rayon thread (the default pool ran above) =="
RAYON_NUM_THREADS=1 cargo test -q -p nkg-coupling --test integration_overlap

echo "== checkpoint pipeline on 1 rayon thread (one pool thread + continuum thread + committer is the oversubscribed corner) =="
RAYON_NUM_THREADS=1 cargo test -q --test integration_ckpt --test integration_boundary
cargo run --release -q -p nkg-bench --bin bench_ckpt -- --smoke

echo "== DPD one force evaluation per step: step_over_forces <= 1.35 on an open-boundary box =="
cargo run --release -q -p nkg-bench --bin bench_dpd -- --smoke

echo "== elliptic engine smoke: preconditioner ladder, NS telemetry and element-kernel rows =="
cargo run --release -q -p nkg-bench --bin bench_sem -- --smoke

echo "== bench gate: each committed BENCH_*.json vs the working tree's, no count up by more than 2% =="
for layer in ckpt dpd mci sem serve; do
    git show "HEAD:BENCH_$layer.json" >"target/BENCH_$layer.head.json"
    bash scripts/bench_gate.sh "target/BENCH_$layer.head.json" "BENCH_$layer.json"
done

echo "== ensemble smoke: cold/warm, disk tier and scheduler legs bitwise, hit rate > 0 =="
cargo run --release -q -p nkg-bench --bin bench_serve -- --smoke

echo "== bench_e2e: its own workspace, so build, unit-test and smoke it here =="
cargo test --manifest-path bench_e2e/Cargo.toml --offline -q
bash bench_e2e/run.sh --smoke | tee target/bench_e2e.smoke.out

echo "== smoke state hashes: every workload's equals scripts/smoke_state_hashes.txt =="
diff <(awk '$1 == "bench_e2e" { w = $2 } $1 == "state_hash" { print w, $2 }' target/bench_e2e.smoke.out) \
    <(grep -v '^#' scripts/smoke_state_hashes.txt)

echo "== tracked Rust lines per top-level directory =="
bash scripts/loc.sh

echo "All checks passed."
