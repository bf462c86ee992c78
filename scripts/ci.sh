#!/usr/bin/env bash
# Workspace CI gate: formatting, lints, build, tests.
#
# Everything here works fully offline — the workspace's only external
# dev-dependencies (proptest, criterion) are local shim crates, so no
# registry access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings; carries determinism rules D1-D5) =="
# clippy.toml and [workspace.lints.clippy] in Cargo.toml enforce the
# determinism rules (DESIGN.md §10): no hash containers, no clock reads
# outside obs::timer, no unwrap/expect/panic in library code, and every
# waiver is a reasoned #[expect] that must still suppress something.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== audit: debug-assertion test pass (placement checkpoints active) =="
# [profile.test] keeps debug assertions on, so the suite above already
# exercises every debug_checkpoint; this re-runs just the audit-layer
# crates explicitly so a checkpoint regression fails the stage by name.
cargo test -q -p vm1-milp -p vm1-place -p vm1-core audit

echo "== audit: vm1dp --audit on a generated smoke design =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.2 --seed 7 -o "$smoke_dir/smoke.def"
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    opt -i "$smoke_dir/smoke.def" -o "$smoke_dir/smoke_opt.def" --audit
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    audit -i "$smoke_dir/smoke_opt.def"

echo "== determinism: vm1dp opt bit-identical across thread counts =="
# The scheduler contract: placements and every telemetry counter are
# invariant under --threads; only stage times and the scheduler gauges
# may differ. Diff the DEFs and counter sections of 1-, 2- and 8-thread
# runs.
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.05 --seed 11 -o "$smoke_dir/det.def"
for t in 1 2 8; do
    cargo run --release -q -p vm1-flow --bin vm1dp -- \
        opt -i "$smoke_dir/det.def" -o "$smoke_dir/det_t$t.def" \
        --threads "$t" --metrics-out "$smoke_dir/det_t$t.csv" > /dev/null
done
# The CSV is "name,value" lines: stage times end in "_ms" and scheduler
# gauges start with "sched_" — both legitimately run-dependent; every
# remaining line is a deterministic counter.
counters() { grep -Ev '(_ms,|^sched_)' "$1"; }
for t in 2 8; do
    diff "$smoke_dir/det_t1.def" "$smoke_dir/det_t$t.def"
    diff <(counters "$smoke_dir/det_t1.csv") <(counters "$smoke_dir/det_t$t.csv")
done
echo "determinism OK"

echo "== certify: proof-carrying MILP solves on a generated micro design =="
# Under --audit every branch-and-bound window solve records an
# optimality certificate that the exact-rational checker (vm1-certify)
# must accept; a rejected certificate exits 6. MILP solves are ~100x
# slower than DFS, so this stage uses a dedicated micro design rather
# than the audit smoke above.
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.002 --seed 7 -o "$smoke_dir/micro.def"
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    opt --audit --solver milp -i "$smoke_dir/micro.def" -o "$smoke_dir/micro_opt.def"

echo "CI OK"
