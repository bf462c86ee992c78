#!/usr/bin/env bash
# Workspace CI gate: formatting, lints, build, tests, benchmark smoke run.
#
# Everything here works fully offline — the workspace's only external
# dev-dependency (proptest) is a local shim crate, so no registry access
# is needed.
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

echo "== cargo doc (deny warnings) =="
# Broken, ambiguous or private intra-doc links fail here, including
# links left dangling by a deleted item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== router exactness tests in release =="
# The test profile traps integer overflow, the release profile wraps. The
# maze router packs its heap keys through a checked conversion and reruns
# a search on wide keys when one does not fit, and its A* bound adds a via
# term to the wire length. Its unit tests (among them the exhaustive
# consistency check of the bound and the differential test against a
# plain Dijkstra) and its golden-route tests must also pass in the build
# that ships.
cargo test --release -q -p vm1-route

echo "== DFS exactness tests in release =="
# The DFS bound sums i64 box spans, which trap on overflow in the test
# profile and wrap in release. Replay the golden pass (with and without
# the node budget) and the brute-force, split and root-bound differential
# tests in the build that ships.
cargo test --release -q -p vm1-core --test golden_dfs --test dfs_exact

echo "== audit: debug-assertion test pass (placement checkpoints active) =="
# [profile.test] keeps debug assertions on, so the suite above already
# exercises every debug_checkpoint; this re-runs just the audit-layer
# crates explicitly so a checkpoint regression fails the stage by name.
cargo test -q -p vm1-place -p vm1-core audit

echo "== audit: vm1dp --audit on a generated smoke design =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.2 --seed 7 -o "$smoke_dir/smoke.def"
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    opt -i "$smoke_dir/smoke.def" -o "$smoke_dir/smoke_opt.def" --audit
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    audit -i "$smoke_dir/smoke_opt.def"

echo "== determinism: vm1dp opt across thread counts, vm1dp report across runs =="
# The scheduler contract: placements and every telemetry counter are
# invariant under --threads; only stage times and the scheduler gauges
# may differ. Diff the DEFs and counter sections of 1-, 2- and 8-thread
# runs, with the DFS engine on a small design and with the MILP engine
# (whose only limit is its node count) on a micro design.
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.05 --seed 11 -o "$smoke_dir/det.def"
cargo run --release -q -p vm1-flow --bin vm1dp -- \
    gen --profile m0 --scale 0.002 --seed 7 -o "$smoke_dir/micro.def"
# The CSV is "name,value" lines: stage times end in "_ms" and scheduler
# gauges start with "sched_" — both legitimately run-dependent; every
# remaining line is a deterministic counter.
counters() { grep -Ev '(_ms,|^sched_)' "$1"; }
# thread_diff NAME INPUT [OPT FLAGS...]
thread_diff() {
    local name=$1 input=$2
    shift 2
    for t in 1 2 8; do
        cargo run --release -q -p vm1-flow --bin vm1dp -- \
            opt -i "$input" -o "$smoke_dir/${name}_t$t.def" "$@" \
            --threads "$t" --metrics-out "$smoke_dir/${name}_t$t.csv" > /dev/null
    done
    for t in 2 8; do
        diff "$smoke_dir/${name}_t1.def" "$smoke_dir/${name}_t$t.def"
        diff <(counters "$smoke_dir/${name}_t1.csv") <(counters "$smoke_dir/${name}_t$t.csv")
    done
}
thread_diff det "$smoke_dir/det.def"
# The MILP runs are also the certified runs: with --audit every
# branch-and-bound window solve records an optimality certificate that
# the exact-rational checker (vm1-certify) must accept; a rejected
# certificate exits 6. MILP solves are ~100x slower than DFS, so they
# run on the micro design rather than on det.def. Certifying does not
# change the placement or the solve counters, only adds the
# cert_*/audit_placement_* counts, which must agree across threads too.
thread_diff det_milp "$smoke_dir/micro.def" --solver milp --audit
# The router runs on one thread, so its determinism is checked by
# repetition: two `report` runs on the same design must write the same
# route counters (searches, heap pops, box widenings, overflow,
# unrouted subnets), which pin the A* pop order in the release build.
for run in 1 2; do
    cargo run --release -q -p vm1-flow --bin vm1dp -- \
        report -i "$smoke_dir/det.def" --metrics-out "$smoke_dir/report_$run.csv" > /dev/null
done
grep -q '^route_heap_pops,[1-9]' "$smoke_dir/report_1.csv"
diff <(counters "$smoke_dir/report_1.csv") <(counters "$smoke_dir/report_2.csv")
echo "determinism OK"

echo "== perfbench: build and smoke-run the gate benchmark =="
# perfbench/ is a package of its own (empty [workspace]) built against
# the crates by path, so no stage above compiles it. A one-second run of
# each workload checks that it still builds and that every job's
# placement passes its checks; its last line is the JSON result.
for w in large solver flow; do
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$w: $last"
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *) echo "perfbench $w: a job failed its checks" >&2; exit 1 ;;
    esac
done

echo "CI OK"
