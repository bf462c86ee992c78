//! Golden test of the exact DFS window solver on real windows.
//!
//! Replays every batch of one perturbation pass of a seeded
//! 150-instance Jpeg design at the paper's `(5, 4, 1)` parameter set and
//! pins, per batch, the problem digest, the DFS node count and a digest
//! of the returned assignment. Any change to the search order, the
//! pruning, the node budget or the window build shows up here.
//!
//! A second table replays the same pass with no node budget and pins
//! only the problem and assignment digests: a faster search may visit
//! fewer nodes, but it must pick the same leaf.

mod common;

use common::{replay_pass, state_digest};
use std::sync::Arc;
use vm1_core::solver::solve_window;
use vm1_core::{ParamSet, Vm1Config};
use vm1_netlist::generator::DesignProfile;
use vm1_obs::{Counter, MetricsHandle, Telemetry};
use vm1_tech::CellArch;

/// Per batch of the pass: `(state_digest, dfs_nodes, assignment
/// digest)`. The test prints the table it computes, in this format.
const GOLDEN: &[(u64, u64, u64)] = &[
    (0xe6afc8e8e9786ac9, 300006, 0x9495e352a265dfcf),
    (0xd8bc80492d4c078f, 1126, 0x9a0b53983e62e703),
    (0xbc6eb9a177248810, 32316, 0x5c853be5e849fda0),
    (0x409775a450602177, 820, 0x63263b1b032d0e43),
    (0x6d8c41c4844a5e4b, 5068, 0x35360accd395f335),
    (0xaf0c125a754e046f, 4964, 0x5a1ef8af3fc8c8e0),
    (0xa7757695101d2f30, 903, 0xb97993ffbe08aa2b),
    (0xecbf7eef5d0838cd, 820, 0x12050c6610adb4f0),
    (0x33b66302e43e2743, 36141, 0x28f6bd3e15f20ee5),
    (0x6934cb8d978e37d8, 504, 0x376aa7e8e910e8c1),
    (0x6bd61cfcf44db93a, 300005, 0x8c5a876e43d1a7bf),
    (0xfdb0d5590483b6ac, 25323, 0xda800bfda0ae2724),
    (0x8c7db6ef645b23c0, 325, 0x027043b0e135b10b),
    (0xb9f28817df17a62e, 7673, 0x760c748832dc9f84),
    (0xe87873da41626ff8, 37306, 0x6ba326d5d62b6db0),
    (0x26a9d923dc238de8, 103609, 0xd30a2bc1f682a205),
    (0x41a7ef563b349090, 300005, 0xe7697d945456bb4f),
    (0xeb798c5cd172e4c0, 300006, 0xb080695a2ed0d19a),
    (0xbde3516bfa2bed5f, 563, 0xa27ca1e8aa073c2f),
];

/// Per batch of the pass solved with `max_nodes = usize::MAX`:
/// `(state_digest, assignment digest)`, in the format the test prints.
const GOLDEN_UNBUDGETED: &[(u64, u64)] = &[
    (0xe6afc8e8e9786ac9, 0x9495e352a265dfcf),
    (0xd8bc80492d4c078f, 0x9a0b53983e62e703),
    (0xbc6eb9a177248810, 0x5c853be5e849fda0),
    (0x409775a450602177, 0x63263b1b032d0e43),
    (0x6d8c41c4844a5e4b, 0x35360accd395f335),
    (0xaf0c125a754e046f, 0x5a1ef8af3fc8c8e0),
    (0xa7757695101d2f30, 0xb97993ffbe08aa2b),
    (0xecbf7eef5d0838cd, 0x12050c6610adb4f0),
    (0x33b66302e43e2743, 0x28f6bd3e15f20ee5),
    (0x6934cb8d978e37d8, 0x376aa7e8e910e8c1),
    (0x6bd61cfcf44db93a, 0x8c5a876e43d1a7bf),
    (0xfdb0d5590483b6ac, 0xda800bfda0ae2724),
    (0x8c7db6ef645b23c0, 0x027043b0e135b10b),
    (0xb9f28817df17a62e, 0x760c748832dc9f84),
    (0xe87873da41626ff8, 0x6ba326d5d62b6db0),
    (0x26a9d923dc238de8, 0xd30a2bc1f682a205),
    (0x41a7ef563b349090, 0xe7697d945456bb4f),
    (0xeb798c5cd172e4c0, 0xb080695a2ed0d19a),
    (0xbde3516bfa2bed5f, 0xa27ca1e8aa073c2f),
];

fn assign_digest(assign: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &k in assign {
        h ^= k as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Replays the pass with node budget `max_nodes`. Returns
/// `(state_digest, dfs_nodes, assignment digest)` per batch and how many
/// batches the node budget cut short.
fn replay(max_nodes: usize) -> (Vec<(u64, u64, u64)>, usize) {
    let mut cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(5.0, 4, 1)]);
    cfg.max_nodes = max_nodes;
    let mut solved = Vec::new();
    let mut capped = 0;
    replay_pass(
        CellArch::ClosedM1,
        DesignProfile::Jpeg,
        150,
        1,
        &cfg,
        &mut |prob| {
            let sink = Arc::new(Telemetry::new());
            let assign = solve_window(prob, &cfg, &MetricsHandle::of(sink.clone()));
            let report = sink.report();
            let nodes = report.counter(Counter::DfsNodes);
            let cut = report.counter(Counter::DfsBudgetExhausted);
            // Every open DFS level counts one more node on its way out of
            // a search cut short, so a cut search ends above the budget.
            assert_eq!(cut, u64::from(nodes >= cfg.max_nodes as u64));
            capped += cut as usize;
            solved.push((state_digest(prob), nodes, assign_digest(&assign)));
            assign
        },
    );
    (solved, capped)
}

#[test]
fn dfs_on_real_windows_matches_golden() {
    let (got, capped) = replay(Vm1Config::closedm1().max_nodes);
    for g in &got {
        println!("    (0x{:016x}, {}, 0x{:016x}),", g.0, g.1, g.2);
    }
    assert!(capped >= 1, "no batch hits the node budget");
    assert_eq!(got, GOLDEN);
}

#[test]
fn unbudgeted_dfs_on_real_windows_matches_golden() {
    let (got, capped) = replay(usize::MAX);
    let got: Vec<(u64, u64)> = got.iter().map(|g| (g.0, g.2)).collect();
    for g in &got {
        println!("    (0x{:016x}, 0x{:016x}),", g.0, g.1);
    }
    assert_eq!(capped, 0);
    assert_eq!(got, GOLDEN_UNBUDGETED);
}
