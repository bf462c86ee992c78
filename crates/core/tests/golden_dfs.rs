//! Golden test of the exact DFS window solver on real windows.
//!
//! Replays every batch of one perturbation pass of a seeded
//! 150-instance Jpeg design at the paper's `(5, 4, 1)` parameter set and
//! pins, per batch, the problem digest, the DFS node count and a digest
//! of the returned assignment. Any change to the search order, the
//! pruning, the node budget or the window build shows up here.

use std::sync::Arc;
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::solve_window_with;
use vm1_core::window::WindowGrid;
use vm1_core::{ParamSet, Vm1Config};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_obs::{Counter, MetricsHandle, Telemetry};
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

/// Per batch of the pass: `(state_digest, dfs_nodes, assignment
/// digest)`. The test prints the table it computes, in this format.
const GOLDEN: &[(u64, u64, u64)] = &[
    (0xe6afc8e8e9786ac9, 300005, 0x9495e352a265dfcf),
    (0xd8bc80492d4c078f, 167755, 0x9a0b53983e62e703),
    (0xbc6eb9a177248810, 300004, 0x5c853be5e849fda0),
    (0x409775a450602177, 300005, 0x63263b1b032d0e43),
    (0x6d8c41c4844a5e4b, 145567, 0x35360accd395f335),
    (0xaf0c125a754e046f, 300007, 0x5a1ef8af3fc8c8e0),
    (0xa7757695101d2f30, 199842, 0xb97993ffbe08aa2b),
    (0xecbf7eef5d0838cd, 300006, 0x12050c6610adb4f0),
    (0x33b66302e43e2743, 300005, 0x28f6bd3e15f20ee5),
    (0x6934cb8d978e37d8, 289780, 0x376aa7e8e910e8c1),
    (0x6bd61cfcf44db93a, 300007, 0x8c5a876e43d1a7bf),
    (0xfdb0d5590483b6ac, 300005, 0xda800bfda0ae2724),
    (0x8c7db6ef645b23c0, 300006, 0x027043b0e135b10b),
    (0xb9f28817df17a62e, 300007, 0x760c748832dc9f84),
    (0xe87873da41626ff8, 300007, 0x8bb68cbcd38d21f2),
    (0x326d8b2fa425af8b, 300007, 0xd306bcc1f67faf91),
    (0x142228ece52ed14a, 300005, 0xe7697d945456bb4f),
    (0x2cfefe1a7d69b2af, 300005, 0xb080695a2ed0d19a),
    (0x9d7f32f433da337d, 58210, 0xcdbbac79e85756a7),
];

fn assign_digest(assign: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &k in assign {
        h ^= k as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the perturbation pass round by round: windows of one diagonal
/// set see the placement at the start of the round, batches of one
/// window see the earlier batches' moves. Returns `(state_digest,
/// dfs_nodes, assignment digest)` per batch and how many batches the
/// node budget cut short.
fn replay() -> (Vec<(u64, u64, u64)>, usize) {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d: Design = GeneratorConfig::profile(DesignProfile::Jpeg)
        .with_insts(150)
        .generate(&lib, 1);
    place(&mut d, &PlaceConfig::default(), 1);
    let u = ParamSet::new(5.0, 4, 1);
    let cfg = Vm1Config::closedm1().with_sequence(vec![u]);
    let tech = d.library().tech();
    let bw = ((u.bw_um * 1000.0 / tech.site_width.nm() as f64).round() as i64).max(4);
    let bh = ((u.bh_um * 1000.0 / tech.row_height.nm() as f64).round() as i64).max(1);
    let grid = WindowGrid::partition(&d, 0, 0, bw, bh);
    let mut solved = Vec::new();
    let mut capped = 0;
    for set in grid.diagonal_sets() {
        let rowmap = RowMap::build(&d);
        let mut moves = Vec::new();
        for &wi in &set {
            let win = grid.windows[wi];
            let mut overrides = Overrides::new();
            let movable = WindowProblem::movable_in_window(&d, &rowmap, &win, &overrides);
            for batch in movable.chunks(cfg.max_cells_per_milp) {
                let prob = WindowProblem::build(
                    &d, &rowmap, win, batch, u.lx, u.ly, false, &cfg, &overrides,
                );
                let sink = Arc::new(Telemetry::new());
                let assign = solve_window_with(&prob, &cfg, &MetricsHandle::of(sink.clone()));
                let report = sink.report();
                let nodes = report.counter(Counter::DfsNodes);
                let cut = report.counter(Counter::DfsBudgetExhausted);
                // Every open DFS level counts one more node on its way out of
                // a search cut short, so a cut search ends above the budget.
                assert_eq!(cut, u64::from(nodes >= cfg.max_nodes as u64));
                capped += cut as usize;
                solved.push((prob.state_digest(), nodes, assign_digest(&assign)));
                for (cell, &k) in prob.cells.iter().zip(&assign) {
                    if k != cell.current {
                        overrides.insert(cell.inst, cell.cands[k]);
                        moves.push((cell.inst, cell.cands[k]));
                    }
                }
            }
        }
        for (inst, c) in moves {
            d.move_inst(inst, c.site, c.row, c.orient);
        }
    }
    (solved, capped)
}

#[test]
fn dfs_on_real_windows_matches_golden() {
    let (got, capped) = replay();
    for g in &got {
        println!("    (0x{:016x}, {}, 0x{:016x}),", g.0, g.1, g.2);
    }
    assert!(capped >= 1, "no batch hits the node budget");
    assert_eq!(got, GOLDEN);
}
