//! Differential tests for proof-carrying window solves: every certified
//! MILP optimum must be accepted by the exact-arithmetic checker and
//! must match the exhaustively enumerated optimum on small windows.

use std::sync::Arc;
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::MILP_MAX_NODES;
use vm1_core::window::WindowGrid;
use vm1_core::{milp, Vm1Config};
use vm1_milp::{solve_certified, SolveParams};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_obs::{Counter, MetricsHandle, Telemetry};
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

/// Builds every window problem of a small generated design (up to
/// `max_cells` movable cells per window) and yields it to `f`.
fn for_each_window(arch: CellArch, seed: u64, max_cells: usize, f: &mut dyn FnMut(WindowProblem)) {
    let lib = Library::synthetic_7nm(arch);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(420)
        .generate(&lib, seed);
    place(&mut d, &PlaceConfig::default(), seed);
    let cfg = if arch == CellArch::OpenM1 {
        Vm1Config::openm1()
    } else {
        Vm1Config::closedm1()
    };
    let u = cfg.sequence[0];
    let tech = d.library().tech();
    let site = tech.site_width.nm() as f64;
    let row = tech.row_height.nm() as f64;
    let bw = ((u.bw_um * 1000.0 / site).round() as i64).max(4);
    let bh = ((u.bh_um * 1000.0 / row).round() as i64).max(1);
    let rowmap = RowMap::build(&d);
    let overrides = Overrides::new();
    let grid = WindowGrid::partition(&d, 0, 0, bw, bh);
    for win in &grid.windows {
        let mut movable = WindowProblem::movable_in_window(&d, &rowmap, win, &overrides);
        if movable.len() < 2 {
            continue;
        }
        movable.truncate(max_cells);
        let prob = WindowProblem::build(
            &d, &rowmap, *win, &movable, u.lx, u.ly, false, &cfg, &overrides,
        );
        f(prob);
    }
}

/// Exhaustive optimum by enumerating all legal assignments.
fn brute_force(prob: &WindowProblem) -> f64 {
    fn rec(prob: &WindowProblem, assign: &mut Vec<usize>, cell: usize, best: &mut f64) {
        if cell == prob.cells.len() {
            if prob.is_legal(assign) {
                *best = best.min(prob.eval(assign));
            }
            return;
        }
        for k in 0..prob.cells[cell].cands.len() {
            assign[cell] = k;
            rec(prob, assign, cell + 1, best);
        }
    }
    let mut best = f64::INFINITY;
    let mut assign = prob.current_assign();
    rec(prob, &mut assign, 0, &mut best);
    best
}

/// Every window solve of the generated designs must produce a
/// certificate the exact-arithmetic checker accepts, also a solve that
/// stops at the node limit with only an incumbent.
#[test]
fn every_window_certificate_verifies() {
    let mut solves = 0usize;
    let mut limit_hits = 0usize;
    let mut rejected = Vec::new();
    for (arch, seed) in [(CellArch::ClosedM1, 11), (CellArch::OpenM1, 12)] {
        for_each_window(arch, seed, 8, &mut |prob| {
            if solves >= 12 {
                return;
            }
            let (model, vars) = milp::build_milp(&prob);
            // Mirror the optimizer's solve parameters, node limit and warm
            // start included — the warm-started zero-gap path must certify
            // exactly like a cold solve.
            let sink = Arc::new(Telemetry::new());
            let params = SolveParams {
                max_nodes: Vm1Config::closedm1().max_nodes.min(MILP_MAX_NODES),
                warm_start: Some(milp::warm_start(
                    &prob,
                    &model,
                    &vars,
                    &prob.current_assign(),
                )),
                metrics: MetricsHandle::of(sink.clone()),
                ..SolveParams::default()
            };
            let certified = solve_certified(&model, &params);
            let report = vm1_certify::check(&model, &certified.certificate);
            solves += 1;
            limit_hits += sink.report().counter(Counter::MilpLimitHit) as usize;
            if !report.accepted {
                rejected.push(format!(
                    "{arch} seed {seed} ({} vars, {} rows): {}",
                    model.num_vars(),
                    model.num_constraints(),
                    report.summary()
                ));
            }
        });
    }
    assert!(
        solves >= 8,
        "expected to certify many windows, got {solves}"
    );
    assert!(
        rejected.is_empty(),
        "{} of {solves} certificates rejected:\n{}",
        rejected.len(),
        rejected.join("\n")
    );
    assert!(limit_hits >= 1, "no solve stopped at the node limit");
}

/// On windows small enough to enumerate, the certified optimum must
/// equal the exhaustive one.
#[test]
fn certified_optimum_matches_enumeration() {
    let mut compared = 0usize;
    for seed in [21, 22] {
        for_each_window(CellArch::ClosedM1, seed, 3, &mut |prob| {
            if prob.cells.len() > 3 || compared >= 8 {
                return;
            }
            let (model, vars) = milp::build_milp(&prob);
            let certified = solve_certified(&model, &SolveParams::default());
            let report = vm1_certify::check(&model, &certified.certificate);
            assert!(report.accepted, "rejected: {}", report.summary());
            let sol = &certified.solution;
            assert!(sol.has_solution());
            let got = prob.eval(&milp::extract_assignment(&vars, &sol.values));
            let expect = brute_force(&prob);
            assert!(
                (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
                "seed {seed}: certified {got} vs brute {expect}"
            );
            compared += 1;
        });
    }
    assert!(
        compared > 3,
        "expected several enumerable windows, got {compared}"
    );
}
