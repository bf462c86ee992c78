//! Peek inside the MILP: build the paper's formulation for one window of
//! a real design, print its size, solve it with both the MILP
//! branch-and-bound and the exact DFS solver, and verify they agree.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example milp_playground
//! ```

use std::sync::Arc;
use vm1_core::milp::{build_milp, extract_assignment, warm_start};
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::dfs_solve;
use vm1_core::window::Window;
use vm1_core::Vm1Config;
use vm1_milp::{solve, SolveParams};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_obs::{Counter, MetricsHandle, Telemetry};
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

fn main() {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut design = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(250)
        .generate(&lib, 11);
    place(&mut design, &PlaceConfig::default(), 11);

    let cfg = Vm1Config::closedm1();
    let rowmap = RowMap::build(&design);
    let window = Window {
        site0: 0,
        row0: 0,
        w_sites: design.sites_per_row.min(40),
        h_rows: design.num_rows.min(4),
    };
    let movable: Vec<_> =
        WindowProblem::movable_in_window(&design, &rowmap, &window, &Overrides::new())
            .into_iter()
            .take(6)
            .collect();
    let prob = WindowProblem::build(
        &design,
        &rowmap,
        window,
        &movable,
        3,
        1,
        false,
        &cfg,
        &Overrides::new(),
    );

    println!("window problem:");
    println!("  movable cells : {}", prob.cells.len());
    println!(
        "  candidates    : {}",
        prob.cells.iter().map(|c| c.cands.len()).sum::<usize>()
    );
    println!("  local nets    : {}", prob.nets.len());
    println!("  d_pq pairs    : {}", prob.pairs.len());

    let (model, vars) = build_milp(&prob);
    println!("\nMILP (constraints (1)-(9) of the paper):");
    println!("  variables     : {}", model.num_vars());
    println!("  constraints   : {}", model.num_constraints());

    let cur = prob.current_assign();
    let sink = Arc::new(Telemetry::new());
    let params = SolveParams {
        warm_start: Some(warm_start(&prob, &model, &vars, &cur)),
        metrics: MetricsHandle::of(sink.clone()),
        ..SolveParams::default()
    };
    let sol = solve(&model, &params);
    println!("  status        : {:?}", sol.status);
    println!("  B&B nodes     : {}", sink.counter(Counter::BbNodes));
    println!("  objective     : {:.1}", sol.objective);

    let milp_assign = extract_assignment(&vars, &sol.values);
    let dfs_assign = dfs_solve(&prob, 1_000_000);
    println!("\ncross-check:");
    println!("  input placement objective : {:.1}", prob.eval(&cur));
    println!(
        "  MILP solution objective   : {:.1}",
        prob.eval(&milp_assign)
    );
    println!(
        "  DFS  solution objective   : {:.1}",
        prob.eval(&dfs_assign)
    );
    assert!((prob.eval(&milp_assign) - prob.eval(&dfs_assign)).abs() < 1e-6);
    println!("  MILP and DFS agree on the optimum ✓");
}
