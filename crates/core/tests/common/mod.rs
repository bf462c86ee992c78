//! One perturbation pass over a seeded design, replayed batch by batch:
//! the real windows the DFS tests run on.

use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::window::WindowGrid;
use vm1_core::Vm1Config;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

/// Runs the perturbation pass of `cfg.sequence[0]` over an `insts`-instance
/// `profile` design of `arch`, generated and placed with `seed`, round by
/// round: windows of one diagonal set see the placement at the start of
/// the round, batches of one window see the earlier batches' moves.
/// `solve` is handed every batch and returns the assignment to commit.
pub fn replay_pass(
    arch: CellArch,
    profile: DesignProfile,
    insts: usize,
    seed: u64,
    cfg: &Vm1Config,
    solve: &mut dyn FnMut(&WindowProblem) -> Vec<usize>,
) {
    let lib = Library::synthetic_7nm(arch);
    let mut d: Design = GeneratorConfig::profile(profile)
        .with_insts(insts)
        .generate(&lib, seed);
    place(&mut d, &PlaceConfig::default(), seed);
    let u = cfg.sequence[0];
    let tech = d.library().tech();
    let bw = ((u.bw_um * 1000.0 / tech.site_width.nm() as f64).round() as i64).max(4);
    let bh = ((u.bh_um * 1000.0 / tech.row_height.nm() as f64).round() as i64).max(1);
    let grid = WindowGrid::partition(&d, 0, 0, bw, bh);
    for set in grid.diagonal_sets() {
        let rowmap = RowMap::build(&d);
        let mut moves = Vec::new();
        for &wi in &set {
            let win = grid.windows[wi];
            let mut overrides = Overrides::new();
            let movable = WindowProblem::movable_in_window(&d, &rowmap, &win, &overrides);
            for batch in movable.chunks(cfg.max_cells_per_milp) {
                let prob = WindowProblem::build(
                    &d, &rowmap, win, batch, u.lx, u.ly, false, cfg, &overrides,
                );
                let assign = solve(&prob);
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
}
