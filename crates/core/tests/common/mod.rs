//! One perturbation pass over a seeded design, replayed batch by batch:
//! the real windows the DFS tests run on.

use vm1_core::problem::{End, Overrides, WindowProblem};
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

/// A digest of everything the solvers can observe: cells with their
/// candidates and current positions, net fixed boxes, pair geometry
/// and weights. Two problems with equal digests produce identical
/// solver results, so a digest identifies a batch in the golden tables
/// and in failure messages.
pub fn state_digest(prob: &WindowProblem) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut mix = |v: u64| {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    };
    mix(prob.window.site0 as u64);
    mix(prob.window.row0 as u64);
    mix(prob.window.w_sites as u64);
    mix(prob.window.h_rows as u64);
    mix(prob.alpha.to_bits());
    mix(prob.epsilon.to_bits());
    mix(prob.gamma_span as u64);
    mix(prob.delta as u64);
    mix(u64::from(prob.exact));
    for cell in &prob.cells {
        mix(cell.inst.0 as u64);
        mix(cell.width as u64);
        mix(cell.current as u64);
        for c in &cell.cands {
            mix(c.site as u64);
            mix(c.row as u64);
            mix(u64::from(c.orient.is_flipped()));
        }
    }
    for net in &prob.nets {
        mix(net.weight.to_bits());
        if let Some((x0, y0, x1, y1)) = net.fixed {
            mix(x0 as u64);
            mix(y0 as u64);
            mix(x1 as u64);
            mix(y1 as u64);
        }
        for &(c, s) in &net.movable {
            mix(c as u64);
            mix(s as u64);
        }
    }
    for pair in &prob.pairs {
        for e in [&pair.a, &pair.b] {
            match *e {
                End::Movable { cell, slot } => {
                    mix(1);
                    mix(cell as u64);
                    mix(slot as u64);
                }
                End::Fixed(g) => {
                    mix(2);
                    mix(g.x as u64);
                    mix(g.y as u64);
                    mix(g.x_lo as u64);
                    mix(g.x_hi as u64);
                }
            }
        }
    }
    h
}
