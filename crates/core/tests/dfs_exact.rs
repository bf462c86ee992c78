//! Differential tests of the exact DFS window search on real batches:
//! every batch of the golden pass of `golden_dfs.rs` (a 150-instance
//! ClosedM1 Jpeg design) and of one pass over a 150-instance OpenM1 Aes
//! design, each at the paper's `(5, 4, 1)` parameter set. The passes
//! commit the unbudgeted DFS assignment of every batch. A property test
//! adds random small windows of both architectures.

mod common;

use common::{replay_pass, state_digest};
use proptest::prelude::*;
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::{dfs_root_bound, dfs_solve, dfs_solve_unsplit};
use vm1_core::window::Window;
use vm1_core::Vm1Config;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

/// Hands every batch of both passes to `check`, with the unbudgeted DFS
/// assignment, and commits that assignment.
fn for_each_batch(check: &mut dyn FnMut(&WindowProblem, &[usize])) {
    for (arch, profile, cfg) in [
        (
            CellArch::ClosedM1,
            DesignProfile::Jpeg,
            Vm1Config::closedm1(),
        ),
        (CellArch::OpenM1, DesignProfile::Aes, Vm1Config::openm1()),
    ] {
        replay_pass(arch, profile, 150, 1, &cfg, &mut |prob| {
            let assign = dfs_solve(prob, usize::MAX);
            assert!(prob.is_legal(&assign));
            check(prob, &assign);
            assign
        });
    }
}

/// Exhaustive optimum over every legal assignment.
fn brute_force(prob: &WindowProblem) -> f64 {
    fn rec(prob: &WindowProblem, assign: &mut Vec<usize>, cell: usize, best: &mut f64) {
        if cell == prob.cells.len() {
            *best = best.min(prob.eval(assign));
            return;
        }
        let width = prob.cells[cell].width;
        for k in 0..prob.cells[cell].cands.len() {
            let c = prob.cells[cell].cands[k];
            let clash = (0..cell).any(|e| {
                let o = prob.cells[e].cands[assign[e]];
                o.row == c.row && o.site + prob.cells[e].width > c.site && c.site + width > o.site
            });
            if !clash {
                assign[cell] = k;
                rec(prob, assign, cell + 1, best);
            }
        }
        assign[cell] = prob.cells[cell].current;
    }
    let mut best = f64::INFINITY;
    let mut assign = prob.current_assign();
    rec(prob, &mut assign, 0, &mut best);
    best
}

/// Every batch of at most 2·10^7 candidate combinations, 31 of the 38:
/// the enumeration skips overlapping prefixes, so it visits far fewer.
#[test]
fn unbudgeted_dfs_equals_brute_force() {
    let mut compared = 0;
    for_each_batch(&mut |prob, assign| {
        let leaves = prob
            .cells
            .iter()
            .try_fold(1usize, |p, c| p.checked_mul(c.cands.len()));
        if leaves.is_none_or(|l| l > 20_000_000) {
            return;
        }
        let expect = brute_force(prob);
        let got = prob.eval(assign);
        assert!(
            (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
            "batch 0x{:016x}: dfs {got} vs brute force {expect}",
            state_digest(prob)
        );
        compared += 1;
    });
    assert!(compared >= 30, "only {compared} batches enumerable");
}

#[test]
fn split_search_picks_the_whole_batch_assignment() {
    let mut batches = 0;
    for_each_batch(&mut |prob, assign| {
        assert_eq!(
            assign,
            dfs_solve_unsplit(prob, usize::MAX),
            "batch 0x{:016x}",
            state_digest(prob)
        );
        batches += 1;
    });
    assert!(batches > 30, "{batches} batches");
}

#[test]
fn root_reach_bound_never_exceeds_the_optimum() {
    let mut tighter = 0;
    for_each_batch(&mut |prob, assign| {
        let bound = dfs_root_bound(prob);
        let opt = prob.eval(assign);
        assert!(
            bound <= opt + 1e-6,
            "batch 0x{:016x}: root bound {bound} above optimum {opt}",
            state_digest(prob)
        );
        // The box of the fixed pins alone, less every pair's bonus: the
        // bound without the reach of the unplaced pins.
        let fixed: f64 = prob
            .nets
            .iter()
            .map(|n| n.weight * n.fixed.map_or(0, |(x0, y0, x1, y1)| (x1 - x0) + (y1 - y0)) as f64)
            .sum::<f64>()
            - prob.pairs.iter().map(|p| p.max_bonus).sum::<f64>();
        assert!(bound >= fixed - 1e-6);
        tighter += usize::from(bound > fixed + 1e-6);
    });
    assert!(tighter > 0, "the reach never tightens the root bound");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random windows of at most 5 cells, with or without flips: the
    /// unbudgeted search finds the exhaustive optimum. Windows of more
    /// than 10^6 candidate combinations are skipped to bound the
    /// enumeration.
    #[test]
    fn random_small_window_dfs_equals_brute_force(
        mode in 0usize..4,
        n in 80usize..200,
        seed in 0u64..1000,
        w_sites in 12i64..40,
        at in 0i64..10_000,
        lx in 1i64..4,
        ly in 0i64..2,
        take in 1usize..6,
    ) {
        // Bit 0 picks the architecture, bit 1 turns flips on.
        let (arch, cfg) = [
            (CellArch::ClosedM1, Vm1Config::closedm1()),
            (CellArch::OpenM1, Vm1Config::openm1()),
        ][mode & 1]
            .clone();
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let w_sites = w_sites.min(d.sites_per_row);
        let h_rows = d.num_rows.min(3);
        let win = Window {
            site0: at % (d.sites_per_row - w_sites + 1),
            row0: at % (d.num_rows - h_rows + 1),
            w_sites,
            h_rows,
        };
        let rm = RowMap::build(&d);
        let movable: Vec<_> = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new())
            .into_iter()
            .take(take)
            .collect();
        prop_assume!(!movable.is_empty());
        let prob = WindowProblem::build(
            &d, &rm, win, &movable, lx, ly, mode & 2 != 0, &cfg, &Overrides::new(),
        );
        let leaves = prob
            .cells
            .iter()
            .try_fold(1usize, |p, c| p.checked_mul(c.cands.len()));
        prop_assume!(leaves.is_some_and(|l| l <= 1_000_000));
        let assign = dfs_solve(&prob, usize::MAX);
        prop_assert!(prob.is_legal(&assign));
        let (got, expect) = (prob.eval(&assign), brute_force(&prob));
        prop_assert!(
            (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
            "dfs {} vs brute force {}",
            got,
            expect
        );
    }
}
