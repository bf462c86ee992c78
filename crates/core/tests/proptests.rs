//! Property-based tests of the optimizer's core invariants:
//!
//! * window solvers always return legal assignments that are no worse
//!   than the input (regardless of engine);
//! * the window-local objective delta equals the global objective delta
//!   for any in-window move (the Figure 4(b) decomposition property that
//!   justifies parallel diagonal windows);
//! * the audit layer's independent dM1 recount always agrees with the
//!   objective, and optimization preserves audit cleanliness.

use proptest::prelude::*;
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::solve_window;
use vm1_core::window::Window;
use vm1_core::{
    audit_design, calculate_obj, recount_alignments, ParamSet, Vm1Config, Vm1Optimizer,
};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_tech::{CellArch, Library};

fn build(arch: CellArch, n: usize, seed: u64) -> (Design, Vm1Config) {
    let lib = Library::synthetic_7nm(arch);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(n)
        .generate(&lib, seed);
    place(&mut d, &PlaceConfig::default(), seed);
    let cfg = if arch == CellArch::OpenM1 {
        Vm1Config::openm1()
    } else {
        Vm1Config::closedm1()
    };
    (d, cfg)
}

fn window_of(d: &Design, frac: f64) -> Window {
    Window {
        site0: 0,
        row0: 0,
        w_sites: ((d.sites_per_row as f64 * frac) as i64).clamp(10, d.sites_per_row),
        h_rows: ((d.num_rows as f64 * frac) as i64).clamp(2, d.num_rows),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn solvers_are_legal_and_never_worse(
        arch_i in 0u8..2,
        n in 100usize..250,
        seed in 0u64..500,
        lx in 1i64..4,
        ly in 0i64..2,
        take in 3usize..8,
    ) {
        let arch = [CellArch::ClosedM1, CellArch::OpenM1][arch_i as usize];
        let (d, cfg) = build(arch, n, seed);
        let rm = RowMap::build(&d);
        let win = window_of(&d, 0.4);
        let movable: Vec<_> =
            WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new())
                .into_iter()
                .take(take)
                .collect();
        prop_assume!(!movable.is_empty());
        let prob = WindowProblem::build(&d, &rm, win, &movable, lx, ly, false, &cfg, &Overrides::new());
        let cur_obj = prob.eval(&prob.current_assign());
        let assign = solve_window(&prob, &cfg);
        prop_assert!(prob.is_legal(&assign));
        prop_assert!(prob.eval(&assign) <= cur_obj + 1e-9);
    }

    #[test]
    fn window_delta_equals_global_delta(
        n in 100usize..250,
        seed in 0u64..500,
        pick in 0usize..64,
    ) {
        let (mut d, cfg) = build(CellArch::ClosedM1, n, seed);
        let rm = RowMap::build(&d);
        let win = window_of(&d, 0.5);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        prop_assume!(!movable.is_empty());
        let prob = WindowProblem::build(&d, &rm, win, &movable, 3, 1, true, &cfg, &Overrides::new());
        let cur = prob.current_assign();

        // Pick a random legal single-cell move.
        let cell = pick % prob.cells.len();
        prop_assume!(prob.cells[cell].cands.len() > 1);
        let mut alt = cur.clone();
        alt[cell] = (cur[cell] + 1 + pick / prob.cells.len()) % prob.cells[cell].cands.len();
        prop_assume!(prob.is_legal(&alt));

        let local_delta = prob.eval(&alt) - prob.eval(&cur);
        let g0 = calculate_obj(&d, &cfg).value;
        let cand = prob.cells[cell].cands[alt[cell]];
        d.move_inst(prob.cells[cell].inst, cand.site, cand.row, cand.orient);
        let g1 = calculate_obj(&d, &cfg).value;
        prop_assert!(
            ((g1 - g0) - local_delta).abs() < 1e-6,
            "global {} vs local {}",
            g1 - g0,
            local_delta
        );
    }

    #[test]
    fn dm1_recount_matches_objective(
        arch_i in 0u8..2,
        n in 80usize..250,
        seed in 0u64..1000,
    ) {
        let arch = [CellArch::ClosedM1, CellArch::OpenM1][arch_i as usize];
        let (d, cfg) = build(arch, n, seed);
        prop_assert_eq!(
            recount_alignments(&d, &cfg),
            calculate_obj(&d, &cfg).alignments,
            "independent recount must agree with the objective"
        );
    }

    #[test]
    fn partition_tiles_core_exactly(
        n_rows in 1i64..40,
        n_sites in 1i64..400,
        bw in 1i64..500,
        bh in 1i64..50,
        tx in -1000i64..1000,
        ty in -100i64..100,
    ) {
        use vm1_core::window::WindowGrid;
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = Design::new("tile", lib, n_rows, n_sites);
        let g = WindowGrid::partition(&d, tx, ty, bw, bh);
        // Exact tiling: the window areas sum to the core area, every
        // window is non-empty, and the grid shape matches the count.
        let area: i64 = g.windows.iter().map(|w| w.w_sites * w.h_rows).sum();
        prop_assert_eq!(area, n_rows * n_sites);
        prop_assert_eq!(g.windows.len(), g.nc * g.nr);
        prop_assert!(g.windows.iter().all(|w| w.w_sites > 0 && w.h_rows > 0));
        // Diagonal sets cover every window once, with pairwise disjoint
        // x and y projections inside each set.
        let sets = g.diagonal_sets();
        let mut seen = vec![false; g.windows.len()];
        for set in &sets {
            for &i in set {
                prop_assert!(!seen[i], "window in two sets");
                seen[i] = true;
            }
            for (k, &a_i) in set.iter().enumerate() {
                for &b_i in &set[k + 1..] {
                    let (a, b) = (g.windows[a_i], g.windows[b_i]);
                    prop_assert!(!(a.site0 < b.site_end() && b.site0 < a.site_end()));
                    prop_assert!(!(a.row0 < b.row_end() && b.row0 < a.row_end()));
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every window in some set");
    }

    #[test]
    fn optimization_preserves_audit_cleanliness(
        arch_i in 0u8..2,
        n in 80usize..160,
        seed in 0u64..500,
    ) {
        let arch = [CellArch::ClosedM1, CellArch::OpenM1][arch_i as usize];
        let (mut d, cfg) = build(arch, n, seed);
        let pre = audit_design(&d, &cfg);
        prop_assert!(pre.is_clean(), "pre-optimization: {}", pre.summary());

        let cfg = cfg.with_sequence(vec![ParamSet::new(4.0, 3, 1)]);
        let _ = Vm1Optimizer::new(cfg.clone()).run(&mut d);

        let post = audit_design(&d, &cfg);
        prop_assert!(post.is_clean(), "post-optimization: {}", post.summary());
        prop_assert!(d.validate_placement().is_ok());
    }
}

proptest! {
    // Full passes are expensive; a handful of random configurations is
    // plenty to pin the thread-invariance contract.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pass_bit_identical_across_thread_counts(
        n in 120usize..220,
        seed in 0u64..500,
        lx in 1i64..4,
        flip_i in 0u8..2,
    ) {
        let flip = flip_i == 1;
        use std::sync::Arc;
        use vm1_core::DistOptParams;
        use vm1_obs::{Counter, Telemetry};

        let p = |d: &Design| DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: (d.sites_per_row / 3).max(10),
            bh_rows: (d.num_rows / 3).max(2),
            lx,
            ly: 1,
            flip,
        };
        // One full DistOpt pass at 1 thread vs 8 threads: placements and
        // every counter must be bit-identical (scheduler gauges may not).
        let mut results = Vec::new();
        for threads in [1usize, 8] {
            let (mut d, cfg) = build(CellArch::ClosedM1, n, seed);
            let cfg = cfg.with_threads(threads);
            let sink = Arc::new(Telemetry::new());
            let params = p(&d);
            let _ = Vm1Optimizer::new(cfg)
                .with_metrics(sink.clone())
                .run_pass(&mut d, &params);
            let placement: Vec<(i64, i64, bool)> = d
                .insts()
                .map(|(_, i)| (i.site, i.row, i.orient.is_flipped()))
                .collect();
            let r = sink.report();
            let counters: Vec<u64> = Counter::ALL.iter().map(|&c| r.counter(c)).collect();
            results.push((placement, counters));
        }
        prop_assert_eq!(&results[0].0, &results[1].0, "placements differ by thread count");
        prop_assert_eq!(&results[0].1, &results[1].1, "counters differ by thread count");
    }
}
