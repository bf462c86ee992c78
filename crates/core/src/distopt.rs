//! Algorithm 2 — `DistOpt`: distributable window optimization.
//!
//! The layout is partitioned into windows (shifted by `(tx, ty)`); the
//! diagonal sets of [`crate::window::WindowGrid::diagonal_sets`] are
//! processed one after another, and the windows *within* a set are solved
//! in parallel by the scheduler's `Round` (their projections are
//! disjoint, so window-local ΔHPWL is exact — Figure 4b).
//! Windows holding more movable cells than `max_cells_per_milp` are
//! solved in sequential batches with earlier batches fixed (the
//! documented CPLEX-scale substitution, DESIGN.md §5).
//!
//! Occupancy is maintained incrementally: the [`RowMap`] is built once
//! per pass and patched with the committed moves after every round (see
//! [`vm1_place::RowMap::patch_moves`]), so round setup cost scales with
//! what changed instead of with design size. The eligible pin pairs do
//! not depend on the placement; their [`PairIndex`] is built once per
//! pass too, and each window batch looks up only its own instances.

use crate::pairs::PairIndex;
use crate::problem::{Candidate, Overrides, SolveScratch, WindowProblem};
use crate::sched::Round;
use crate::solver::solve_window;
use crate::window::{Window, WindowGrid};
use crate::Vm1Config;
use vm1_netlist::{Design, InstId};
use vm1_obs::{Counter, MetricsHandle, SchedGauge, Stage};
use vm1_place::{RowMap, SpanMove};

/// Parameters of one `DistOpt` call (Algorithm 2's arguments).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DistOptParams {
    /// Window-grid x shift, in sites.
    pub tx: i64,
    /// Window-grid y shift, in rows.
    pub ty: i64,
    /// Window width in sites.
    pub bw_sites: i64,
    /// Window height in rows.
    pub bh_rows: i64,
    /// Max x displacement in sites (`l_x`).
    pub lx: i64,
    /// Max y displacement in rows (`l_y`).
    pub ly: i64,
    /// Whether flipping is allowed (`f`).
    pub flip: bool,
}

/// Algorithm 2 proper. All accounting goes through `metrics`. Each round
/// runs on at most one worker per `scratch` buffer (see [`Round::solve`]).
pub(crate) fn dist_opt_impl(
    design: &mut Design,
    p: &DistOptParams,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
    scratch: &mut [SolveScratch],
) {
    let grid = WindowGrid::partition(design, p.tx, p.ty, p.bw_sites, p.bh_rows);
    let sets = grid.diagonal_sets();
    metrics.incr(Counter::DistOptPasses);
    metrics.add(Counter::DistOptRounds, sets.len() as u64);

    // Build occupancy once per pass; rounds patch it incrementally.
    let mut rowmap = RowMap::build(design);
    metrics.incr(Counter::RowMapBuilds);
    let pairs = PairIndex::build(design, cfg);

    for set in &sets {
        let windows: Vec<Window> = set.iter().map(|&i| grid.windows[i]).collect();
        metrics.record_gauge(SchedGauge::QueueHighWater, windows.len() as u64);
        let outcomes = Round {
            design,
            rowmap: &rowmap,
            pairs: &pairs,
            windows: &windows,
            p,
            cfg,
            metrics,
        }
        .solve(scratch);
        metrics.timed(Stage::Commit, || {
            let span_moves = commit(design, outcomes, metrics);
            if !span_moves.is_empty() {
                let patched = rowmap.patch_moves(&span_moves);
                metrics.add(Counter::RowMapRowsPatched, patched as u64);
            }
        });
        debug_assert!(
            rowmap.consistent_with(design),
            "incremental occupancy diverged from the placement"
        );
    }

    debug_assert!(
        design.validate_placement().is_ok(),
        "DistOpt produced an illegal placement"
    );
}

/// Commits a round's outcomes in window-index order on the calling
/// thread, which emits every deterministic counter. Returns the span
/// moves that patch the occupancy index (flips keep their span).
fn commit(
    design: &mut Design,
    outcomes: Vec<WindowOutcome>,
    metrics: &MetricsHandle,
) -> Vec<SpanMove> {
    let mut span_moves = Vec::new();
    for outcome in outcomes {
        if outcome.visited {
            metrics.incr(Counter::WindowsVisited);
        }
        metrics.add(Counter::BatchesSolved, outcome.batches_solved as u64);
        if !outcome.moves.is_empty() {
            metrics.incr(Counter::WindowsImproved);
        }
        for (inst, cand) in outcome.moves {
            let (site, row, orient) = {
                let i = design.inst(inst);
                (i.site, i.row, i.orient)
            };
            if (site, row, orient) == (cand.site, cand.row, cand.orient) {
                continue; // solvers record only real changes; guard anyway
            }
            metrics.incr(Counter::CellsChanged);
            if (site, row) != (cand.site, cand.row) {
                let w = design.library().cell(design.inst(inst).cell).width_sites;
                span_moves.push(SpanMove {
                    inst,
                    old_row: row,
                    new_row: cand.row,
                    new_start: cand.site,
                    new_end: cand.site + w,
                });
            }
            design.move_inst(inst, cand.site, cand.row, cand.orient);
        }
    }
    span_moves
}

/// What happened inside one window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WindowOutcome {
    /// Moves to commit: only cells whose placement actually changed
    /// (unchanged candidates of a changed batch are *not* recorded — they
    /// are not moves, and recording them would churn occupancy and break
    /// incremental `RowMap` patching).
    pub(crate) moves: Vec<(InstId, Candidate)>,
    /// Whether the window contained any movable cell.
    pub(crate) visited: bool,
    /// Batches handed to a window solver.
    pub(crate) batches_solved: usize,
}

/// Solves one window (with batching); returns the moves to commit plus
/// batch accounting for the metrics layer.
#[expect(
    clippy::too_many_arguments,
    reason = "the per-window inputs of a round worker"
)]
pub(crate) fn solve_one_window(
    design: &Design,
    rowmap: &RowMap,
    pairs: &PairIndex,
    win: Window,
    p: &DistOptParams,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
    scratch: &mut SolveScratch,
) -> WindowOutcome {
    let mut overrides = Overrides::new();
    WindowProblem::movable_in_window_into(design, rowmap, &win, &overrides, scratch);
    // Take the buffer out so `scratch` stays available for the per-batch
    // problem construction; returned before exit to keep its capacity.
    let movable = std::mem::take(&mut scratch.movable);
    let mut outcome = WindowOutcome {
        moves: Vec::new(),
        visited: !movable.is_empty(),
        batches_solved: 0,
    };
    for batch in movable.chunks(cfg.max_cells_per_milp.max(1)) {
        let prob = metrics.timed(Stage::WindowBuild, || {
            WindowProblem::build_with_scratch(
                design, rowmap, pairs, win, batch, p.lx, p.ly, p.flip, cfg, &overrides, scratch,
            )
        });
        outcome.batches_solved += 1;
        let assign = metrics.timed(Stage::WindowSolve, || solve_window(&prob, cfg, metrics));
        if assign == prob.current_assign() {
            continue;
        }
        for (cell, &k) in prob.cells.iter().zip(&assign) {
            if k == cell.current {
                continue; // cell kept its placement — not a move
            }
            let cand = cell.cands[k];
            overrides.insert(cell.inst, cand);
            outcome.moves.push((cell.inst, cand));
        }
    }
    scratch.movable = movable;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculate_obj;
    use std::sync::Arc;
    use vm1_geom::rng::SplitMix64;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_obs::{MetricsReport, Telemetry};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    fn setup(arch: CellArch, n: usize, seed: u64) -> (Design, Vm1Config) {
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

    /// One pass on `cfg.threads` workers, as the session runs it;
    /// returns the pass's telemetry.
    fn pass(d: &mut Design, p: &DistOptParams, cfg: &Vm1Config) -> MetricsReport {
        let t = Arc::new(Telemetry::new());
        let mut scratch: Vec<SolveScratch> = (0..cfg.threads.max(1))
            .map(|_| SolveScratch::new())
            .collect();
        dist_opt_impl(d, p, cfg, &MetricsHandle::of(t.clone()), &mut scratch);
        t.report()
    }

    fn params(d: &Design) -> DistOptParams {
        DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: (d.sites_per_row / 3).max(10),
            bh_rows: (d.num_rows / 3).max(2),
            lx: 3,
            ly: 1,
            flip: false,
        }
    }

    #[test]
    fn distopt_improves_objective_and_stays_legal() {
        let (mut d, cfg) = setup(CellArch::ClosedM1, 250, 1);
        let before = calculate_obj(&d, &cfg);
        let p = params(&d);
        let r = pass(&mut d, &p, &cfg);
        let after = calculate_obj(&d, &cfg);
        d.validate_placement().expect("legal after DistOpt");
        assert!(after.value <= before.value + 1e-6);
        assert!(r.counter(Counter::WindowsImproved) > 0);
        assert!(r.counter(Counter::DistOptRounds) > 0);
        // The optimizer's purpose: more alignments.
        assert!(after.alignments >= before.alignments);
    }

    #[test]
    fn distopt_openm1_improves_overlaps() {
        let (mut d, cfg) = setup(CellArch::OpenM1, 250, 2);
        let before = calculate_obj(&d, &cfg);
        let p = params(&d);
        let _ = pass(&mut d, &p, &cfg);
        let after = calculate_obj(&d, &cfg);
        d.validate_placement().unwrap();
        assert!(after.value <= before.value + 1e-6);
        assert!(after.alignments >= before.alignments);
    }

    #[test]
    fn flip_only_pass_preserves_positions() {
        let (mut d, cfg) = setup(CellArch::ClosedM1, 200, 3);
        let positions: Vec<(i64, i64)> = d.insts().map(|(_, i)| (i.site, i.row)).collect();
        let p = DistOptParams {
            lx: 0,
            ly: 0,
            flip: true,
            ..params(&d)
        };
        let _ = pass(&mut d, &p, &cfg);
        for ((_, inst), before) in d.insts().zip(positions) {
            assert_eq!((inst.site, inst.row), before, "flip-only must not move");
        }
        d.validate_placement().unwrap();
    }

    /// Placement and every counter after one pass on the
    /// 200-instance seed-`seed` design at `threads` threads.
    fn pass_snapshot(seed: u64, threads: usize) -> (Vec<(i64, i64, bool)>, Vec<u64>) {
        let (mut d, cfg) = setup(CellArch::ClosedM1, 200, seed);
        let p = params(&d);
        let r = pass(&mut d, &p, &cfg.with_threads(threads));
        let placement = d
            .insts()
            .map(|(_, i)| (i.site, i.row, i.orient.is_flipped()))
            .collect();
        let counters = Counter::ALL.iter().map(|&c| r.counter(c)).collect();
        (placement, counters)
    }

    #[test]
    fn deterministic_across_runs() {
        // Counters track algorithmic events only, so a repeated run must
        // reproduce every one of them exactly (stage *times* may differ).
        let first = pass_snapshot(4, 2);
        assert_eq!(pass_snapshot(4, 2), first);
        let counter = |c: Counter| first.1[c as usize];
        assert!(counter(Counter::BatchesSolved) > 0);
        assert!(counter(Counter::DfsNodes) > 0, "default solver is DFS");
        assert!(counter(Counter::RowMapBuilds) > 0);
    }

    #[test]
    fn sched_policies_and_thread_counts_bit_identical() {
        // Placements AND counters must be invariant under the thread
        // count, i.e. under which worker solves which window.
        let reference = pass_snapshot(6, 1);
        for threads in [2, 4] {
            assert_eq!(pass_snapshot(6, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn round_outcomes_independent_of_solve_order() {
        // Workers claim windows in whatever order the schedule gives
        // them. Solving one round's windows forward, reversed and
        // shuffled must give the same outcomes, and committing them the
        // same placement and counters.
        let (base, cfg) = setup(CellArch::ClosedM1, 250, 8);
        let p = params(&base);
        let rm = RowMap::build(&base);
        let pairs = PairIndex::build(&base, &cfg);
        let grid = WindowGrid::partition(&base, p.tx, p.ty, p.bw_sites, p.bh_rows);
        let set = grid
            .diagonal_sets()
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap();
        let n = set.len();
        assert!(n > 2, "round too small to reorder");
        let forward: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let mut shuffled = forward.clone();
        SplitMix64::new(3).shuffle(&mut shuffled);
        let mut reference = None;
        for order in [forward, reversed, shuffled] {
            let t = Arc::new(Telemetry::new());
            let metrics = MetricsHandle::of(t.clone());
            let mut scratch = SolveScratch::new();
            let mut slots: Vec<Option<WindowOutcome>> = vec![None; n];
            for &k in &order {
                let win = grid.windows[set[k]];
                slots[k] = Some(solve_one_window(
                    &base,
                    &rm,
                    &pairs,
                    win,
                    &p,
                    &cfg,
                    &metrics,
                    &mut scratch,
                ));
            }
            let outcomes: Vec<WindowOutcome> = slots.into_iter().flatten().collect();
            let mut d = base.clone();
            let _ = commit(&mut d, outcomes.clone(), &metrics);
            let placement: Vec<(i64, i64, bool)> = d
                .insts()
                .map(|(_, i)| (i.site, i.row, i.orient.is_flipped()))
                .collect();
            let r = t.report();
            let counters: Vec<u64> = Counter::ALL.iter().map(|&c| r.counter(c)).collect();
            match &reference {
                None => {
                    assert!(outcomes.iter().any(|o| !o.moves.is_empty()), "no moves");
                    reference = Some((outcomes, placement, counters));
                }
                Some((o0, p0, c0)) => {
                    assert_eq!(&outcomes, o0, "order {order:?}");
                    assert_eq!(&placement, p0, "order {order:?}");
                    assert_eq!(&counters, c0, "order {order:?}");
                }
            }
        }
    }

    #[test]
    fn outcome_moves_are_real_changes() {
        // Regression: `solve_one_window` used to record every cell of a
        // changed batch as a move, including cells that kept their
        // placement. Every recorded move must differ from the design.
        let (d, cfg) = setup(CellArch::ClosedM1, 250, 7);
        let p = params(&d);
        let rm = RowMap::build(&d);
        let pairs = PairIndex::build(&d, &cfg);
        let grid = WindowGrid::partition(&d, p.tx, p.ty, p.bw_sites, p.bh_rows);
        let metrics = MetricsHandle::disabled();
        let mut scratch = SolveScratch::new();
        let mut moves_seen = 0usize;
        for &win in &grid.windows {
            let out = solve_one_window(&d, &rm, &pairs, win, &p, &cfg, &metrics, &mut scratch);
            for (inst, cand) in &out.moves {
                let i = d.inst(*inst);
                assert_ne!(
                    (i.site, i.row, i.orient),
                    (cand.site, cand.row, cand.orient),
                    "recorded move must change the placement"
                );
                moves_seen += 1;
            }
        }
        assert!(moves_seen > 0, "test design must produce some moves");
    }

    #[test]
    fn hpwl_cannot_explode() {
        // With α = 0 the optimizer is purely HPWL-driven and must not make
        // wirelength worse.
        let (mut d, cfg) = setup(CellArch::ClosedM1, 200, 5);
        let cfg = cfg.with_alpha(0.0);
        let before = d.total_hpwl();
        let p = params(&d);
        let _ = pass(&mut d, &p, &cfg);
        assert!(d.total_hpwl() <= before);
    }
}
