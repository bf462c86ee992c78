//! Window solving for one `DistOpt` round on scoped threads.
//!
//! [`Round::solve`] runs the windows of one diagonal set on
//! `min(threads, windows)` workers under [`std::thread::scope`]. The
//! calling thread is one of the workers, so a single-thread
//! configuration or a one-window round spawns nothing and runs inline.
//! Workers claim window indices from one shared atomic counter and
//! reuse the per-worker [`SolveScratch`] buffers owned by the
//! [`crate::Vm1Optimizer`] session.
//!
//! # Determinism
//!
//! Which worker solves which window never reaches the results. A window
//! outcome depends only on the round's immutable inputs (windows of one
//! diagonal set are disjoint, and the no-gain cache can never be hit by
//! a digest inserted in the same round because digests include the
//! window position), and the outcomes go back to the single committing
//! thread in window-index order. Placements and every
//! [`vm1_obs::Counter`] are therefore bit-identical for any thread
//! count; only the [`SchedGauge`] channel (busy times) is
//! scheduling-dependent.

use crate::distopt::{solve_one_window, DistOptParams, SolveCache, WindowOutcome};
use crate::problem::SolveScratch;
use crate::window::Window;
use crate::Vm1Config;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use vm1_netlist::Design;
use vm1_obs::timer::Stopwatch;
use vm1_obs::{MetricsHandle, SchedGauge};
use vm1_place::RowMap;

/// Everything one round of window solving reads, shared by reference
/// with the workers.
pub(crate) struct Round<'a> {
    /// The placement of the round (committed moves of earlier rounds).
    pub design: &'a Design,
    /// Occupancy index matching `design`.
    pub rowmap: &'a RowMap,
    /// The round's windows (one diagonal set, in window-index order).
    pub windows: &'a [Window],
    /// DistOpt parameters of the pass.
    pub p: &'a DistOptParams,
    /// Solver configuration.
    pub cfg: &'a Vm1Config,
    /// Smart window-selection cache, if enabled.
    pub cache: Option<&'a SolveCache>,
    /// Metrics fan-out of the pass.
    pub metrics: &'a MetricsHandle,
}

impl Round<'_> {
    /// Solves every window and returns the outcomes in window-index
    /// order. Runs at most one worker per `scratch` buffer; the calling
    /// thread works too, so one buffer (or one window) means no thread
    /// is spawned. A worker panic is re-raised on the calling thread
    /// with its original payload.
    pub(crate) fn solve(&self, scratch: &mut [SolveScratch]) -> Vec<WindowOutcome> {
        let workers = scratch.len().min(self.windows.len());
        let Some((own, others)) = scratch[..workers].split_first_mut() else {
            return Vec::new();
        };
        let next = &AtomicUsize::new(0);
        let mut solved = std::thread::scope(|s| {
            let handles: Vec<_> = others
                .iter_mut()
                .map(|scratch| s.spawn(move || self.work(next, scratch)))
                .collect();
            let mut solved = self.work(next, own);
            for handle in handles {
                // A bare scope would replace the payload with "a scoped
                // thread panicked"; joining keeps the original.
                match handle.join() {
                    Ok(part) => solved.extend(part),
                    Err(payload) => resume_unwind(payload),
                }
            }
            solved
        });
        solved.sort_unstable_by_key(|&(i, _)| i);
        solved.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// One worker: claims windows until none are left, then records its
    /// scheduler gauges. Returns `(window index, outcome)` pairs.
    fn work(&self, next: &AtomicUsize, scratch: &mut SolveScratch) -> Vec<(usize, WindowOutcome)> {
        let start = Stopwatch::start();
        let mut solved = Vec::new();
        loop {
            // Relaxed suffices: the counter only hands out indices, and
            // outcomes reach the caller through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&win) = self.windows.get(i) else {
                break;
            };
            let outcome = solve_one_window(
                self.design,
                self.rowmap,
                win,
                self.p,
                self.cfg,
                self.cache,
                self.metrics,
                scratch,
            );
            solved.push((i, outcome));
        }
        let busy = start.elapsed_nanos();
        let m = self.metrics;
        m.record_gauge(SchedGauge::TasksExecuted, solved.len() as u64);
        m.record_gauge(SchedGauge::WorkerBusyNanos, busy);
        m.record_gauge(SchedGauge::WorkerBusyMaxNanos, busy);
        solved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowGrid;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_obs::MetricsSink;
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    /// Panic payload of [`WorkerLog`]'s injected worker crash.
    struct WorkerCrash;

    /// Records the thread of every worker as it reports its gauges; with
    /// `crash_off_caller`, workers on spawned threads panic instead.
    #[derive(Debug)]
    struct WorkerLog {
        caller: ThreadId,
        crash_off_caller: bool,
        workers: Mutex<Vec<ThreadId>>,
    }

    impl MetricsSink for WorkerLog {
        fn record_gauge(&self, gauge: SchedGauge, _value: u64) {
            if gauge != SchedGauge::TasksExecuted {
                return;
            }
            let me = std::thread::current().id();
            if self.crash_off_caller && me != self.caller {
                std::panic::panic_any(WorkerCrash);
            }
            self.workers.lock().unwrap().push(me);
        }
    }

    /// Solves (up to `max_windows` windows of) the largest round of a
    /// small design with `threads` scratch buffers. Returns the threads
    /// that worked and the number of windows solved.
    fn run(threads: usize, max_windows: usize, crash_off_caller: bool) -> (Vec<ThreadId>, usize) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(150)
            .generate(&lib, 3);
        place(&mut d, &PlaceConfig::default(), 3);
        let p = DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: (d.sites_per_row / 4).max(10),
            bh_rows: (d.num_rows / 4).max(2),
            lx: 2,
            ly: 1,
            flip: false,
        };
        let grid = WindowGrid::partition(&d, p.tx, p.ty, p.bw_sites, p.bh_rows);
        let set = grid
            .diagonal_sets()
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap();
        let windows: Vec<Window> = set
            .iter()
            .take(max_windows)
            .map(|&i| grid.windows[i])
            .collect();
        let log = Arc::new(WorkerLog {
            caller: std::thread::current().id(),
            crash_off_caller,
            workers: Mutex::new(Vec::new()),
        });
        let rowmap = RowMap::build(&d);
        let round = Round {
            design: &d,
            rowmap: &rowmap,
            windows: &windows,
            p: &p,
            cfg: &Vm1Config::closedm1(),
            cache: None,
            metrics: &MetricsHandle::of(log.clone()),
        };
        let mut scratch: Vec<SolveScratch> = (0..threads).map(|_| SolveScratch::new()).collect();
        let outcomes = round.solve(&mut scratch);
        let workers = log.workers.lock().unwrap().clone();
        (workers, outcomes.len())
    }

    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let caller = std::thread::current().id();
        let (workers, solved) = run(1, usize::MAX, false);
        assert!(solved > 1);
        assert_eq!(workers, vec![caller], "threads=1 runs inline");
        let (workers, solved) = run(4, 1, false);
        assert_eq!(solved, 1);
        assert_eq!(workers, vec![caller], "a one-window round runs inline");
    }

    #[test]
    fn multi_thread_pool_spawns_and_joins_workers() {
        let caller = std::thread::current().id();
        let (mut workers, solved) = run(4, usize::MAX, false);
        assert!(solved >= 4, "round too small to occupy 4 workers");
        assert!(
            workers.contains(&caller),
            "the caller is one of the workers"
        );
        workers.sort_unstable_by_key(|t| format!("{t:?}"));
        workers.dedup();
        assert_eq!(workers.len(), 4, "min(threads, windows) distinct workers");
    }

    #[test]
    fn worker_panic_keeps_its_payload() {
        let crash = std::panic::catch_unwind(|| run(4, usize::MAX, true));
        let payload = crash.expect_err("a spawned worker crashed");
        assert!(payload.is::<WorkerCrash>(), "payload replaced on re-raise");
    }
}
