//! The [`Vm1Optimizer`] session — Algorithm 1 (`VM1Opt`) behind a
//! builder-style API that owns the configuration, the per-worker solve
//! buffers, and the metrics sinks.
//!
//! For each parameter set `u` in the queue `U`, the loop alternates a
//! *perturbation* `DistOpt` (positions within `±lx/±ly`, no flips) with a
//! *flip* `DistOpt` (orientations only) — the paper found this serial
//! schedule as good as, and faster than, optimizing both degrees of
//! freedom simultaneously — then shifts the window grid by half a window
//! so the next iteration can optimize the previous boundary regions. The
//! inner loop stops when the normalized objective improvement drops below
//! θ (1 %).
//!
//! Every run records into a run-local [`Telemetry`] sink (kept as
//! [`Vm1Optimizer::last_report`]) plus any user sinks attached with
//! [`Vm1Optimizer::with_metrics`]; [`OptStats`] is a view over those
//! counters, so the session and the report can never disagree.

use crate::audit::debug_checkpoint;
use crate::distopt::{dist_opt_impl, DistOptParams, DistOptStats};
use crate::objective::{calculate_obj, Objective};
use crate::problem::SolveScratch;
use crate::Vm1Config;
use std::sync::Arc;
use vm1_netlist::Design;
use vm1_obs::timer::Stopwatch;
use vm1_obs::{
    Counter, MetricsHandle, MetricsReport, MetricsSink, Stage, Telemetry, TrajectoryPoint,
};
use vm1_place::{DisplacementBounds, PlacementSnapshot};

/// Statistics of one optimizer run — a view over the run's telemetry
/// counters plus the objective snapshots taken before and after.
#[derive(Clone, Debug, Default)]
#[must_use = "dropping optimizer statistics usually means a result went unchecked"]
pub struct OptStats {
    /// Objective before optimization.
    pub initial_obj: f64,
    /// Objective after optimization.
    pub final_obj: f64,
    /// HPWL before (nm).
    pub initial_hpwl: i64,
    /// HPWL after (nm).
    pub final_hpwl: i64,
    /// Σ d_pq before.
    pub initial_alignments: usize,
    /// Σ d_pq after.
    pub final_alignments: usize,
    /// Inner iterations executed over all parameter sets.
    pub iterations: usize,
    /// Total cells moved or flipped.
    pub cells_changed: usize,
    /// Wall-clock runtime in milliseconds.
    pub runtime_ms: u64,
}

impl OptStats {
    /// Builds the stats view from a run's telemetry report and its
    /// boundary objective snapshots.
    pub fn from_report(r: &MetricsReport, initial: &Objective, fin: &Objective) -> OptStats {
        OptStats {
            initial_obj: initial.value,
            final_obj: fin.value,
            initial_hpwl: initial.hpwl.nm(),
            final_hpwl: fin.hpwl.nm(),
            initial_alignments: initial.alignments,
            final_alignments: fin.alignments,
            iterations: r.counter(Counter::Iterations) as usize,
            cells_changed: r.counter(Counter::CellsChanged) as usize,
            runtime_ms: (r.stage_nanos(Stage::Vm1Opt) / 1_000_000),
        }
    }
}

/// A reusable optimization session: configuration + per-worker solve
/// buffers + metrics sinks.
///
/// ```
/// use std::sync::Arc;
/// use vm1_core::{ParamSet, Vm1Config, Vm1Optimizer};
/// use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
/// use vm1_obs::Telemetry;
/// use vm1_place::{place, PlaceConfig};
/// use vm1_tech::{CellArch, Library};
///
/// let lib = Library::synthetic_7nm(CellArch::ClosedM1);
/// let mut d = GeneratorConfig::profile(DesignProfile::M0)
///     .with_insts(120)
///     .generate(&lib, 1);
/// place(&mut d, &PlaceConfig::default(), 1);
/// let cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(4.0, 3, 1)]);
/// let sink = Arc::new(Telemetry::new());
/// let mut opt = Vm1Optimizer::new(cfg).with_metrics(sink.clone());
/// let stats = opt.run(&mut d);
/// assert!(stats.final_obj <= stats.initial_obj + 1e-6);
/// assert_eq!(
///     sink.report().counter(vm1_obs::Counter::Iterations) as usize,
///     stats.iterations
/// );
/// ```
#[derive(Debug)]
pub struct Vm1Optimizer {
    cfg: Vm1Config,
    user_metrics: MetricsHandle,
    last_report: Option<MetricsReport>,
    /// One reusable solve buffer per window worker (`cfg.threads`).
    scratch: Vec<SolveScratch>,
}

impl Vm1Optimizer {
    /// Creates a session.
    #[must_use]
    pub fn new(cfg: Vm1Config) -> Vm1Optimizer {
        let scratch = (0..cfg.threads.max(1))
            .map(|_| SolveScratch::new())
            .collect();
        Vm1Optimizer {
            cfg,
            user_metrics: MetricsHandle::disabled(),
            last_report: None,
            scratch,
        }
    }

    /// Attaches a metrics sink; may be called repeatedly to fan out.
    #[must_use]
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Vm1Optimizer {
        self.user_metrics = self.user_metrics.and(sink);
        self
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &Vm1Config {
        &self.cfg
    }

    /// Telemetry report of the most recent [`Self::run`] /
    /// [`Self::run_pass`] (counters, stage times, objective trajectory).
    #[must_use]
    pub fn last_report(&self) -> Option<&MetricsReport> {
        self.last_report.as_ref()
    }

    /// Runs the full vertical-M1 detailed-placement optimization
    /// (Algorithm 1) on `design` with the queue `cfg.sequence`.
    ///
    /// The placement is modified in place and stays legal; returns run
    /// statistics.
    pub fn run(&mut self, design: &mut Design) -> OptStats {
        let start = Stopwatch::start();
        let telemetry = Arc::new(Telemetry::new());
        let metrics = self.user_metrics.and(telemetry.clone());
        let cfg = &self.cfg;
        let scratch = &mut self.scratch;
        let tech = design.library().tech();
        let site = tech.site_width.nm() as f64;
        let row = tech.row_height.nm() as f64;

        let initial = metrics.timed(Stage::ObjectiveEval, || calculate_obj(design, cfg));
        let mut cur = initial;

        for (ui, u) in cfg.sequence.iter().enumerate() {
            metrics.incr(Counter::ParamSets);
            let bw_sites = ((u.bw_um * 1000.0 / site).round() as i64).max(4);
            let bh_rows = ((u.bh_um * 1000.0 / row).round() as i64).max(1);
            let mut tx = 0i64;
            let mut ty = 0i64;
            let mut d_obj = f64::INFINITY;
            let mut inner = 0usize;
            metrics.record_point(TrajectoryPoint {
                param_set: ui,
                iteration: 0,
                objective: cur.value,
                hpwl_nm: cur.hpwl.nm(),
                alignments: cur.alignments,
            });
            while d_obj >= cfg.theta && inner < cfg.max_inner_iters {
                let pre_obj = cur.value;
                // Perturbation pass (f = 0): each cell may move at most
                // ±lx sites / ±ly rows, which the debug checkpoint below
                // verifies against a pre-pass snapshot.
                let snap = cfg!(debug_assertions).then(|| PlacementSnapshot::capture(design));
                let perturb = DistOptParams {
                    tx,
                    ty,
                    bw_sites,
                    bh_rows,
                    lx: u.lx,
                    ly: u.ly,
                    flip: false,
                };
                metrics.timed(Stage::Perturb, || {
                    dist_opt_impl(design, &perturb, cfg, &metrics, scratch);
                });
                if let Some(snap) = &snap {
                    debug_checkpoint(
                        design,
                        snap,
                        Some(DisplacementBounds {
                            dx_sites: u.lx,
                            dy_rows: u.ly,
                        }),
                        &metrics,
                        "after perturb pass",
                    );
                }
                // Flip pass (f = 1, no displacement).
                let snap = cfg!(debug_assertions).then(|| PlacementSnapshot::capture(design));
                let flip = DistOptParams {
                    tx,
                    ty,
                    bw_sites,
                    bh_rows,
                    lx: 0,
                    ly: 0,
                    flip: true,
                };
                metrics.timed(Stage::Flip, || {
                    dist_opt_impl(design, &flip, cfg, &metrics, scratch);
                });
                if let Some(snap) = &snap {
                    debug_checkpoint(
                        design,
                        snap,
                        Some(DisplacementBounds {
                            dx_sites: 0,
                            dy_rows: 0,
                        }),
                        &metrics,
                        "after flip pass",
                    );
                }
                // Window shift: expose the previous boundary regions.
                tx = (tx + bw_sites / 2).rem_euclid(bw_sites);
                ty = (ty + (bh_rows / 2).max(1)).rem_euclid(bh_rows.max(1));

                cur = metrics.timed(Stage::ObjectiveEval, || calculate_obj(design, cfg));
                let denom = pre_obj.abs().max(1.0);
                d_obj = (pre_obj - cur.value) / denom;
                inner += 1;
                metrics.incr(Counter::Iterations);
                metrics.record_point(TrajectoryPoint {
                    param_set: ui,
                    iteration: inner,
                    objective: cur.value,
                    hpwl_nm: cur.hpwl.nm(),
                    alignments: cur.alignments,
                });
            }
        }

        // Final checkpoint: the objective's claimed Σ d_pq must match an
        // independent recount on the final placement.
        debug_assert_eq!(
            crate::audit::recount_alignments(design, cfg),
            cur.alignments,
            "objective dM1 bookkeeping diverged from the placement"
        );

        metrics.record_time(Stage::Vm1Opt, start.elapsed_nanos());
        let report = telemetry.report();
        let mut stats = OptStats::from_report(&report, &initial, &cur);
        stats.runtime_ms = start.elapsed_ms();
        self.last_report = Some(report);
        stats
    }

    /// Runs a single `DistOpt` pass (Algorithm 2) through the session —
    /// the session's sinks apply, and [`Self::last_report`] is
    /// replaced with this pass's telemetry.
    pub fn run_pass(&mut self, design: &mut Design, p: &DistOptParams) -> DistOptStats {
        let telemetry = Arc::new(Telemetry::new());
        let metrics = self.user_metrics.and(telemetry.clone());
        dist_opt_impl(design, p, &self.cfg, &metrics, &mut self.scratch);
        let report = telemetry.report();
        let stats = DistOptStats::from_report(&report);
        self.last_report = Some(report);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamSet;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    fn setup(arch: CellArch, n: usize, seed: u64) -> Design {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        d
    }

    use vm1_netlist::Design;

    #[test]
    fn vm1opt_closedm1_increases_alignments() {
        let mut d = setup(CellArch::ClosedM1, 250, 1);
        let cfg = crate::Vm1Config::closedm1().with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let stats = Vm1Optimizer::new(cfg).run(&mut d);
        d.validate_placement().expect("legal after VM1Opt");
        assert!(stats.final_obj <= stats.initial_obj + 1e-6);
        assert!(
            stats.final_alignments > stats.initial_alignments,
            "alignments {} -> {}",
            stats.initial_alignments,
            stats.final_alignments
        );
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn vm1opt_openm1_works() {
        let mut d = setup(CellArch::OpenM1, 250, 2);
        let cfg = crate::Vm1Config::openm1().with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let stats = Vm1Optimizer::new(cfg).run(&mut d);
        d.validate_placement().unwrap();
        assert!(stats.final_alignments >= stats.initial_alignments);
    }

    #[test]
    fn zero_alpha_reduces_to_wirelength_optimizer() {
        let mut d = setup(CellArch::ClosedM1, 200, 3);
        let cfg = crate::Vm1Config::closedm1()
            .with_alpha(0.0)
            .with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let stats = Vm1Optimizer::new(cfg).run(&mut d);
        assert!(stats.final_hpwl <= stats.initial_hpwl);
    }

    #[test]
    fn multi_set_sequence_runs_all_sets() {
        let mut d = setup(CellArch::ClosedM1, 150, 4);
        let cfg = crate::Vm1Config::closedm1()
            .with_sequence(vec![ParamSet::new(2.0, 2, 1), ParamSet::new(4.0, 2, 0)]);
        let mut opt = Vm1Optimizer::new(cfg);
        let stats = opt.run(&mut d);
        d.validate_placement().unwrap();
        assert!(stats.iterations >= 2, "at least one iteration per set");
        let report = opt.last_report().expect("run leaves a report");
        assert_eq!(report.counter(Counter::ParamSets), 2);
        assert_eq!(
            report.counter(Counter::Iterations) as usize,
            stats.iterations
        );
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::ParamSet;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_netlist::Design;
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    fn setup(seed: u64) -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(220)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        d
    }

    #[test]
    fn instrumented_run_is_bit_identical_to_uninstrumented() {
        // Attaching sinks must observe, never perturb: the placement and
        // every counter must match a run with no user sink attached.
        let mut d_plain = setup(14);
        let mut d_inst = d_plain.clone();
        let cfg = crate::Vm1Config::closedm1().with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let mut plain = Vm1Optimizer::new(cfg.clone());
        let s_plain = plain.run(&mut d_plain);
        let sink = Arc::new(Telemetry::new());
        let s_inst = Vm1Optimizer::new(cfg.clone())
            .with_metrics(sink.clone())
            .run(&mut d_inst);
        for ((_, a), (_, b)) in d_plain.insts().zip(d_inst.insts()) {
            assert_eq!((a.site, a.row, a.orient), (b.site, b.row, b.orient));
        }
        assert_eq!(s_plain.final_obj, s_inst.final_obj);
        assert_eq!(s_plain.cells_changed, s_inst.cells_changed);
        let (r_plain, r_inst) = (plain.last_report().unwrap(), sink.report());
        for c in Counter::ALL {
            assert_eq!(
                r_plain.counter(c),
                r_inst.counter(c),
                "counter {}",
                c.name()
            );
        }
        assert_eq!(r_plain.trajectory().len(), r_inst.trajectory().len());

        // The user sink accumulates across passes, and each pass's stats
        // view is built from the very same counters: they cannot disagree.
        let sink = Arc::new(Telemetry::new());
        let mut opt = Vm1Optimizer::new(cfg).with_metrics(sink.clone());
        let p = DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: 62,
            bh_rows: 8,
            lx: 3,
            ly: 1,
            flip: false,
        };
        let total_changed: usize = (0..3)
            .map(|_| opt.run_pass(&mut d_plain, &p).cells_changed)
            .sum();
        assert!(total_changed > 0, "passes must change some cells");
        assert_eq!(
            sink.report().counter(Counter::CellsChanged) as usize,
            total_changed
        );
    }
}
