//! Testcase construction and the measure → optimize → re-route → measure
//! flow.

use crate::report::{ExperimentRow, Snapshot};
use std::sync::Arc;
use vm1_core::{calculate_obj, Vm1Config, Vm1Optimizer};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_obs::{Counter, MetricsHandle, Stage, Telemetry};
use vm1_place::{greedy_refine, place, PlaceConfig};
use vm1_route::{route, RouteResult, RouterConfig};
use vm1_tech::{CellArch, Library};
use vm1_timing::{analyze, min_clock_period, power};

/// Parameters of a testcase build.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Which of the paper's designs to emulate.
    pub profile: DesignProfile,
    /// Cell architecture / library.
    pub arch: CellArch,
    /// Instance-count scale relative to the paper (DESIGN.md §5; default
    /// 0.05).
    pub scale: f64,
    /// Core utilization (paper: 0.75 for Table 2, 0.80–0.84 for Fig. 8).
    pub utilization: f64,
    /// Seed for the generator and placer.
    pub seed: u64,
    /// Router settings.
    pub router: RouterConfig,
}

impl FlowConfig {
    /// A testcase at the default reduced scale.
    #[must_use]
    pub fn new(profile: DesignProfile, arch: CellArch) -> FlowConfig {
        FlowConfig {
            profile,
            arch,
            scale: 0.05,
            utilization: 0.75,
            seed: 42,
            router: RouterConfig::default(),
        }
    }

    /// Overrides the scale.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> FlowConfig {
        self.scale = scale;
        self
    }

    /// Overrides the utilization.
    #[must_use]
    pub fn with_utilization(mut self, util: f64) -> FlowConfig {
        self.utilization = util;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FlowConfig {
        self.seed = seed;
        self
    }
}

/// A built and initially-routed testcase.
#[derive(Clone, Debug)]
pub struct Testcase {
    /// The placed design (mutated by optimization).
    pub design: Design,
    /// Clock period (ps), calibrated so the initial design meets timing
    /// with ~2 % margin, like the paper's testcases (WNS ≈ 0 at Init).
    pub clock_ps: f64,
    /// Router settings used for every (re-)route.
    pub router: RouterConfig,
}

/// Generates, places, refines and timing-calibrates a testcase.
///
/// # Panics
///
/// Panics if the synthetic netlist contains a combinational loop or the
/// placer produced an illegal placement (neither can happen for the
/// levelized generator plus legalizing placer).
#[expect(clippy::expect_used, reason = "documented # Panics contract")]
#[must_use]
pub fn build_testcase(cfg: &FlowConfig) -> Testcase {
    let library = Library::synthetic_7nm(cfg.arch);
    let mut design = GeneratorConfig::profile(cfg.profile)
        .with_scale(cfg.scale)
        .with_utilization(cfg.utilization)
        .generate(&library, cfg.seed);
    place(&mut design, &PlaceConfig::default(), cfg.seed);
    let _refine = greedy_refine(&mut design, 3, 2);
    design.validate_placement().expect("placement is legal");

    let initial_route = route(&design, &cfg.router);
    let clock_ps = min_clock_period(&design, Some(&initial_route)).expect("acyclic netlist") * 1.02;
    Testcase {
        design,
        clock_ps,
        router: cfg.router.clone(),
    }
}

/// Routes the design and takes a full measurement snapshot.
///
/// # Panics
///
/// Panics on a cyclic netlist (cannot happen for generated designs).
#[must_use]
pub fn measure(tc: &Testcase, vm1_cfg: &Vm1Config) -> (Snapshot, RouteResult) {
    measure_with(tc, vm1_cfg, &MetricsHandle::disabled())
}

/// Routes the design, charging the pass to [`Stage::Route`] and its
/// search effort, overflow and unrouted subnets to the `Route*` counters.
#[must_use]
pub fn route_with(design: &Design, router: &RouterConfig, metrics: &MetricsHandle) -> RouteResult {
    let r = metrics.timed(Stage::Route, || route(design, router));
    metrics.add(Counter::RouteSearches, r.stats.searches);
    metrics.add(Counter::RouteHeapPops, r.stats.heap_pops);
    metrics.add(Counter::RouteBboxWidenings, r.stats.bbox_widenings);
    metrics.add(Counter::RouteOverflow, r.metrics.overflow() as u64);
    metrics.add(Counter::RouteUnrouted, r.metrics.unrouted as u64);
    r
}

/// [`measure`] with a metrics sink: the routing pass is charged as in
/// [`route_with`], the STA/power analysis to [`Stage::Analysis`].
///
/// # Panics
///
/// Panics on a cyclic netlist (cannot happen for generated designs).
#[expect(clippy::expect_used, reason = "documented # Panics contract")]
#[must_use]
pub fn measure_with(
    tc: &Testcase,
    vm1_cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> (Snapshot, RouteResult) {
    let r = route_with(&tc.design, &tc.router, metrics);
    let (timing, p) = metrics.timed(Stage::Analysis, || {
        let timing = analyze(&tc.design, Some(&r), tc.clock_ps).expect("acyclic netlist");
        let p = power(&tc.design, Some(&r), tc.clock_ps);
        (timing, p)
    });
    let obj = calculate_obj(&tc.design, vm1_cfg);
    let snap = Snapshot {
        dm1: r.metrics.num_dm1,
        m1_wl: r.metrics.m1_wl(),
        via12: r.metrics.via12(),
        hpwl: tc.design.total_hpwl(),
        rwl: r.metrics.routed_wl,
        wns_ns: timing.wns_ns_paper(),
        power_mw: p.total_mw(),
        drvs: r.metrics.drvs,
        alignments: obj.alignments,
    };
    (snap, r)
}

/// The full ExptB flow on a testcase: measure Init, run `VM1Opt`,
/// re-route, measure Final.
///
/// The whole flow is instrumented: the returned row carries the full
/// telemetry report (optimizer counters, stage times including
/// [`Stage::Route`]/[`Stage::Analysis`], and the objective trajectory).
///
/// # Panics
///
/// Panics if the optimizer leaves an illegal placement behind (the
/// optimizer's placement checkpoints catch this earlier in debug
/// builds).
#[expect(clippy::expect_used, reason = "documented # Panics contract")]
#[must_use]
pub fn optimize_and_measure(tc: &mut Testcase, vm1_cfg: &Vm1Config) -> ExperimentRow {
    let telemetry = Arc::new(Telemetry::new());
    let metrics = MetricsHandle::of(telemetry.clone());
    let (init, _) = measure_with(tc, vm1_cfg, &metrics);
    let stats = Vm1Optimizer::new(vm1_cfg.clone())
        .with_metrics(telemetry.clone())
        .run(&mut tc.design);
    tc.design
        .validate_placement()
        .expect("optimizer preserves legality");
    let (fin, _) = measure_with(tc, vm1_cfg, &metrics);
    ExperimentRow {
        design: tc.design.name().to_owned(),
        insts: tc.design.num_insts(),
        util: tc.design.utilization(),
        alpha: vm1_cfg.alpha,
        init,
        fin,
        runtime_ms: stats.runtime_ms,
        metrics: Some(telemetry.report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_core::ParamSet;

    fn tiny(arch: CellArch) -> FlowConfig {
        FlowConfig::new(DesignProfile::M0, arch)
            .with_scale(0.015)
            .with_seed(7)
    }

    #[test]
    fn build_testcase_meets_timing_at_init() {
        let tc = build_testcase(&tiny(CellArch::ClosedM1));
        let (snap, _) = measure(&tc, &Vm1Config::closedm1());
        assert_eq!(snap.wns_ns, 0.0, "calibrated clock closes timing");
        assert!(snap.rwl.nm() > 0);
        assert!(snap.power_mw > 0.0);
    }

    #[test]
    fn optimize_and_measure_improves_dm1() {
        let mut tc = build_testcase(&tiny(CellArch::ClosedM1));
        let cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let row = optimize_and_measure(&mut tc, &cfg);
        assert!(
            row.fin.dm1 >= row.init.dm1,
            "dM1 {} -> {}",
            row.init.dm1,
            row.fin.dm1
        );
        assert!(row.fin.alignments >= row.init.alignments);
        // Row renders without panicking.
        let line = row.table_line();
        assert!(line.contains("m0_like"));
    }

    #[test]
    fn openm1_flow_works() {
        let mut tc = build_testcase(&tiny(CellArch::OpenM1));
        let cfg = Vm1Config::openm1().with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
        let row = optimize_and_measure(&mut tc, &cfg);
        assert!(row.fin.alignments >= row.init.alignments);
    }
}
