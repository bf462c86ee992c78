//! Observability layer for the vm1dp solver stack.
//!
//! The DAC 2017 flow is a multi-stage metaheuristic (`VM1Opt` → `DistOpt`
//! → window MILP → branch-and-bound → simplex). This crate provides the
//! measurement layer that makes its run-time behaviour visible without
//! perturbing it:
//!
//! * [`MetricsSink`] — the recording trait: monotonic counters
//!   ([`Counter`]), per-stage wall-clock timers ([`Stage`]) and an
//!   objective-trajectory recorder ([`TrajectoryPoint`]);
//! * [`Telemetry`] — the standard in-memory sink: lock-free atomic
//!   counters, atomic stage accumulators, a mutexed trajectory;
//! * [`MetricsHandle`] — a cheap, cloneable fan-out handle threaded
//!   through every solver layer. A disabled handle (the default) holds no
//!   sinks: every record call is an inlineable empty-slice check, so
//!   uninstrumented runs pay nothing;
//! * [`MetricsReport`] — an owned snapshot with JSON/CSV export (the
//!   schema is documented in the workspace DESIGN.md §"Observability").
//!
//! Counter values are *deterministic* for a fixed seed and configuration:
//! they count algorithmic events (nodes, pivots, windows, batches),
//! never wall-clock artefacts. Stage times are the only nondeterministic
//! quantity and are kept separate from the counters.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vm1_obs::{Counter, MetricsHandle, Stage, Telemetry};
//!
//! let sink = Arc::new(Telemetry::new());
//! let metrics = MetricsHandle::of(sink.clone());
//! metrics.add(Counter::WindowsImproved, 3);
//! metrics.timed(Stage::WindowSolve, || { /* solve */ });
//! let report = sink.report();
//! assert_eq!(report.counter(Counter::WindowsImproved), 3);
//! assert!(report.to_json().contains("windows_improved"));
//! ```

#![warn(missing_docs)]

pub mod timer;

use crate::timer::Stopwatch;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Monotonic event counters, one per instrumented quantity of the solver
/// stack. The discriminant indexes the fixed-size counter arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Branch-and-bound nodes whose LP relaxation was solved (`vm1-milp`).
    BbNodes,
    /// Branch-and-bound nodes pruned without an LP solve (bound or
    /// infeasibility cut-off).
    BbNodesPruned,
    /// LP relaxations solved (node LPs plus rounding-heuristic LPs).
    LpSolves,
    /// Simplex pivots (basis changes and bound flips) over all LP solves.
    SimplexPivots,
    /// Variable-bound tightenings applied by the MILP root presolve.
    PresolveTightenings,
    /// Constraints proven redundant by the MILP root presolve.
    PresolveRedundantRows,
    /// MILP solves that fell back to the incumbent (no solution found).
    MilpFallbacks,
    /// Branch-and-bound solves stopped at the node limit (`max_nodes`);
    /// such a solve returns its best incumbent, which need not be
    /// optimal.
    MilpLimitHit,
    /// Nodes explored by the exact DFS window solver.
    DfsNodes,
    /// DFS window solves cut short by the node budget (`max_nodes`);
    /// such a solve returns its best assignment so far, which need not
    /// be optimal.
    DfsBudgetExhausted,
    /// Windows visited that contained at least one movable cell.
    WindowsVisited,
    /// Windows whose solve produced at least one cell move or flip.
    WindowsImproved,
    /// Window batches handed to a window solver.
    BatchesSolved,
    /// Cells moved or flipped by committed window solutions.
    CellsChanged,
    /// `DistOpt` parallel rounds executed (= diagonal sets processed).
    DistOptRounds,
    /// `DistOpt` passes executed (perturbation and flip passes).
    DistOptPasses,
    /// Occupancy indexes built from scratch (one per `DistOpt` pass; the
    /// rounds within a pass patch the index incrementally instead).
    RowMapBuilds,
    /// Occupancy-index rows patched incrementally from committed moves
    /// (instead of rebuilding the whole index).
    RowMapRowsPatched,
    /// Inner iterations of Algorithm 1 over all parameter sets.
    Iterations,
    /// Parameter sets of the optimization sequence processed.
    ParamSets,
    /// dM1 recount mismatches found by `core::audit` (the independent
    /// recount of Σ d_pq disagreeing with the objective's count).
    AuditErrors,
    /// Placement invariants checked by `place::verify` /
    /// `core::audit` checkpoint runs.
    AuditPlacementChecks,
    /// Placement invariant violations found by checkpoint runs.
    AuditPlacementViolations,
    /// Branch-and-bound solves that recorded an optimality/infeasibility
    /// certificate (`vm1_milp::solve_certified`).
    CertRecorded,
    /// Certificates accepted by the exact-arithmetic checker
    /// (`vm1-certify`).
    CertVerified,
    /// Certificates rejected by the exact-arithmetic checker.
    CertRejected,
    /// A* maze searches run by the router (`vm1-route`), every
    /// bounding-box attempt included.
    RouteSearches,
    /// Heap entries popped by the router's maze searches.
    RouteHeapPops,
    /// Maze searches retried with a wider box (×4, then the whole grid)
    /// after failing in the smaller one.
    RouteBboxWidenings,
    /// Edge usage beyond capacity left by the router: its DRVs less the
    /// charge for unrouted subnets.
    RouteOverflow,
    /// Subnets the router left unrouted.
    RouteUnrouted,
}

impl Counter {
    /// Every counter, in discriminant order.
    pub const ALL: [Counter; 31] = [
        Counter::BbNodes,
        Counter::BbNodesPruned,
        Counter::LpSolves,
        Counter::SimplexPivots,
        Counter::PresolveTightenings,
        Counter::PresolveRedundantRows,
        Counter::MilpFallbacks,
        Counter::MilpLimitHit,
        Counter::DfsNodes,
        Counter::DfsBudgetExhausted,
        Counter::WindowsVisited,
        Counter::WindowsImproved,
        Counter::BatchesSolved,
        Counter::CellsChanged,
        Counter::DistOptRounds,
        Counter::DistOptPasses,
        Counter::RowMapBuilds,
        Counter::RowMapRowsPatched,
        Counter::Iterations,
        Counter::ParamSets,
        Counter::AuditErrors,
        Counter::AuditPlacementChecks,
        Counter::AuditPlacementViolations,
        Counter::CertRecorded,
        Counter::CertVerified,
        Counter::CertRejected,
        Counter::RouteSearches,
        Counter::RouteHeapPops,
        Counter::RouteBboxWidenings,
        Counter::RouteOverflow,
        Counter::RouteUnrouted,
    ];

    /// Stable snake_case name used as the JSON/CSV key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::BbNodes => "bb_nodes",
            Counter::BbNodesPruned => "bb_nodes_pruned",
            Counter::LpSolves => "lp_solves",
            Counter::SimplexPivots => "simplex_pivots",
            Counter::PresolveTightenings => "presolve_tightenings",
            Counter::PresolveRedundantRows => "presolve_redundant_rows",
            Counter::MilpFallbacks => "milp_fallbacks",
            Counter::MilpLimitHit => "milp_limit_hit",
            Counter::DfsNodes => "dfs_nodes",
            Counter::DfsBudgetExhausted => "dfs_budget_exhausted",
            Counter::WindowsVisited => "windows_visited",
            Counter::WindowsImproved => "windows_improved",
            Counter::BatchesSolved => "batches_solved",
            Counter::CellsChanged => "cells_changed",
            Counter::DistOptRounds => "distopt_rounds",
            Counter::DistOptPasses => "distopt_passes",
            Counter::RowMapBuilds => "rowmap_builds",
            Counter::RowMapRowsPatched => "rowmap_rows_patched",
            Counter::Iterations => "iterations",
            Counter::ParamSets => "param_sets",
            Counter::AuditErrors => "audit_errors",
            Counter::AuditPlacementChecks => "audit_placement_checks",
            Counter::AuditPlacementViolations => "audit_placement_violations",
            Counter::CertRecorded => "cert_recorded",
            Counter::CertVerified => "cert_verified",
            Counter::CertRejected => "cert_rejected",
            Counter::RouteSearches => "route_searches",
            Counter::RouteHeapPops => "route_heap_pops",
            Counter::RouteBboxWidenings => "route_bbox_widenings",
            Counter::RouteOverflow => "route_overflow",
            Counter::RouteUnrouted => "route_unrouted",
        }
    }
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Wall-clock-timed stages of the flow. Stage times recorded from worker
/// threads accumulate (they report total thread-time, not elapsed time);
/// stages recorded on the driving thread are true wall-clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Whole `VM1Opt` run (Algorithm 1).
    Vm1Opt,
    /// Perturbation `DistOpt` passes (`f = 0`).
    Perturb,
    /// Flip `DistOpt` passes (`f = 1`).
    Flip,
    /// Global objective evaluations between iterations.
    ObjectiveEval,
    /// Window-problem construction, one per batch (accumulated across
    /// worker threads).
    WindowBuild,
    /// Window-batch solves (accumulated across worker threads).
    WindowSolve,
    /// Serial commit of each `DistOpt` round's window outcomes plus the
    /// incremental occupancy-index patch (driving thread).
    Commit,
    /// MILP model construction (accumulated across worker threads).
    MilpBuild,
    /// MILP branch-and-bound solves (accumulated across worker threads).
    MilpSolve,
    /// Routing passes of the measurement flow.
    Route,
    /// STA + power analysis of the measurement flow.
    Analysis,
    /// Static audits: placement invariant verification and the dM1
    /// recount (checkpoints and explicit `--audit` runs).
    Audit,
    /// Exact-arithmetic certificate verification (`vm1-certify` replay
    /// of recorded branch-and-bound certificates).
    Certify,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 13] = [
        Stage::Vm1Opt,
        Stage::Perturb,
        Stage::Flip,
        Stage::ObjectiveEval,
        Stage::WindowBuild,
        Stage::WindowSolve,
        Stage::Commit,
        Stage::MilpBuild,
        Stage::MilpSolve,
        Stage::Route,
        Stage::Analysis,
        Stage::Audit,
        Stage::Certify,
    ];

    /// Stable snake_case name used as the JSON/CSV key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Vm1Opt => "vm1opt",
            Stage::Perturb => "perturb",
            Stage::Flip => "flip",
            Stage::ObjectiveEval => "objective_eval",
            Stage::WindowBuild => "window_build",
            Stage::WindowSolve => "window_solve",
            Stage::Commit => "commit",
            Stage::MilpBuild => "milp_build",
            Stage::MilpSolve => "milp_solve",
            Stage::Route => "route",
            Stage::Analysis => "analysis",
            Stage::Audit => "audit",
            Stage::Certify => "certify",
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler gauges
// ---------------------------------------------------------------------------

/// How a gauge combines concurrent recordings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaugeAgg {
    /// Recordings add up (e.g. tasks executed).
    Sum,
    /// Only the largest recording is kept (e.g. high-water marks).
    Max,
}

/// Scheduler observability gauges of the `DistOpt` round workers.
/// Unlike [`Counter`] values, gauges are **scheduling-dependent**:
/// per-worker task counts and busy times vary run to run and with the
/// thread count, so they are kept out of the counter determinism
/// contract (determinism tests compare counters, never gauges).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SchedGauge {
    /// Largest number of window tasks enqueued for a single round
    /// (queue-depth high-water mark).
    QueueHighWater,
    /// Window tasks executed by the round workers (including the inline
    /// single-thread path).
    TasksExecuted,
    /// Total busy time over all workers, in nanoseconds (time spent
    /// executing window tasks, excluding queue waits).
    WorkerBusyNanos,
    /// Busy time of the single busiest worker in one round, in
    /// nanoseconds. Compared against `WorkerBusyNanos / threads`, this
    /// exposes load imbalance: equal values mean one worker did all the
    /// work, matching values near the mean indicate a balanced round.
    WorkerBusyMaxNanos,
}

impl SchedGauge {
    /// Every gauge, in discriminant order.
    pub const ALL: [SchedGauge; 4] = [
        SchedGauge::QueueHighWater,
        SchedGauge::TasksExecuted,
        SchedGauge::WorkerBusyNanos,
        SchedGauge::WorkerBusyMaxNanos,
    ];

    /// Stable snake_case name used as the JSON/CSV key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedGauge::QueueHighWater => "sched_queue_high_water",
            SchedGauge::TasksExecuted => "sched_tasks_executed",
            SchedGauge::WorkerBusyNanos => "sched_worker_busy_ns",
            SchedGauge::WorkerBusyMaxNanos => "sched_worker_busy_max_ns",
        }
    }

    /// How recordings of this gauge combine.
    #[must_use]
    pub fn agg(self) -> GaugeAgg {
        match self {
            SchedGauge::QueueHighWater | SchedGauge::WorkerBusyMaxNanos => GaugeAgg::Max,
            SchedGauge::TasksExecuted | SchedGauge::WorkerBusyNanos => GaugeAgg::Sum,
        }
    }
}

// ---------------------------------------------------------------------------
// Trajectory
// ---------------------------------------------------------------------------

/// One point of the objective trajectory: the state after an inner
/// iteration of Algorithm 1 (iteration 0 is the initial state).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Index of the parameter set in the optimization sequence `U`.
    pub param_set: usize,
    /// Inner-iteration number within the parameter set (0 = before the
    /// first pass of the set).
    pub iteration: usize,
    /// Objective (1)/(10) value.
    pub objective: f64,
    /// Total HPWL in nm.
    pub hpwl_nm: i64,
    /// Vertically alignable pin pairs (Σ d_pq).
    pub alignments: usize,
}

// ---------------------------------------------------------------------------
// Sink trait + standard sink
// ---------------------------------------------------------------------------

/// A metrics recorder. Implementations must be thread-safe: the solver
/// stack records from parallel window workers.
///
/// All methods have empty default bodies so partial sinks (e.g. a
/// counters-only logger) stay terse.
pub trait MetricsSink: Send + Sync + fmt::Debug {
    /// Adds `delta` to `counter`.
    fn add(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }
    /// Accumulates `nanos` of wall-clock time into `stage`.
    fn record_time(&self, stage: Stage, nanos: u64) {
        let _ = (stage, nanos);
    }
    /// Appends one objective-trajectory point.
    fn record_point(&self, point: TrajectoryPoint) {
        let _ = point;
    }
    /// Records one scheduler gauge sample (combined per
    /// [`SchedGauge::agg`]).
    fn record_gauge(&self, gauge: SchedGauge, value: u64) {
        let _ = (gauge, value);
    }
}

/// The standard in-memory sink: atomic counters, atomic per-stage time
/// accumulators, and a trajectory vector.
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: [AtomicU64; Counter::ALL.len()],
    stage_nanos: [AtomicU64; Stage::ALL.len()],
    stage_calls: [AtomicU64; Stage::ALL.len()],
    gauges: [AtomicU64; SchedGauge::ALL.len()],
    trajectory: Mutex<Vec<TrajectoryPoint>>,
}

impl Telemetry {
    /// Creates an empty telemetry sink.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Current value of one counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Accumulated nanoseconds of one stage.
    #[must_use]
    pub fn stage_nanos(&self, s: Stage) -> u64 {
        self.stage_nanos[s as usize].load(Ordering::Relaxed)
    }

    /// Current value of one scheduler gauge.
    #[must_use]
    pub fn gauge(&self, g: SchedGauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Takes an owned snapshot of everything recorded so far.
    ///
    /// Trajectory points recorded by a thread that panicked mid-push are
    /// still returned: lock poisoning is ignored (the vector is always in
    /// a consistent state because `push` is the only mutation).
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: Counter::ALL.map(|c| self.counter(c)),
            stage_nanos: Stage::ALL.map(|s| self.stage_nanos(s)),
            stage_calls: Stage::ALL.map(|s| self.stage_calls[s as usize].load(Ordering::Relaxed)),
            gauges: SchedGauge::ALL.map(|g| self.gauge(g)),
            trajectory: self
                .trajectory
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        }
    }
}

impl MetricsSink for Telemetry {
    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn record_time(&self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        self.stage_calls[stage as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn record_point(&self, point: TrajectoryPoint) {
        self.trajectory
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(point);
    }

    fn record_gauge(&self, gauge: SchedGauge, value: u64) {
        let cell = &self.gauges[gauge as usize];
        match gauge.agg() {
            GaugeAgg::Sum => {
                cell.fetch_add(value, Ordering::Relaxed);
            }
            GaugeAgg::Max => {
                cell.fetch_max(value, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// Cheap, cloneable fan-out handle over zero or more sinks.
///
/// The disabled handle (default) is an empty slice: every record method
/// reduces to one branch, so instrumentation left in hot paths costs
/// nothing when nobody listens.
#[derive(Clone, Debug, Default)]
pub struct MetricsHandle {
    sinks: Arc<[Arc<dyn MetricsSink>]>,
}

impl MetricsHandle {
    /// The disabled handle: records nothing.
    #[must_use]
    pub fn disabled() -> MetricsHandle {
        MetricsHandle::default()
    }

    /// A handle over one sink.
    #[must_use]
    pub fn of(sink: Arc<dyn MetricsSink>) -> MetricsHandle {
        MetricsHandle {
            sinks: Arc::from(vec![sink]),
        }
    }

    /// A handle fanning out to this handle's sinks plus `sink`.
    #[must_use]
    pub fn and(&self, sink: Arc<dyn MetricsSink>) -> MetricsHandle {
        let mut sinks: Vec<Arc<dyn MetricsSink>> = self.sinks.to_vec();
        sinks.push(sink);
        MetricsHandle {
            sinks: Arc::from(sinks),
        }
    }

    /// Adds `delta` to `counter` on every sink.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        for s in self.sinks.iter() {
            s.add(counter, delta);
        }
    }

    /// Increments `counter` by one on every sink.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Accumulates stage time on every sink.
    #[inline]
    pub fn record_time(&self, stage: Stage, nanos: u64) {
        for s in self.sinks.iter() {
            s.record_time(stage, nanos);
        }
    }

    /// Appends a trajectory point on every sink.
    #[inline]
    pub fn record_point(&self, point: TrajectoryPoint) {
        for s in self.sinks.iter() {
            s.record_point(point);
        }
    }

    /// Records a scheduler gauge sample on every sink.
    #[inline]
    pub fn record_gauge(&self, gauge: SchedGauge, value: u64) {
        for s in self.sinks.iter() {
            s.record_gauge(gauge, value);
        }
    }

    /// Runs `f`, charging its wall-clock time to `stage`. When the handle
    /// is disabled no clock is read at all.
    #[inline]
    pub fn timed<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if self.sinks.is_empty() {
            return f();
        }
        let sw = Stopwatch::start();
        let out = f();
        self.record_time(stage, sw.elapsed_nanos());
        out
    }
}

// ---------------------------------------------------------------------------
// Report + export
// ---------------------------------------------------------------------------

/// Owned snapshot of a [`Telemetry`] sink.
#[derive(Clone, Debug, Default, PartialEq)]
#[must_use = "a metrics report is only useful if it is exported or read"]
pub struct MetricsReport {
    counters: [u64; Counter::ALL.len()],
    stage_nanos: [u64; Stage::ALL.len()],
    stage_calls: [u64; Stage::ALL.len()],
    gauges: [u64; SchedGauge::ALL.len()],
    trajectory: Vec<TrajectoryPoint>,
}

impl MetricsReport {
    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Accumulated time of one stage, in nanoseconds.
    #[must_use]
    pub fn stage_nanos(&self, s: Stage) -> u64 {
        self.stage_nanos[s as usize]
    }

    /// Accumulated time of one stage, in milliseconds.
    #[must_use]
    pub fn stage_ms(&self, s: Stage) -> f64 {
        self.stage_nanos(s) as f64 / 1e6
    }

    /// Number of times one stage was recorded.
    #[must_use]
    pub fn stage_calls(&self, s: Stage) -> u64 {
        self.stage_calls[s as usize]
    }

    /// Value of one scheduler gauge. Gauges are scheduling-dependent (see
    /// [`SchedGauge`]) and excluded from counter determinism comparisons.
    #[must_use]
    pub fn gauge(&self, g: SchedGauge) -> u64 {
        self.gauges[g as usize]
    }

    /// The recorded objective trajectory, in recording order.
    #[must_use]
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// Whether every window solve of the run was exact: no DFS search
    /// stopped at its node budget, no MILP solve stopped at its node
    /// limit or fell back to the input placement, and no certificate was
    /// rejected. Derived from counters only, so deterministic.
    #[must_use]
    pub fn all_exact(&self) -> bool {
        [
            Counter::DfsBudgetExhausted,
            Counter::MilpLimitHit,
            Counter::MilpFallbacks,
            Counter::CertRejected,
        ]
        .into_iter()
        .all(|c| self.counter(c) == 0)
    }

    /// Estimated parallel utilization of the window workers: total
    /// thread-time spent solving windows divided by the wall-clock of the
    /// `DistOpt` passes. 1.0 ≈ one core busy; values near the thread
    /// count indicate full parallel occupancy. `None` when nothing was
    /// timed.
    #[must_use]
    pub fn parallel_utilization(&self) -> Option<f64> {
        let wall = self.stage_nanos(Stage::Perturb) + self.stage_nanos(Stage::Flip);
        if wall == 0 {
            return None;
        }
        Some(self.stage_nanos(Stage::WindowSolve) as f64 / wall as f64)
    }

    /// Serializes the report as a self-contained JSON object (schema:
    /// DESIGN.md §"Observability").
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str(&format!(
            "\n  }},\n  \"exact\": {},\n  \"stages_ms\": {{",
            self.all_exact()
        ));
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"ms\": {}, \"calls\": {}}}",
                s.name(),
                json_f64(self.stage_ms(*s)),
                self.stage_calls(*s)
            ));
        }
        out.push_str("\n  },\n  \"scheduler\": {");
        for (i, g) in SchedGauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", g.name(), self.gauge(*g)));
        }
        out.push_str("\n  },\n  \"parallel_utilization\": ");
        match self.parallel_utilization() {
            Some(u) => out.push_str(&json_f64(u)),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"trajectory\": [");
        for (i, p) in self.trajectory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"param_set\": {}, \"iteration\": {}, \"objective\": {}, \"hpwl_nm\": {}, \"alignments\": {}}}",
                p.param_set,
                p.iteration,
                json_f64(p.objective),
                p.hpwl_nm,
                p.alignments
            ));
        }
        if !self.trajectory.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Serializes counters, the exactness verdict (`exact,1|0`) and stage
    /// times as `key,value` CSV lines (counters in raw units, stages in
    /// milliseconds).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for c in Counter::ALL {
            out.push_str(&format!("{},{}\n", c.name(), self.counter(c)));
        }
        out.push_str(&format!("exact,{}\n", u8::from(self.all_exact())));
        for s in Stage::ALL {
            out.push_str(&format!("{}_ms,{}\n", s.name(), json_f64(self.stage_ms(s))));
        }
        for g in SchedGauge::ALL {
            out.push_str(&format!("{},{}\n", g.name(), self.gauge(g)));
        }
        out
    }
}

/// Formats a float as valid JSON (non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_is_cheap() {
        let h = MetricsHandle::disabled();
        h.add(Counter::BbNodes, 5);
        let out = h.timed(Stage::Vm1Opt, || 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn telemetry_accumulates_counters_and_times() {
        let t = Arc::new(Telemetry::new());
        let h = MetricsHandle::of(t.clone());
        h.add(Counter::SimplexPivots, 10);
        h.add(Counter::SimplexPivots, 5);
        h.incr(Counter::WindowsVisited);
        h.record_time(Stage::Route, 2_000_000);
        h.record_point(TrajectoryPoint {
            param_set: 0,
            iteration: 1,
            objective: -3.5,
            hpwl_nm: 1000,
            alignments: 7,
        });
        let r = t.report();
        assert_eq!(r.counter(Counter::SimplexPivots), 15);
        assert_eq!(r.counter(Counter::WindowsVisited), 1);
        assert_eq!(r.stage_nanos(Stage::Route), 2_000_000);
        assert_eq!(r.stage_calls(Stage::Route), 1);
        assert!((r.stage_ms(Stage::Route) - 2.0).abs() < 1e-9);
        assert_eq!(r.trajectory().len(), 1);
        assert_eq!(r.trajectory()[0].alignments, 7);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(Telemetry::new());
        let b = Arc::new(Telemetry::new());
        let h = MetricsHandle::of(a.clone()).and(b.clone());
        h.add(Counter::BbNodes, 3);
        assert_eq!(a.counter(Counter::BbNodes), 3);
        assert_eq!(b.counter(Counter::BbNodes), 3);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = Arc::new(Telemetry::new());
        let h = MetricsHandle::of(t.clone());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.incr(Counter::DfsNodes);
                    }
                });
            }
        });
        assert_eq!(t.counter(Counter::DfsNodes), 8000);
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let t = Telemetry::new();
        t.add(Counter::BbNodes, 12);
        t.record_time(Stage::MilpSolve, 1_500_000);
        t.record_point(TrajectoryPoint {
            param_set: 0,
            iteration: 0,
            objective: 123.25,
            hpwl_nm: 9,
            alignments: 2,
        });
        let json = t.report().to_json();
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())), "{}", c.name());
        }
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", s.name())), "{}", s.name());
        }
        for g in SchedGauge::ALL {
            assert!(json.contains(&format!("\"{}\"", g.name())), "{}", g.name());
        }
        assert!(json.contains("\"bb_nodes\": 12"));
        assert!(json.contains("\"objective\": 123.25"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_export_has_one_line_per_metric() {
        let t = Telemetry::new();
        let csv = t.report().to_csv();
        let lines = csv.lines().count();
        assert_eq!(
            lines,
            2 + Counter::ALL.len() + Stage::ALL.len() + SchedGauge::ALL.len()
        );
        assert!(csv.starts_with("metric,value\n"));
    }

    #[test]
    fn exactness_verdict_reads_every_limit_counter() {
        assert!(Telemetry::new().report().all_exact());
        for c in [
            Counter::DfsBudgetExhausted,
            Counter::MilpLimitHit,
            Counter::MilpFallbacks,
            Counter::CertRejected,
        ] {
            let t = Telemetry::new();
            t.add(Counter::DfsNodes, 5);
            assert!(t.report().all_exact(), "node counts alone stay exact");
            t.add(c, 1);
            let r = t.report();
            assert!(!r.all_exact(), "{}", c.name());
            assert!(r.to_json().contains("\"exact\": false,"));
            assert!(r.to_csv().contains("\nexact,0\n"));
        }
        let r = Telemetry::new().report();
        assert!(r.to_json().contains("\"exact\": true,"));
        assert!(r.to_csv().contains("\nexact,1\n"));
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn counter_and_stage_discriminants_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        for (i, g) in SchedGauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
    }

    #[test]
    fn gauges_aggregate_by_kind() {
        let t = Arc::new(Telemetry::new());
        let h = MetricsHandle::of(t.clone());
        // Sum gauge: recordings add up.
        h.record_gauge(SchedGauge::TasksExecuted, 3);
        h.record_gauge(SchedGauge::TasksExecuted, 4);
        // Max gauge: only the high-water mark survives.
        h.record_gauge(SchedGauge::QueueHighWater, 9);
        h.record_gauge(SchedGauge::QueueHighWater, 5);
        let r = t.report();
        assert_eq!(r.gauge(SchedGauge::TasksExecuted), 7);
        assert_eq!(r.gauge(SchedGauge::QueueHighWater), 9);
        assert!(r.to_json().contains("\"sched_tasks_executed\": 7"));
        assert!(r.to_csv().contains("sched_queue_high_water,9\n"));
    }
}
