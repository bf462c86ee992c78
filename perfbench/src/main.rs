//! End-to-end and per-layer benchmark of the VM1Opt detailed placer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large|solver|flow> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its input designs from `--seed` (set-up, repeated and
//! timed), optimizes each input once untimed to fix the reference result,
//! then optimizes fresh copies of the inputs round-robin for `--seconds`
//! seconds, two single-threaded jobs at a time. Every optimized placement
//! is checked: it must be legal, its objective must not exceed the
//! input's, an independent recount must confirm its alignment count, and
//! it must equal the reference result bit for bit.
//!
//! Times are read from CPU-time clocks (Linux only), which leave out the
//! time the hypervisor of a shared host gives the vCPU to other tenants;
//! on two-vCPU hosts that time was about a tenth of a run and changed from
//! run to run, so wall-clock job times swung by a quarter between runs.
//! A job runs on one thread and does no I/O, so its thread CPU time is
//! the wall time it takes on a core of its own. `job_cpu_ms` is each
//! input's median job CPU time, averaged over the inputs; `setup_s` is the
//! median process CPU time of the set-up repeats. The wall-clock job time
//! is reported per layer as `job_wall_ms`.
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::os::raw::{c_int, c_long};
use std::process::ExitCode;
use std::time::Instant;
use vm1_core::{calculate_obj, recount_alignments, ParamSet, Vm1Config, Vm1Optimizer};
use vm1_flow::{optimize_and_measure, Testcase};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_obs::{Counter, MetricsReport, Stage};
use vm1_place::{greedy_refine, place, PlaceConfig};
use vm1_route::{route, RouterConfig};
use vm1_tech::{CellArch, Library};
use vm1_timing::min_clock_period;

/// One benchmark workload: which inputs to build and what a job does.
/// Every job optimizes with 5 µm windows and at most one row of vertical
/// displacement; `lx` sets the horizontal range.
struct Workload {
    name: &'static str,
    profile: DesignProfile,
    /// Instances per input design.
    insts: usize,
    /// Input designs per run; timed rounds cycle through all of them.
    designs: usize,
    /// Maximum x displacement in sites.
    lx: i64,
    /// Algorithm 1 inner iterations; the convergence test is off, so every
    /// seed does the same number of passes.
    max_inner_iters: usize,
    /// Whether a job is the whole measurement flow (route and STA before
    /// and after VM1Opt) instead of VM1Opt alone.
    flow: bool,
}

const WORKLOADS: [Workload; 3] = [
    // One perturb and one flip pass over 1.5k-instance designs with a
    // narrow range: window build and commit, whose cost per batch grows
    // with design size, take a large share of the time.
    Workload {
        name: "large",
        profile: DesignProfile::Aes,
        insts: 1500,
        designs: 8,
        lx: 1,
        max_inner_iters: 1,
        flow: false,
    },
    // One iteration of the paper's preferred (5, 4, 1) parameter set on
    // small designs: the exact DFS window search is nearly all the time.
    Workload {
        name: "solver",
        profile: DesignProfile::Jpeg,
        insts: 150,
        designs: 16,
        lx: 4,
        max_inner_iters: 1,
        flow: false,
    },
    // The paper's Table 2 flow: route and STA, three VM1Opt iterations,
    // re-route and STA. Routing is most of the time. Routing time varies
    // a lot from design to design and grows much faster than the design,
    // so many small designs keep the mean steady across seeds.
    Workload {
        name: "flow",
        profile: DesignProfile::M0,
        insts: 150,
        designs: 16,
        lx: 1,
        max_inner_iters: 3,
        flow: true,
    },
];

/// Input builders and jobs run this many at a time, each on one thread,
/// so that both cores of a two-core host are busy. Each job optimizes on
/// one thread: a job split over both cores waits at every round barrier
/// for whichever core the host slows down, so its time swung whenever
/// either core was slowed.
const THREADS: usize = 2;

/// Set-up is repeated at least this many times per run, and until it has
/// taken [`SETUP_MIN_SECONDS`] of CPU time; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 100;

/// Timed rounds are run at least this many times, even past `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn config(w: &Workload) -> Vm1Config {
    let mut cfg = Vm1Config::closedm1()
        .with_sequence(vec![ParamSet::new(5.0, w.lx, 1)])
        .with_threads(1);
    cfg.max_inner_iters = w.max_inner_iters;
    cfg.theta = f64::NEG_INFINITY;
    cfg
}

/// Generator seed of input design `k` of a run.
fn design_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64
}

/// Order-sensitive digest of a placement.
fn digest(d: &Design) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (_, i) in d.insts() {
        for v in [
            i.site as u64,
            i.row as u64,
            u64::from(i.orient.is_flipped()),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Time spent in the set-up layers, summed over a run's input designs.
#[derive(Default)]
struct SetupSpans {
    generate_s: f64,
    place_s: f64,
    route_s: f64,
}

impl SetupSpans {
    fn add(&mut self, o: &SetupSpans) {
        self.generate_s += o.generate_s;
        self.place_s += o.place_s;
        self.route_s += o.route_s;
    }
}

/// An input design with the time its set-up layers took.
type BuiltInput = Result<(Testcase, SetupSpans), String>;

/// Builds input design `k`: generate and place it, and for the flow
/// workload also refine, route and calibrate the clock like
/// `vm1_flow::build_testcase`.
fn build_input(w: &Workload, seed: u64, k: usize) -> BuiltInput {
    let library = Library::synthetic_7nm(CellArch::ClosedM1);
    let router = RouterConfig::default();
    let mut spans = SetupSpans::default();
    let s = design_seed(seed, k);
    let t = Instant::now();
    let mut design = GeneratorConfig::profile(w.profile)
        .with_insts(w.insts)
        .generate(&library, s);
    spans.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    place(&mut design, &PlaceConfig::default(), s);
    if w.flow {
        let _ = greedy_refine(&mut design, 3, 2);
    }
    spans.place_s = t.elapsed().as_secs_f64();
    design
        .validate_placement()
        .map_err(|e| format!("input design {k} is illegal: {e}"))?;
    let clock_ps = if w.flow {
        let t = Instant::now();
        let r = route(&design, &router);
        let period =
            min_clock_period(&design, Some(&r)).map_err(|e| format!("input design {k}: {e}"))?;
        spans.route_s = t.elapsed().as_secs_f64();
        period * 1.02
    } else {
        0.0
    };
    let tc = Testcase {
        design,
        clock_ps,
        router,
    };
    Ok((tc, spans))
}

/// `f(0)`, ..., `f(n - 1)` in order, computed on `workers` threads;
/// thread `t` takes items `t`, `t + workers`, ...
fn spread<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(workers)
                        .map(|k| (k, f(k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    out.sort_by_key(|(k, _)| *k);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Builds all input designs of a run, spread over [`THREADS`] threads.
fn build_inputs(w: &Workload, seed: u64, spans: &mut SetupSpans) -> Result<Vec<Testcase>, String> {
    let built = spread(w.designs, THREADS, |k| build_input(w, seed, k));
    let mut inputs = Vec::with_capacity(built.len());
    for b in built {
        let (tc, s) = b?;
        spans.add(&s);
        inputs.push(tc);
    }
    Ok(inputs)
}

/// The result of one job.
struct JobResult {
    /// Wall-clock seconds.
    seconds: f64,
    /// Seconds on the job's thread CPU clock.
    cpu_seconds: f64,
    report: Option<MetricsReport>,
    design: Design,
}

/// Optimizes a fresh copy of `input` on the calling thread; only the
/// optimizer (or, for the flow workload, the whole measure-optimize-measure
/// flow) is timed.
fn run_job(w: &Workload, cfg: &Vm1Config, input: &Testcase) -> JobResult {
    let mut tc = input.clone();
    let c = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    let t = Instant::now();
    let report = if w.flow {
        optimize_and_measure(&mut tc, cfg).metrics
    } else {
        let mut opt = Vm1Optimizer::new(cfg.clone());
        let _ = opt.run(&mut tc.design);
        opt.last_report().cloned()
    };
    JobResult {
        seconds: t.elapsed().as_secs_f64(),
        cpu_seconds: cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c,
        report,
        design: tc.design,
    }
}

/// `clockid_t` values of the Linux CPU-time clocks.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Seconds on a CPU-time clock. On Linux guests with steal-time
/// accounting these clocks stop while the hypervisor runs another tenant
/// on the vCPU, so they measure the program's own work.
fn cpu_seconds(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist on
    // every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// An input's reference result: what every timed job must reproduce.
struct Reference {
    digest: u64,
    /// Objective decrease achieved on the input.
    gain: f64,
    /// The input's HPWL, in nm.
    hpwl_in: f64,
}

/// Checks a job's placement; returns its digest when it is correct.
fn check(cfg: &Vm1Config, input: &Design, out: &Design) -> Result<u64, String> {
    out.validate_placement()
        .map_err(|e| format!("illegal placement: {e}"))?;
    let (before, after) = (calculate_obj(input, cfg), calculate_obj(out, cfg));
    if after.value > before.value + 1e-6 {
        return Err(format!(
            "objective rose {} -> {}",
            before.value, after.value
        ));
    }
    let recount = recount_alignments(out, cfg);
    if recount != after.alignments {
        return Err(format!(
            "alignment recount {recount} != objective's {}",
            after.alignments
        ));
    }
    Ok(digest(out))
}

fn counter(r: &MetricsReport, name: &str) -> f64 {
    Counter::ALL
        .iter()
        .find(|c| c.name() == name)
        .map_or(0.0, |&c| r.counter(c) as f64)
}

fn stage_s(r: &MetricsReport, name: &str) -> f64 {
    Stage::ALL
        .iter()
        .find(|s| s.name() == name)
        .map_or(0.0, |&s| r.stage_nanos(s) as f64 * 1e-9)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer sums over the timed jobs, read from each job's telemetry.
#[derive(Default)]
struct LayerSums {
    jobs: f64,
    vm1opt_s: f64,
    passes_s: f64,
    window_solve_s: f64,
    objective_eval_s: f64,
    route_s: f64,
    analysis_s: f64,
    dfs_nodes: f64,
    batches_solved: f64,
    batch_cache_hits: f64,
    windows_visited: f64,
    cells_changed: f64,
    distopt_rounds: f64,
    iterations: f64,
}

impl LayerSums {
    fn add(&mut self, r: &MetricsReport) {
        self.jobs += 1.0;
        self.vm1opt_s += stage_s(r, "vm1opt");
        self.passes_s += stage_s(r, "perturb") + stage_s(r, "flip");
        self.window_solve_s += stage_s(r, "window_solve");
        self.objective_eval_s += stage_s(r, "objective_eval");
        self.route_s += stage_s(r, "route");
        self.analysis_s += stage_s(r, "analysis");
        self.dfs_nodes += counter(r, "dfs_nodes");
        self.batches_solved += counter(r, "batches_solved");
        self.batch_cache_hits += counter(r, "batch_cache_hits");
        self.windows_visited += counter(r, "windows_visited");
        self.cells_changed += counter(r, "cells_changed");
        self.distopt_rounds += counter(r, "distopt_rounds");
        self.iterations += counter(r, "iterations");
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vm1-perfbench --workload <large|solver|flow> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let cfg = config(w);

    // Set-up: build the inputs several times; the last build is used.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut spans = SetupSpans::default();
    let mut inputs = Vec::new();
    while setup_times.len() < SETUP_MIN_REPEATS
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS
            && setup_times.len() < SETUP_MAX_REPEATS)
    {
        let c = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
        inputs = build_inputs(w, args.seed, &mut spans)?;
        setup_times.push(cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - c);
    }

    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut fail = |what: String| {
        failed += 1;
        eprintln!("check failed: {what}");
    };

    // Reference pass (untimed): fixes each input's expected result and
    // warms caches and the allocator.
    let ref_jobs = spread(inputs.len(), THREADS, |k| run_job(w, &cfg, &inputs[k]));
    let mut refs = Vec::with_capacity(inputs.len());
    for (k, (input, job)) in inputs.iter().zip(ref_jobs).enumerate() {
        attempted += 1;
        let d = match check(&cfg, &input.design, &job.design) {
            Ok(d) => d,
            Err(e) => {
                fail(format!("design {k}: {e}"));
                0
            }
        };
        let (obj_in, obj_out) = (
            calculate_obj(&input.design, &cfg),
            calculate_obj(&job.design, &cfg),
        );
        if obj_out.value >= obj_in.value {
            fail(format!("design {k}: the objective did not improve"));
        }
        refs.push(Reference {
            digest: d,
            gain: obj_in.value - obj_out.value,
            hpwl_in: obj_in.hpwl.nm() as f64,
        });
    }

    // Timed rounds over all inputs until the time budget is spent.
    let mut wall_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut cpu_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut rounds = 0;
    let mut layers = LayerSums::default();
    let start = Instant::now();
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let jobs = spread(inputs.len(), THREADS, |k| run_job(w, &cfg, &inputs[k]));
        for (k, ((input, r), job)) in inputs.iter().zip(&refs).zip(jobs).enumerate() {
            attempted += 1;
            wall_s[k].push(job.seconds);
            cpu_s[k].push(job.cpu_seconds);
            match job.report.as_ref() {
                Some(rep) => layers.add(rep),
                None => fail(format!("design {k}: no telemetry report")),
            }
            match check(&cfg, &input.design, &job.design) {
                Ok(d) if d == r.digest => {}
                Ok(_) => fail(format!("design {k}: result differs from the reference run")),
                Err(e) => fail(format!("design {k}: {e}")),
            }
        }
    }
    // Each input's median job time, averaged over the inputs.
    let cpu_medians: Vec<f64> = cpu_s.iter_mut().map(|v| median(v)).collect();
    let wall_medians: Vec<f64> = wall_s.iter_mut().map(|v| median(v)).collect();
    let job_cpu_ms = cpu_medians.iter().sum::<f64>() / inputs.len() as f64 * 1e3;
    let job_wall_ms = wall_medians.iter().sum::<f64>() / inputs.len() as f64 * 1e3;

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let l = &layers;
        let per_job = |v: f64| ratio(v, l.jobs);
        // Time of the passes outside the window solver: window build,
        // commit and occupancy patching.
        let nonsolve_s = (l.passes_s - l.window_solve_s).max(0.0);
        let batches = l.batches_solved + l.batch_cache_hits;
        let setups = setup_times.len() as f64;
        // Result quality: the objective decrease as a share of input HPWL.
        let gain: f64 = refs.iter().map(|r| r.gain).sum();
        let hpwl_in: f64 = refs.iter().map(|r| r.hpwl_in).sum();
        vec![
            ("objective_gain_pct", ratio(gain, hpwl_in) * 100.0, "%"),
            ("job_wall_ms", job_wall_ms, "ms"),
            ("generate_ms", spans.generate_s / setups * 1e3, "ms"),
            ("place_ms", spans.place_s / setups * 1e3, "ms"),
            ("setup_route_ms", spans.route_s / setups * 1e3, "ms"),
            ("vm1opt_ms", per_job(l.vm1opt_s) * 1e3, "ms"),
            ("distopt_pass_ms", per_job(l.passes_s) * 1e3, "ms"),
            ("window_solve_ms", per_job(l.window_solve_s) * 1e3, "ms"),
            ("distopt_nonsolve_ms", per_job(nonsolve_s) * 1e3, "ms"),
            ("objective_eval_ms", per_job(l.objective_eval_s) * 1e3, "ms"),
            ("route_ms", per_job(l.route_s) * 1e3, "ms"),
            ("analysis_ms", per_job(l.analysis_s) * 1e3, "ms"),
            ("iterations", per_job(l.iterations), "count"),
            ("distopt_rounds", per_job(l.distopt_rounds), "count"),
            ("windows_visited", per_job(l.windows_visited), "count"),
            ("batches_solved", per_job(l.batches_solved), "count"),
            ("batch_cache_hits", per_job(l.batch_cache_hits), "count"),
            ("dfs_nodes", per_job(l.dfs_nodes), "count"),
            ("cells_changed", per_job(l.cells_changed), "count"),
            (
                "cache_hit_ratio",
                ratio(l.batch_cache_hits, batches),
                "ratio",
            ),
            (
                "ns_per_dfs_node",
                ratio(l.window_solve_s, l.dfs_nodes) * 1e9,
                "ns",
            ),
            (
                "nonsolve_us_per_batch",
                ratio(nonsolve_s, batches) * 1e6,
                "us",
            ),
        ]
    } else {
        vec![
            ("job_cpu_ms", job_cpu_ms, "ms"),
            ("setup_s", median(&mut setup_times), "s"),
        ]
    };

    eprintln!(
        "workload {} seed {}: {} timed rounds on {} cores",
        w.name,
        args.seed,
        rounds,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    eprintln!("  job_cpu_ms {job_cpu_ms:.2}, job_wall_ms {job_wall_ms:.2}");
    for (k, ((input, r), (cpu, wall))) in inputs
        .iter()
        .zip(&refs)
        .zip(cpu_medians.iter().zip(&wall_medians))
        .enumerate()
    {
        eprintln!(
            "  input {k}: {} insts, placement digest {:016x}, median job {:.1} ms CPU, {:.1} ms wall",
            input.design.num_insts(),
            r.digest,
            cpu * 1e3,
            wall * 1e3
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}
