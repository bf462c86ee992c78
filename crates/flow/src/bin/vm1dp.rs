//! `vm1dp` — command-line front end to the vertical-M1 detailed placement
//! flow, operating on VM1DEF files.
//!
//! ```text
//! vm1dp gen    --profile aes --arch closedm1 --scale 0.03 --seed 42 -o design.def
//! vm1dp opt    -i design.def --arch closedm1 --alpha 1200 -o optimized.def \
//!              --solver dfs --metrics-out metrics.json --audit
//! vm1dp report -i optimized.def --arch closedm1
//! vm1dp audit  -i optimized.def --arch closedm1
//! ```
//!
//! `--metrics-out` exports the run's telemetry (solver counters, stage
//! wall times, objective trajectory; for `report`, the route and analysis
//! stage times and the route counters); the format follows the file
//! extension (`.csv` → CSV, anything else → JSON).
//!
//! `audit` (or `--audit` on `gen`/`opt`, applied to the result) checks
//! the placement invariants and recounts dM1 independently of the
//! objective, and exits with a structured code:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | audit clean                               |
//! | 1    | I/O or runtime error                      |
//! | 2    | usage error                               |
//! | 3    | placement invariant violation             |
//! | 4    | dM1 recount disagrees with the objective  |
//! | 6    | solve certificate rejected by the checker |
//!
//! When several classes fail, the smallest failing code wins; code 5 is
//! unused. `opt` checks the input placement before optimizing and exits
//! 3 if it is illegal (a cell off the core or two cells overlapping).
//!
//! Standard output may be closed early (`vm1dp opt … | head -3`): the
//! command then stops printing but still writes its `-o` and
//! `--metrics-out` files and exits with its usual code.
//!
//! `opt --audit --solver milp` runs the MILP engine in proof-carrying
//! mode: every window solve records a branch-and-bound certificate that
//! the independent exact-arithmetic checker (`vm1-certify`) replays
//! before the assignment is committed.

use std::fmt;
use std::io::{self, Write};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vm1_core::{SolverKind, Vm1Config, Vm1Optimizer};
use vm1_flow::route_with;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::io::{read_def, write_def};
use vm1_netlist::Design;
use vm1_obs::{Counter, MetricsHandle, Stage, Telemetry};
use vm1_place::{greedy_refine, place, PlaceConfig};
use vm1_route::RouterConfig;
use vm1_tech::{CellArch, Library};
use vm1_timing::{analyze, min_clock_period, power};

/// Set once standard output reports a broken pipe; later output is
/// dropped. Relaxed suffices: the flag publishes no other data.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to standard output without panicking: after a broken pipe
/// the rest of the output is dropped, and any other write error exits 1.
fn write_stdout(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("missing subcommand")
    };
    let opts = Opts::parse(&args[1..]);
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "opt" => cmd_opt(&opts),
        "report" => cmd_report(&opts),
        "audit" => cmd_audit(&opts),
        "--help" | "-h" => usage(""),
        other => usage(&format!("unknown subcommand {other}")),
    }
}

struct Opts {
    profile: DesignProfile,
    arch: CellArch,
    scale: f64,
    seed: u64,
    alpha: f64,
    solver: Option<SolverKind>,
    threads: Option<usize>,
    input: Option<String>,
    output: Option<String>,
    metrics_out: Option<String>,
    audit: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            profile: DesignProfile::Aes,
            arch: CellArch::ClosedM1,
            scale: 0.03,
            seed: 42,
            alpha: f64::NAN,
            solver: None,
            threads: None,
            input: None,
            output: None,
            metrics_out: None,
            audit: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                    .clone()
            };
            match a.as_str() {
                "--profile" => {
                    o.profile = match val("--profile").as_str() {
                        "m0" => DesignProfile::M0,
                        "aes" => DesignProfile::Aes,
                        "jpeg" => DesignProfile::Jpeg,
                        "vga" => DesignProfile::Vga,
                        other => usage(&format!("unknown profile {other}")),
                    }
                }
                "--arch" => {
                    o.arch = match val("--arch").as_str() {
                        "closedm1" => CellArch::ClosedM1,
                        "openm1" => CellArch::OpenM1,
                        "conv12t" => CellArch::Conv12T,
                        other => usage(&format!("unknown arch {other}")),
                    }
                }
                "--scale" => {
                    o.scale = val("--scale")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --scale"));
                }
                "--seed" => {
                    o.seed = val("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --seed"));
                }
                "--alpha" => {
                    o.alpha = val("--alpha")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --alpha"));
                }
                "--solver" => {
                    o.solver = Some(match val("--solver").as_str() {
                        "dfs" => SolverKind::Dfs,
                        "milp" => SolverKind::Milp,
                        other => usage(&format!("unknown solver {other}")),
                    });
                }
                "--threads" => {
                    let t: usize = val("--threads")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --threads"));
                    if t == 0 {
                        usage("--threads must be positive");
                    }
                    o.threads = Some(t);
                }
                "-i" | "--input" => o.input = Some(val("-i")),
                "-o" | "--output" => o.output = Some(val("-o")),
                "--metrics-out" => o.metrics_out = Some(val("--metrics-out")),
                "--audit" => o.audit = true,
                other => usage(&format!("unknown option {other}")),
            }
        }
        o
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: vm1dp <gen|opt|report|audit> [--profile m0|aes|jpeg|vga] [--arch closedm1|openm1|conv12t]\n\
         \x20            [--scale F] [--seed N] [--alpha F] [--solver dfs|milp]\n\
         \x20            [--threads N]\n\
         \x20            [-i FILE] [-o FILE] [--metrics-out FILE(.json|.csv)] [--audit]\n\
         \n\
         --threads sets how many windows of a round are solved in parallel\n\
         (default: the host's available parallelism); results are\n\
         bit-identical for every thread count (only wall-clock and the\n\
         scheduler gauges in --metrics-out change).\n\
         \n\
         opt --audit --solver milp replays every window solve through the\n\
         exact-arithmetic certificate checker.\n\
         \n\
         audit exit codes (smallest failing class wins; opt also exits 3 on\n\
         an illegal input placement):\n\
         \x20  0 clean   1 I/O error   2 usage   3 placement violation\n\
         \x20  4 dM1 recount mismatch   6 solve certificate rejected"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}

fn library(arch: CellArch) -> Library {
    Library::synthetic_7nm(arch)
}

fn load(opts: &Opts) -> Design {
    let path = opts
        .input
        .as_deref()
        .unwrap_or_else(|| usage("-i required"));
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(1);
    });
    read_def(&text, &library(opts.arch)).unwrap_or_else(|e| {
        eprintln!("error: cannot parse {path}: {e}");
        exit(1);
    })
}

/// [`load`], then exits 3 unless the placement is legal: the optimizer
/// assumes every cell in the core and no two cells overlapping.
fn load_placed(opts: &Opts) -> Design {
    let design = load(opts);
    let report = vm1_place::verify_placement(&design, None, None, &MetricsHandle::disabled());
    if !report.is_clean() {
        eprint!(
            "error: illegal input placement ({} violations):\n{}",
            report.violations().len(),
            report.summary()
        );
        exit(3);
    }
    design
}

fn save(design: &Design, opts: &Opts) {
    let path = opts
        .output
        .as_deref()
        .unwrap_or_else(|| usage("-o required"));
    std::fs::write(path, write_def(design)).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        exit(1);
    });
    outln!("wrote {path}");
}

/// The paper's configuration for `--arch` (OpenM1, else ClosedM1) with
/// `--alpha` applied.
fn base_config(opts: &Opts) -> Vm1Config {
    let cfg = match opts.arch {
        CellArch::OpenM1 => Vm1Config::openm1(),
        _ => Vm1Config::closedm1(),
    };
    if opts.alpha.is_nan() {
        cfg
    } else {
        cfg.with_alpha(opts.alpha)
    }
}

/// Runs the static audit on `design` and returns the process exit code:
/// 0 clean, 3 placement invariant violation, 4 dM1 recount mismatch
/// (smallest failing class wins). Findings are printed and recorded
/// through `metrics`.
fn run_audit(design: &Design, opts: &Opts, metrics: &MetricsHandle) -> i32 {
    let report = vm1_core::audit_design(design, &base_config(opts), metrics);
    outln!(
        "audit placement : {} checks, {} violations",
        report.placement.checks(),
        report.placement.violations().len()
    );
    outln!(
        "audit dM1       : recount {} vs objective {} ({})",
        report.recounted_dm1,
        report.reported_dm1,
        if report.dm1_consistent() {
            "consistent"
        } else {
            "MISMATCH"
        }
    );
    if !report.is_clean() {
        out!("{}", report.summary());
    }

    if !report.placement.is_clean() {
        3
    } else if !report.dm1_consistent() {
        4
    } else {
        outln!("audit clean");
        0
    }
}

fn write_metrics_out(report: &vm1_obs::MetricsReport, opts: &Opts) {
    if let Some(path) = &opts.metrics_out {
        let payload = if path.ends_with(".csv") {
            report.to_csv()
        } else {
            report.to_json()
        };
        std::fs::write(path, payload).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            exit(1);
        });
        outln!("wrote {path}");
    }
}

fn cmd_gen(opts: &Opts) {
    let lib = library(opts.arch);
    let mut design = GeneratorConfig::profile(opts.profile)
        .with_scale(opts.scale)
        .generate(&lib, opts.seed);
    place(&mut design, &PlaceConfig::default(), opts.seed);
    let _refine = greedy_refine(&mut design, 3, 2);
    if let Err(e) = design.validate_placement() {
        eprintln!("error: the placer left an illegal placement: {e}");
        exit(1);
    }
    outln!(
        "generated {}: {} instances, {} nets, {} rows x {} sites",
        design.name(),
        design.num_insts(),
        design.num_nets(),
        design.num_rows,
        design.sites_per_row
    );
    save(&design, opts);
    if opts.audit {
        let code = run_audit(&design, opts, &MetricsHandle::disabled());
        if code != 0 {
            exit(code);
        }
    }
}

fn cmd_audit(opts: &Opts) {
    let design = load(opts);
    let sink = Arc::new(Telemetry::new());
    let metrics = MetricsHandle::of(sink.clone());
    let code = run_audit(&design, opts, &metrics);
    write_metrics_out(&sink.report(), opts);
    exit(code);
}

/// Prints the proof-carrying-solve counters and returns the structured
/// exit code for them: 0 when every recorded certificate verified, 6
/// when the exact-arithmetic checker rejected at least one.
fn cert_code(report: &vm1_obs::MetricsReport) -> i32 {
    let recorded = report.counter(Counter::CertRecorded);
    let verified = report.counter(Counter::CertVerified);
    let rejected = report.counter(Counter::CertRejected);
    if recorded > 0 {
        outln!(
            "certify: {recorded} certificates recorded, {verified} verified, {rejected} REJECTED"
        );
    }
    if rejected > 0 {
        6
    } else {
        0
    }
}

fn cmd_opt(opts: &Opts) {
    let mut design = load_placed(opts);
    let mut cfg = base_config(opts);
    if let Some(kind) = opts.solver {
        cfg = cfg.with_solver(kind);
    }
    if let Some(t) = opts.threads {
        cfg = cfg.with_threads(t);
    }
    // Under --audit, MILP window solves run in proof-carrying mode: each
    // one is certified by vm1-certify before the assignment commits.
    cfg = cfg.with_certify(opts.audit);
    let sink = Arc::new(Telemetry::new());
    let stats = Vm1Optimizer::new(cfg)
        .with_metrics(sink.clone())
        .run(&mut design);
    outln!(
        "objective {:.0} -> {:.0}; alignments {} -> {}; HPWL {} -> {} nm; {} cells changed in {} ms",
        stats.initial_obj,
        stats.final_obj,
        stats.initial_alignments,
        stats.final_alignments,
        stats.initial_hpwl,
        stats.final_hpwl,
        stats.cells_changed,
        stats.runtime_ms
    );
    let audit_code = if opts.audit {
        run_audit(&design, opts, &MetricsHandle::of(sink.clone()))
    } else {
        0
    };
    let report = sink.report();
    let cert = cert_code(&report);
    out!("{}", vm1_flow::format_metrics_summary(&report));
    write_metrics_out(&report, opts);
    save(&design, opts);
    if audit_code != 0 {
        exit(audit_code);
    }
    if cert != 0 {
        exit(cert);
    }
}

/// Routes and times the design and prints the summary. `--metrics-out`
/// gets the route and analysis stage times and the route counters.
fn cmd_report(opts: &Opts) {
    let design = load(opts);
    let sink = Arc::new(Telemetry::new());
    let metrics = MetricsHandle::of(sink.clone());
    let r = route_with(&design, &RouterConfig::default(), &metrics);
    let timing_error = |e: vm1_timing::TimingError| -> ! {
        eprintln!("error: cannot time {}: {e}", design.name());
        exit(1);
    };
    let (clock, t, p) = metrics.timed(Stage::Analysis, || {
        let clock = min_clock_period(&design, Some(&r)).unwrap_or_else(|e| timing_error(e)) * 1.02;
        let t = analyze(&design, Some(&r), clock).unwrap_or_else(|e| timing_error(e));
        (clock, t, power(&design, Some(&r), clock))
    });
    outln!(
        "design    : {} ({} insts, {} nets)",
        design.name(),
        design.num_insts(),
        design.num_nets()
    );
    outln!("HPWL      : {:.1} um", design.total_hpwl().to_um());
    outln!("routed WL : {:.1} um", r.metrics.routed_wl.to_um());
    outln!("M1 WL     : {:.1} um", r.metrics.m1_wl().to_um());
    outln!("#dM1      : {}", r.metrics.num_dm1);
    outln!("#via12    : {}", r.metrics.via12());
    outln!("#DRV      : {}", r.metrics.drvs);
    outln!("clock     : {clock:.1} ps (calibrated)");
    outln!("WNS       : {:.3} ns", t.wns_ns_paper());
    outln!("power     : {:.3} mW", p.total_mw());
    write_metrics_out(&sink.report(), opts);
}
