//! Produces `BENCH_distopt_sched.json`: wall-clock of one `DistOpt` pass
//! at 1 thread and at the host's available parallelism, on a
//! ~5k-instance design.
//!
//! Both thread counts must produce the same placement (asserted via
//! digest). Each row records the median and quartiles of `--iters` timed
//! passes after one untimed warm-up pass. `--baseline FILE` copies the
//! rows of an artifact this binary wrote for another build (e.g. the
//! parent commit) into the new one as `"build": "baseline"` rows, after
//! checking that its placement digest matches.
//!
//! ```text
//! cargo run --release -p vm1-bench --bin bench_distopt_sched -- \
//!     [--insts N] [--iters K] [--baseline FILE] [--out FILE]
//! ```

use vm1_bench::sched_bench::{bench_config, bench_design, bench_params, placement_digest};
use vm1_core::Vm1Optimizer;
use vm1_obs::timer::Stopwatch;

const USAGE: &str =
    "usage: bench_distopt_sched [--insts N] [--iters K] [--baseline FILE] [--out FILE]";

fn fail(msg: &str) -> ! {
    eprintln!("{USAGE}\nerror: {msg}");
    std::process::exit(2);
}

/// Linear-interpolated quantile of ascending `xs` (non-empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn main() {
    let mut insts = 5000usize;
    let mut iters = 5usize;
    let mut baseline: Option<String> = None;
    let mut out = String::from("BENCH_distopt_sched.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--insts" => {
                insts = val("--insts")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --insts"));
            }
            "--iters" => {
                iters = val("--iters")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --iters"));
            }
            "--baseline" => baseline = Some(val("--baseline")),
            "--out" => out = val("--out"),
            other => fail(&format!("unknown argument {other}")),
        }
    }
    if iters == 0 {
        fail("--iters must be positive");
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("generating {insts}-instance benchmark design...");
    let base = bench_design(insts);
    let p = bench_params(&base);

    let mut rows = Vec::new();
    let mut digest: Option<u64> = None;
    let mut thread_counts = vec![1, cores];
    thread_counts.dedup();
    for threads in thread_counts {
        let mut session = Vm1Optimizer::new(bench_config(threads));
        let mut warm = base.clone();
        let _ = session.run_pass(&mut warm, &p);
        let d0 = placement_digest(&warm);
        if digest.is_some_and(|want| want != d0) {
            eprintln!("error: {threads} threads produced a different placement");
            std::process::exit(1);
        }
        digest = Some(d0);
        let mut ms: Vec<f64> = (0..iters)
            .map(|_| {
                let mut d = base.clone();
                let t0 = Stopwatch::start();
                let _ = session.run_pass(&mut d, &p);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let (q1, med, q3) = (quantile(&ms, 0.25), quantile(&ms, 0.5), quantile(&ms, 0.75));
        eprintln!("{threads}t: median {med:.1} ms/pass, IQR {q1:.1}-{q3:.1}");
        rows.push(format!(
            "{{\"build\": \"current\", \"threads\": {threads}, \"median_ms\": {med:.2}, \
             \"q1_ms\": {q1:.2}, \"q3_ms\": {q3:.2}}}"
        ));
    }
    let digest = format!("{:#018x}", digest.unwrap_or_default());

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let theirs = text.lines().find_map(|l| {
            let rest = l.trim().strip_prefix("\"digest\": \"")?;
            Some(rest.trim_end_matches([',', '"']))
        });
        if theirs != Some(digest.as_str()) {
            fail(&format!(
                "{path} has digest {theirs:?}, this build {digest}"
            ));
        }
        let base_rows: Vec<String> = text
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter_map(|l| l.strip_prefix("{\"build\": \"current\", "))
            .map(|l| format!("{{\"build\": \"baseline\", {l}"))
            .collect();
        rows.splice(0..0, base_rows);
    }

    let mut json = String::from("{\n  \"bench\": \"distopt_sched\",\n");
    json.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"rustc\": \"{}\"}},\n",
        rustc_version()
    ));
    json.push_str(&format!(
        "  \"design\": {{\"profile\": \"aes\", \"insts\": {}, \"rows\": {}, \"sites_per_row\": {}}},\n",
        base.num_insts(),
        base.num_rows,
        base.sites_per_row
    ));
    json.push_str(&format!(
        "  \"params\": {{\"bw_sites\": {}, \"bh_rows\": {}, \"lx\": {}, \"ly\": {}, \"flip\": false}},\n",
        p.bw_sites, p.bh_rows, p.lx, p.ly
    ));
    json.push_str(&format!("  \"iters_per_config\": {iters},\n"));
    json.push_str(&format!("  \"digest\": \"{digest}\",\n"));
    json.push_str("  \"rows_ms_per_pass\": [\n    ");
    json.push_str(&rows.join(",\n    "));
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out, &json).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("wrote {out}");
}
