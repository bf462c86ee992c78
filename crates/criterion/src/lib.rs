//! Offline shim for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no network access and no registry cache, so
//! the real crate cannot be resolved. This shim reimplements the subset
//! of its API that the workspace's benches use — `criterion_group!` /
//! `criterion_main!`, `Criterion::bench_function`, benchmark groups with
//! `sample_size` / `measurement_time`, and `Bencher::iter` — with a
//! simple min/mean/max timing loop instead of criterion's statistical
//! analysis. Benches compile and produce honest wall-clock numbers; they
//! do not produce HTML reports or regression detection.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Measurement backends (only wall-clock exists in the shim).
pub mod measurement {
    /// Wall-clock time measurement.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct WallTime;
}

/// Per-benchmark timing driver handed to the `bench_function` closure.
pub struct Bencher {
    samples: usize,
    budget: Duration,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Times `f` over the configured number of samples (stopping early
    /// when the measurement-time budget runs out).
    #[expect(
        clippy::disallowed_methods,
        reason = "a benchmark timer reads the clock by design; its timings never feed results"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warmup pass.
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.timings.push(t0.elapsed());
            if start.elapsed() > self.budget {
                break;
            }
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn run_one(name: &str, samples: usize, budget: Duration, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        budget,
        timings: Vec::new(),
    };
    f(&mut b);
    if b.timings.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    let min = b.timings.iter().min().copied().unwrap_or_default();
    let max = b.timings.iter().max().copied().unwrap_or_default();
    let mean = b.timings.iter().sum::<Duration>() / b.timings.len() as u32;
    println!(
        "{name:<40} [{} {} {}]  ({} samples)",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max),
        b.timings.len()
    );
}

/// The benchmark registry/driver (shim of `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(5),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, self.measurement_time, &mut f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_, measurement::WallTime> {
        println!("group: {name}");
        BenchmarkGroup {
            name: name.to_owned(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            _criterion: self,
            _measurement: PhantomData,
        }
    }
}

/// A group of related benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a, M = measurement::WallTime> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    _criterion: &'a mut Criterion,
    _measurement: PhantomData<M>,
}

impl<M> BenchmarkGroup<'_, M> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Sets the per-benchmark measurement-time budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, name),
            self.sample_size,
            self.measurement_time,
            &mut f,
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function (shim of `criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` running the given groups (shim of
/// `criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn group_chaining_works() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3).measurement_time(Duration::from_millis(50));
        g.bench_function("noop", |b| b.iter(|| 2 * 2));
        g.finish();
    }

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert!(fmt_duration(Duration::from_nanos(500)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(500)).ends_with(" s"));
    }
}
