//! Workspace-local stand-in for the `criterion` benchmark harness.
//!
//! The build container has no crates.io access, so this shim implements the
//! subset of criterion's API the `crates/bench` benches use — `Criterion`,
//! `benchmark_group`, `sample_size`, `measurement_time`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, and the `criterion_group!` /
//! `criterion_main!` macros — as a small but real harness: each benchmark is
//! warmed up, then timed over `sample_size` samples whose per-iteration
//! count is calibrated so a sample takes roughly
//! `measurement_time / sample_size`, and the mean/min/max per-iteration
//! times are printed. There is no statistical analysis, plotting, or
//! baseline comparison.
#![warn(clippy::allow_attributes_without_reason)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_id.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

impl From<&String> for BenchmarkId {
    fn from(s: &String) -> Self {
        BenchmarkId { id: s.clone() }
    }
}

/// Top-level harness handle; mirrors `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10, measurement_time: Duration::from_secs(1) }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let group = BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
        };
        eprintln!("== group {} ==", group.name);
        group
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let (n, t) = (self.sample_size, self.measurement_time);
        run_benchmark("", &id.into().id, n, t, f);
        self
    }

    pub fn final_summary(&self) {}
}

/// A named group of related benchmarks; mirrors `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_benchmark(&self.name, &id.into().id, self.sample_size, self.measurement_time, f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_benchmark(&self.name, &id.into().id, self.sample_size, self.measurement_time, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Passed to the measured closure; `iter` times the supplied routine.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            std::hint::black_box(routine());
        }
        self.samples.push(start.elapsed());
    }
}

/// True when the bench binary was invoked with `--quick` (CI smoke runs):
/// sample counts and measurement budgets are clamped so every target
/// executes end-to-end in a fraction of a second without pretending to
/// produce stable numbers.
fn quick_mode() -> bool {
    use std::sync::OnceLock;
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| std::env::args().any(|a| a == "--quick"))
}

fn run_benchmark(
    group: &str,
    id: &str,
    sample_size: usize,
    measurement_time: Duration,
    mut f: impl FnMut(&mut Bencher),
) {
    let (sample_size, measurement_time) = if quick_mode() {
        (2, measurement_time.min(Duration::from_millis(50)))
    } else {
        (sample_size, measurement_time)
    };
    // Calibration pass: one iteration, to size the samples.
    let mut bench = Bencher { iters_per_sample: 1, samples: Vec::new() };
    f(&mut bench);
    let per_iter = bench.samples.last().copied().unwrap_or(Duration::from_nanos(1));
    let budget_per_sample = measurement_time.as_nanos() / sample_size.max(1) as u128;
    let iters = (budget_per_sample / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let mut bench = Bencher { iters_per_sample: iters, samples: Vec::new() };
    for _ in 0..sample_size {
        f(&mut bench);
    }

    let per_iter_ns: Vec<f64> =
        bench.samples.iter().map(|d| d.as_nanos() as f64 / iters as f64).collect();
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len().max(1) as f64;
    let min = per_iter_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_iter_ns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let label = if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
    eprintln!(
        "bench {label:<50} mean {:>12} min {:>12} max {:>12} ({} samples x {} iters)",
        fmt_ns(mean),
        fmt_ns(min),
        fmt_ns(max),
        sample_size,
        iters
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Mirror of `criterion::black_box` (benches here use `std::hint::black_box`,
/// but the symbol is exported for completeness).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with `--test`; skip the actual
            // measurement there so the suite stays fast.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3).measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("shim");
        group.sample_size(2).measurement_time(Duration::from_millis(2));
        let mut calls = 0usize;
        group.bench_function("noop", |b| {
            calls += 1;
            b.iter(|| 1 + 1)
        });
        group.bench_with_input(BenchmarkId::new("with_input", 4), &4u64, |b, &x| b.iter(|| x * 2));
        group.finish();
        assert!(calls >= 2, "benchmark closure should run calibration + samples");
    }
}
