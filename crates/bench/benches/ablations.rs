//! Ablation benchmarks for the TRS-Tree's tunable design choices:
//!
//! * node fanout sensitivity,
//! * the Appendix D.2 sampling pre-check during construction,
//! * error_bound's effect on end-to-end range lookup cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hermit_storage::Tid;
use hermit_trs::{TrsParams, TrsTree};
use std::time::Duration;

fn noisy_linear(n: usize, noise_every: usize) -> Vec<(f64, f64, Tid)> {
    (0..n)
        .map(|i| {
            let m = i as f64;
            let v = if i % noise_every == 0 { 5.0e8 } else { 2.0 * m };
            (m, v, Tid(i as u64))
        })
        .collect()
}

fn sigmoid(n: usize) -> Vec<(f64, f64, Tid)> {
    (0..n)
        .map(|i| {
            let m = i as f64;
            let mid = n as f64 / 2.0;
            (m, 1.0e6 / (1.0 + (-(m - mid) / (n as f64 / 20.0)).exp()), Tid(i as u64))
        })
        .collect()
}

/// Fanout sensitivity: the paper fixes node_fanout = 8; sweep 4/8/16 on
/// sigmoid construction + lookup.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fanout");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let data = sigmoid(100_000);
    for fanout in [4usize, 8, 16] {
        let params = TrsParams { node_fanout: fanout, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("build", fanout), &data, |b, data| {
            b.iter(|| TrsTree::build(params, (0.0, 100_000.0), data.clone()))
        });
        let tree = TrsTree::build(params, (0.0, 100_000.0), data.clone());
        group.bench_function(BenchmarkId::new("point_lookup", fanout), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 1103515245 + 12345) % 100_000;
                std::hint::black_box(tree.lookup_point(i as f64))
            })
        });
    }
    group.finish();
}

/// Sampling-based outlier pre-check (Appendix D.2): construction with and
/// without the 5% sample short-circuit.
fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sampling");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let data = sigmoid(200_000);
    for (label, params) in
        [("off", TrsParams::default()), ("on", TrsParams::default().with_sampling())]
    {
        group.bench_with_input(BenchmarkId::new("build_sigmoid", label), &data, |b, data| {
            b.iter(|| TrsTree::build(params, (0.0, 200_000.0), data.clone()))
        });
    }
    group.finish();
}

/// error_bound's cost at lookup time (§6's space/computation tradeoff):
/// wider ε means wider host ranges and more false positives downstream.
fn bench_error_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_error_bound");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let data = noisy_linear(100_000, 100);
    for eb in [1.0, 100.0, 10_000.0] {
        let tree = TrsTree::build(TrsParams::with_error_bound(eb), (0.0, 100_000.0), data.clone());
        group.bench_function(BenchmarkId::new("range_width", format!("{eb}")), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 1103515245 + 12345) % 99_000;
                let r = tree.lookup(i as f64, i as f64 + 100.0);
                std::hint::black_box(r.total_range_width())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fanout, bench_sampling, bench_error_bound);
criterion_main!(benches);
