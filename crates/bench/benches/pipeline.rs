//! End-to-end pipeline benchmarks: Hermit vs Baseline range and point
//! lookups through the full Database executor (the Criterion counterpart
//! of Figs. 8/12; the `figures` binary prints the full sweeps).

use criterion::{criterion_group, BenchmarkId, Criterion};
use hermit_bench::harness::{proc_status_bytes, reset_peak_rss};
use hermit_core::shared::SharedDatabase;
use hermit_core::{Database, DurabilityConfig, RangePredicate};
use hermit_storage::{ColumnDef, RowLoc, Schema, TidScheme, Value};
use hermit_workloads::synthetic::{cols, served_table};
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn setup(kind: CorrelationKind, scheme: TidScheme) -> (Database, Database, SyntheticConfig) {
    let cfg = SyntheticConfig { tuples: 100_000, correlation: kind, ..Default::default() };
    let mut hermit = build_synthetic(&cfg, scheme);
    hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let mut baseline = build_synthetic(&cfg, scheme);
    baseline.create_baseline_index(cols::COL_C, false).unwrap();
    (hermit, baseline, cfg)
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_range_0.05pct");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    for kind in [CorrelationKind::Linear, CorrelationKind::Sigmoid] {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let (hermit, baseline, cfg) = setup(kind, scheme);
            let mut gen = QueryGen::new(cfg.target_domain(), 0xBE7C);
            let queries = gen.ranges(0.0005, 256);
            let label = format!("{}_{}", kind.label(), scheme.label());
            group.bench_function(BenchmarkId::new("hermit", &label), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let (lb, ub) = queries[i % queries.len()];
                    i += 1;
                    std::hint::black_box(
                        hermit.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None),
                    )
                })
            });
            group.bench_function(BenchmarkId::new("baseline", &label), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let (lb, ub) = queries[i % queries.len()];
                    i += 1;
                    std::hint::black_box(
                        baseline.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_point");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (hermit, baseline, cfg) = setup(CorrelationKind::Sigmoid, scheme);
        let mut gen = QueryGen::new(cfg.target_domain(), 0xBE7D);
        let points = gen.points(1024);
        group.bench_function(BenchmarkId::new("hermit", scheme.label()), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let p = points[i % points.len()];
                i += 1;
                std::hint::black_box(
                    hermit.lookup_range(RangePredicate::point(cols::COL_C, p), None),
                )
            })
        });
        group.bench_function(BenchmarkId::new("baseline", scheme.label()), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let p = points[i % points.len()];
                i += 1;
                std::hint::black_box(
                    baseline.lookup_range(RangePredicate::point(cols::COL_C, p), None),
                )
            })
        });
    }
    group.finish();
}

/// What [`cold_fetch_rate`] measured.
struct ColdFetch {
    /// Requests per second, all readers together.
    requests_per_s: f64,
    /// Reader-thread µs per read-through record: the readers' time divided
    /// by the records the pool read through. The requests' hits and loads
    /// are charged to it too, so it is an upper bound — a close one on
    /// uniform access, where most page visits are read-throughs.
    read_through_us: f64,
    /// Page-store reads per request, whole pages and records.
    store_reads_per_request: f64,
}

/// Requests per second of `readers` threads, each materializing 200 random
/// rows per request through `Database::fetch_rows` for `window`, and what
/// the read-throughs among them cost.
fn cold_fetch_rate(db: &Database, locs: &[RowLoc], readers: usize, window: Duration) -> ColdFetch {
    let io = db.pool_io_counters();
    let start = Instant::now();
    let requests: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                s.spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ r as u64;
                    let mut batch = Vec::with_capacity(200);
                    let mut done = 0u64;
                    while start.elapsed() < window {
                        batch.clear();
                        for _ in 0..200 {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            batch.push(locs[(state >> 33) as usize % locs.len()]);
                        }
                        let (rows, unreadable) = db.fetch_rows(&batch, None);
                        assert_eq!(unreadable, 0);
                        std::hint::black_box(rows);
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cold_fetch reader panicked")).sum()
    });
    let elapsed = start.elapsed();
    let after = db.pool_io_counters();
    let read_throughs = (after.read_through - io.read_through).max(1);
    ColdFetch {
        requests_per_s: requests as f64 / elapsed.as_secs_f64(),
        read_through_us: elapsed.as_secs_f64() * 1e6 * readers as f64 / read_throughs as f64,
        store_reads_per_request: (after.store_reads - io.store_reads) as f64
            / requests.max(1) as f64,
    }
}

/// One reader's µs per 200-row request and the pool's hit share over
/// `window`, each row drawn from `hot` with probability `hot_share` and
/// from all of `locs` otherwise. The pool is warmed on the same mix for one
/// window first, so the share is the steady state's.
fn cold_fetch_profile(
    db: &Database,
    locs: &[RowLoc],
    hot: &[RowLoc],
    hot_share: f64,
    window: Duration,
) -> (f64, f64) {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut batch = Vec::with_capacity(200);
    let mut run = || {
        let start = Instant::now();
        let mut requests = 0u64;
        while start.elapsed() < window {
            batch.clear();
            for _ in 0..200 {
                let from =
                    if (next() as f64) < hot_share * (1u64 << 31) as f64 { hot } else { locs };
                batch.push(from[next() as usize % from.len()]);
            }
            let (rows, unreadable) = db.fetch_rows(&batch, None);
            assert_eq!(unreadable, 0);
            std::hint::black_box(rows);
            requests += 1;
        }
        start.elapsed().as_secs_f64() * 1e6 / requests as f64
    };
    run();
    let (hits, misses, _) = db.pool_counters().expect("a paged database");
    let us = run();
    let (hits_after, misses_after, _) = db.pool_counters().expect("a paged database");
    let (hits, misses) = (hits_after - hits, misses_after - misses);
    (us, hits as f64 / (hits + misses).max(1) as f64)
}

/// The §7.8 disk regime in isolation: a file-backed heap five times the
/// buffer pool (the server's default pool configuration, scaled down), 200
/// random rows per request, so ≈ 4 of 5 page visits miss. One reader vs
/// two: a miss holds no lock across its store read, so the second reader
/// must add throughput (ratio > 1 on two cores). A ratio well below 1 —
/// 0.37 before the miss path was rebuilt — means page loads are queueing
/// on a lock again. Timed by hand rather than through `Bencher::iter`: the
/// figure of merit is aggregate throughput across threads.
///
/// Each reader count also prints `cold_fetch/read_through_us_N`, the
/// reader-thread µs per read-through record, with the store reads per
/// request beside it.
///
/// Then one reader's µs per request and pool hit share, under uniform
/// access and with 90 % of the rows drawn from 15 % of the pages: a cold
/// row alone on its page is read through rather than loaded unless the
/// pool's doorkeeper has seen its page miss recently, so hot pages are
/// installed and cold ones no longer evict them.
fn bench_cold_fetch(c: &mut Criterion) {
    let group = c.benchmark_group("cold_fetch");
    let quick = std::env::args().any(|a| a == "--quick");
    let (rows, window) = if quick {
        (60_000, Duration::from_millis(400))
    } else {
        (300_000, Duration::from_secs(2))
    };
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("payload"),
    ]);
    let dir = std::env::temp_dir().join(format!("hermit-bench-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 36-byte records: 226 rows per 8 KiB page.
    let heap_pages = rows / 226 + 1;
    let config = DurabilityConfig {
        pool_pages: heap_pages / 5,
        wal_sync_every: usize::MAX,
        ..Default::default()
    };
    let db = Database::create_durable(schema, 0, &dir, &config).expect("create cold_fetch db");
    let locs: Vec<RowLoc> = (0..rows)
        .map(|i| {
            let m = i as f64;
            let row =
                [Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m), Value::Float(0.5)];
            db.insert(&row).expect("load cold_fetch row").as_loc()
        })
        .collect();
    let one = cold_fetch_rate(&db, &locs, 1, window);
    let two = cold_fetch_rate(&db, &locs, 2, window);
    eprintln!(
        "bench cold_fetch/readers_1  {:>10.0} req/s  ({rows} rows, pool {} of {heap_pages} pages)",
        one.requests_per_s, config.pool_pages
    );
    eprintln!("bench cold_fetch/readers_2  {:>10.0} req/s", two.requests_per_s);
    for (readers, run) in [(1, &one), (2, &two)] {
        eprintln!(
            "bench cold_fetch/read_through_us_{readers}  {:>8.2} µs per read-through record  \
             ({:.1} store reads per request)",
            run.read_through_us, run.store_reads_per_request
        );
    }
    eprintln!("bench cold_fetch/scaling_2_over_1  {:.2}", two.requests_per_s / one.requests_per_s);
    let hot = &locs[..locs.len() * 15 / 100];
    for (label, hot_share) in [("uniform", 0.0), ("hot_pages", 0.9)] {
        let (us, hit_share) = cold_fetch_profile(&db, &locs, hot, hot_share, window);
        eprintln!(
            "bench cold_fetch/{label:<9}  {us:>8.1} µs/request  pool hit share {hit_share:.3}"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Range lookups per second of `readers` threads sharing `db` for
/// `window`, each cycling through `queries` from its own offset.
fn mem_read_rate(db: &Database, queries: &[(f64, f64)], readers: usize, window: Duration) -> f64 {
    let start = Instant::now();
    let lookups: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                s.spawn(move || {
                    let mut done = 0u64;
                    while start.elapsed() < window {
                        let (lb, ub) = queries[(r * 97 + done as usize) % queries.len()];
                        let pred = RangePredicate::range(cols::COL_C, lb, ub);
                        std::hint::black_box(db.lookup_range(pred, None));
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mem_readers reader panicked")).sum()
    });
    lookups as f64 / start.elapsed().as_secs_f64()
}

/// Concurrent readers of one in-memory database: Hermit range lookups
/// (0.5 %) from one reader vs two. The heap's pages sit in one buffer-pool
/// shard, and a page-ordered validation batch visits them under that
/// shard's read lock, so readers share it and a second reader must add
/// throughput (ratio near 2 on two cores). A ratio near 1 means readers
/// queue on the shard lock. Timed by hand, like `cold_fetch`.
fn bench_mem_readers(c: &mut Criterion) {
    let group = c.benchmark_group("mem_readers");
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick { Duration::from_millis(400) } else { Duration::from_secs(2) };
    let (hermit, _, cfg) = setup(CorrelationKind::Linear, TidScheme::Logical);
    let queries = QueryGen::new(cfg.target_domain(), 0x5EAD).ranges(0.005, 256);
    let one = mem_read_rate(&hermit, &queries, 1, window);
    let two = mem_read_rate(&hermit, &queries, 2, window);
    eprintln!("bench mem_readers/readers_1  {one:>10.0} lookups/s  ({} rows)", hermit.len());
    eprintln!("bench mem_readers/readers_2  {two:>10.0} lookups/s");
    eprintln!("bench mem_readers/scaling_2_over_1  {:.2}", two / one);
    group.finish();
}

/// Auto-commit inserts per second from `committers` threads through one
/// `SharedDatabase` for `window`, every insert its own commit point.
fn commit_rate(
    db: &SharedDatabase,
    next_pk: &AtomicI64,
    committers: usize,
    window: Duration,
) -> f64 {
    let start = Instant::now();
    let commits: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..committers)
            .map(|_| {
                s.spawn(move || {
                    let mut done = 0u64;
                    while start.elapsed() < window {
                        let pk = next_pk.fetch_add(1, Ordering::Relaxed);
                        let m = pk as f64;
                        let row = [Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)];
                        db.insert(&row).expect("commit_scaling insert");
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("commit_scaling committer panicked")).sum()
    });
    commits as f64 / start.elapsed().as_secs_f64()
}

/// The write path's contention in isolation: 1/2/4/8 committers of
/// auto-commit inserts on a file-backed database at `wal_sync_every = 1`,
/// no socket. A commit point waits for its fsync with nothing held, so a
/// second committer's apply + `write` overlap the first one's fsync and
/// committers parked behind one fsync share the next: the rate must grow
/// with the committers. With the fsync paid under the WAL guard it could
/// not (`scaling_4_over_1` ≈ 1). Timed by hand for the same reason as
/// `cold_fetch`; the ratio depends on the device's fsync, so it is printed,
/// not gated.
fn bench_commit_scaling(c: &mut Criterion) {
    let group = c.benchmark_group("commit_scaling");
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick { Duration::from_millis(400) } else { Duration::from_secs(2) };
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    let dir = std::env::temp_dir().join(format!("hermit-bench-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema, 0, &dir, &config).expect("create commit_scaling db");
    let db = SharedDatabase::new(db);
    let tail = Arc::clone(db.wal_tail().expect("durable database"));
    let next_pk = AtomicI64::new(0);
    let mut rates = Vec::new();
    for committers in [1usize, 2, 4, 8] {
        let (fsyncs, waits) = (tail.fsyncs(), tail.commit_waits());
        let rate = commit_rate(&db, &next_pk, committers, window);
        let cohort = (tail.commit_waits() - waits) as f64 / (tail.fsyncs() - fsyncs).max(1) as f64;
        eprintln!(
            "bench commit/committers_{committers}  {rate:>10.0} commits/s  ({cohort:.2} commits per fsync)"
        );
        rates.push(rate);
    }
    eprintln!("bench commit/scaling_4_over_1  {:.2}", rates[2] / rates[0]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// The end-to-end benchmark's set-up, phase by phase: `hermit_bench`'s
/// `setup.rs` sequence over its Synthetic table — load into a durable
/// database, build the host B+-tree, build the Hermit index, checkpoint —
/// then the server's restart, `Database::open` of the directory. Prints
/// seconds per phase and `setup/total_s`, their sum, and on Linux each
/// phase's resident-set peak, `setup/<phase>_hwm_mb`, with its rise over
/// the phase's start. `open` runs in a process of its own, as a server's
/// restart does; its rise is over the resident set it leaves (a build
/// buffer resident beside what is built from it shows there),
/// `setup/open_parts_mb` itemizes what it leaves, and
/// `setup/host_tree_bytes_per_entry` is the host tree's `memory_bytes` a
/// row. 1.2 M static rows
/// (`read-cold`'s table), 60 K with `--quick`. Each index build is one pass
/// over the heap plus a sort (B+-tree) or linear-time fitting (TRS-Tree),
/// so after the load, which inserts row by row, every phase should stay a
/// fraction of a second per million rows.
fn bench_setup_phases(c: &mut Criterion) {
    let group = c.benchmark_group("setup_phases");
    let quick = std::env::args().any(|a| a == "--quick");
    let rows = served_table(1, if quick { 60_000 } else { 1_200_000 });
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("payload"),
    ]);
    let dir = std::env::temp_dir().join(format!("hermit-bench-setup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // As the benchmark loads: the WAL tail unsynced, the checkpoint makes it durable.
    let config = DurabilityConfig { wal_sync_every: usize::MAX, ..Default::default() };
    // Per phase: seconds, and the resident set at its start and its peak
    // (`VmHWM` after a reset to `VmRSS`), where `/proc` tells them.
    type Memory = Option<(u64, u64)>;
    let mut phases: Vec<(&str, f64, Memory)> = Vec::new();
    let mut timed = |phase, f: &mut dyn FnMut()| {
        let rss = reset_peak_rss().then(|| proc_status_bytes("VmRSS:")).flatten();
        let start = Instant::now();
        f();
        let seconds = start.elapsed().as_secs_f64();
        phases.push((phase, seconds, rss.zip(proc_status_bytes("VmHWM:"))));
    };
    let mut db = Database::create_durable(schema, 0, &dir, &config).expect("create setup db");
    timed("load", &mut || {
        for row in &rows {
            db.insert(row).expect("load setup row");
        }
    });
    timed("host_index", &mut || db.create_baseline_index(1, true).expect("host index"));
    timed("hermit_index", &mut || db.create_hermit_index(2, 1).expect("hermit index"));
    timed("checkpoint", &mut || db.checkpoint(&dir).expect("checkpoint"));
    drop(db);
    // The restart runs in a process of its own, as a server's does: here,
    // memory the phases above freed would hide its peak.
    let child = std::process::Command::new(std::env::current_exe().expect("bench binary"))
        .env(OPEN_DIR_ENV, &dir)
        .output()
        .expect("run the open phase");
    let report = String::from_utf8_lossy(&child.stdout);
    let fields: Vec<f64> = report.split_whitespace().filter_map(|f| f.parse().ok()).collect();
    let [seconds, hwm, rss, len, primary, pool, secondary, host] = fields[..] else {
        panic!("open phase: {report:?}")
    };
    assert_eq!(len as usize, rows.len());
    // For `open`: the peak, and how far it rose above what stays resident.
    phases.push(("open", seconds, (hwm > 0.0).then_some((rss as u64, hwm as u64))));
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    for (phase, seconds, memory) in &phases {
        let label = format!("setup/{phase}_s");
        eprintln!("bench {label:<24} {seconds:>7.3}  ({} rows)", rows.len());
        if let Some((rss, hwm)) = memory {
            let label = format!("setup/{phase}_hwm_mb");
            let rise = mib(hwm.saturating_sub(*rss));
            let what = if *phase == "open" { "its resident set after" } else { "its start" };
            eprintln!("bench {label:<24} {:>7.1}  (+{rise:.1} over {what})", mib(*hwm));
        }
    }
    eprintln!("bench setup/total_s  {:.3}", phases.iter().map(|(_, s, _)| s).sum::<f64>());
    let [primary, pool, secondary] = [primary, pool, secondary].map(|b| mib(b as u64));
    eprintln!(
        "bench setup/open_parts_mb  primary {primary:.2} / pool {pool:.2} / \
         secondary indexes {secondary:.2}"
    );
    eprintln!("bench setup/host_tree_bytes_per_entry  {:.2}", host / len);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Names the directory the bench binary, started by `bench_setup_phases`,
/// opens in a process of its own.
const OPEN_DIR_ENV: &str = "HERMIT_BENCH_OPEN_DIR";

/// The restart of `bench_setup_phases`: open `dir` and print seconds,
/// `VmHWM` and `VmRSS` right after (bytes, 0 where `/proc` is missing), the
/// rows opened, the bytes of the primary index, the buffer pool and the
/// secondary indexes (`stats`' `hermit_memory_bytes` parts), and the bytes
/// of the host tree alone.
fn report_open(dir: &std::path::Path) {
    let start = Instant::now();
    let db = Database::open(dir, &DurabilityConfig::default()).expect("open setup db");
    let seconds = start.elapsed().as_secs_f64();
    let field = |name| proc_status_bytes(name).unwrap_or(0);
    let (hwm, rss) = (field("VmHWM:"), field("VmRSS:"));
    let primary = db.primary().memory_bytes();
    let pool = db.pool_bytes();
    let secondary: usize = db.indexes().map(|(_, index)| index.memory_bytes()).sum();
    let host = db.index(1).map_or(0, |i| i.memory_bytes());
    println!("{seconds} {hwm} {rss} {} {primary} {pool} {secondary} {host}", db.len());
}

criterion_group!(
    benches,
    bench_range,
    bench_point,
    bench_cold_fetch,
    bench_mem_readers,
    bench_commit_scaling,
    bench_setup_phases
);
fn main() {
    if let Some(dir) = std::env::var_os(OPEN_DIR_ENV) {
        return report_open(std::path::Path::new(&dir));
    }
    // `cargo test` runs bench targets with `--test`; skip the measurement.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
}
