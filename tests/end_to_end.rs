//! End-to-end integration tests spanning all crates: the full Hermit
//! pipeline against ground truth on every workload, both tuple-identifier
//! schemes, in-memory and disk-like paged databases, and through
//! distribution shifts.

use hermit::core::database::TablePairSource;
use hermit::core::{Database, DiscoveryConfig, RangePredicate, SecondaryIndex};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use hermit::workloads::synthetic::cols;
use hermit::workloads::{
    build_sensor, build_stock, build_synthetic, CorrelationKind, QueryGen, SensorConfig,
    StockConfig, SyntheticConfig,
};
use std::sync::Arc;

/// Ground truth by sequential scan over the heap.
fn scan_count(
    db: &Database,
    col: usize,
    lb: f64,
    ub: f64,
    extra: Option<(usize, f64, f64)>,
) -> usize {
    let mut n = 0;
    db.heap()
        .for_each_live_row(|_, row| {
            let main = row.f64(col).is_some_and(|v| v >= lb && v <= ub);
            let extra_ok = extra
                .is_none_or(|(ec, elb, eub)| row.f64(ec).is_some_and(|v| v >= elb && v <= eub));
            n += usize::from(main && extra_ok);
            true
        })
        .unwrap();
    n
}

#[test]
fn synthetic_hermit_matches_scan_all_configs() {
    for kind in [CorrelationKind::Linear, CorrelationKind::Sigmoid] {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let cfg = SyntheticConfig {
                tuples: 30_000,
                correlation: kind,
                noise_fraction: 0.02,
                ..Default::default()
            };
            let mut db = build_synthetic(&cfg, scheme);
            db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
            let mut gen = QueryGen::new(cfg.target_domain(), 0xE2E);
            for (lb, ub) in gen.ranges(0.005, 20) {
                let got = db.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
                let want = scan_count(&db, cols::COL_C, lb, ub, None);
                assert_eq!(got.rows.len(), want, "{kind:?}/{scheme:?} on [{lb}, {ub}]");
            }
            for p in gen.points(20) {
                let got = db.lookup_range(RangePredicate::point(cols::COL_C, p), None);
                let want = scan_count(&db, cols::COL_C, p, p, None);
                assert_eq!(got.rows.len(), want, "{kind:?}/{scheme:?} point {p}");
            }
        }
    }
}

#[test]
fn stock_hermit_matches_scan_with_time_conjunct() {
    let cfg = StockConfig { stocks: 4, days: 5_000, ..Default::default() };
    let mut db = build_stock(&cfg, TidScheme::Logical);
    for s in 0..cfg.stocks {
        db.create_hermit_index(cfg.high_col(s), cfg.low_col(s)).unwrap();
    }
    for s in 0..cfg.stocks {
        let col = cfg.high_col(s);
        let (lo, hi) = db.heap().stats(col).unwrap().range().unwrap();
        let band = (lo + (hi - lo) * 0.3, lo + (hi - lo) * 0.6);
        let got = db.lookup_range(
            RangePredicate::range(col, band.0, band.1),
            Some(RangePredicate::range(0, 1_000.0, 3_000.0)),
        );
        let want = scan_count(&db, col, band.0, band.1, Some((0, 1_000.0, 3_000.0)));
        assert_eq!(got.rows.len(), want, "stock {s}");
    }
}

#[test]
fn sensor_hermit_matches_scan_on_every_sensor() {
    let cfg = SensorConfig { tuples: 15_000, ..Default::default() };
    let mut db = build_sensor(&cfg, TidScheme::Physical);
    for i in 0..cfg.sensors {
        db.create_hermit_index(cfg.sensor_col(i), cfg.avg_col()).unwrap();
    }
    for i in 0..cfg.sensors {
        let col = cfg.sensor_col(i);
        let (lo, hi) = db.heap().stats(col).unwrap().range().unwrap();
        let band = (lo + (hi - lo) * 0.4, lo + (hi - lo) * 0.5);
        let got = db.lookup_range(RangePredicate::range(col, band.0, band.1), None);
        let want = scan_count(&db, col, band.0, band.1, None);
        assert_eq!(got.rows.len(), want, "sensor {i}");
    }
}

#[test]
fn hermit_equals_baseline_row_sets() {
    let cfg = SyntheticConfig { tuples: 25_000, noise_fraction: 0.05, ..Default::default() };
    let mut hermit = build_synthetic(&cfg, TidScheme::Physical);
    hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let mut baseline = build_synthetic(&cfg, TidScheme::Physical);
    baseline.create_baseline_index(cols::COL_C, false).unwrap();

    let mut gen = QueryGen::new(cfg.target_domain(), 7);
    for (lb, ub) in gen.ranges(0.01, 25) {
        let mut h = hermit.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None).rows;
        let mut b = baseline.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None).rows;
        h.sort();
        b.sort();
        assert_eq!(h, b, "row sets must be identical on [{lb}, {ub}]");
    }
}

#[test]
fn inserts_deletes_stay_consistent() {
    let cfg = SyntheticConfig { tuples: 10_000, ..Default::default() };
    let mut db = build_synthetic(&cfg, TidScheme::Logical);
    db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();

    // Insert new rows, some on-model, some as outliers.
    for i in 0..2_000i64 {
        let c = 500.0 + i as f64 * 0.25;
        let b = if i % 10 == 0 { -9.9e7 } else { cfg.correlate(c) };
        db.insert(&[Value::Int(10_000 + i), Value::Float(b), Value::Float(c), Value::Float(0.0)])
            .unwrap();
    }
    // Delete a slice of original rows.
    for pk in 100..200 {
        db.delete_by_pk(pk).unwrap();
    }
    // Hermit results still exactly match the scan.
    let mut gen = QueryGen::new((400.0, 1_200.0), 3);
    for (lb, ub) in gen.ranges(0.05, 15) {
        let got = db.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
        let want = scan_count(&db, cols::COL_C, lb, ub, None);
        assert_eq!(got.rows.len(), want, "after churn on [{lb}, {ub}]");
    }
}

#[test]
fn reorganization_through_database_pair_source() {
    let cfg = SyntheticConfig { tuples: 20_000, noise_fraction: 0.0, ..Default::default() };
    let mut db = build_synthetic(&cfg, TidScheme::Physical);
    db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();

    // Shift a region's correlation by updating colB through raw inserts of
    // fresh rows (simpler than UPDATE: new rows with a different regime).
    for i in 0..6_000i64 {
        let c = 2_000.0 + (i as f64) * 0.5;
        db.insert(&[
            Value::Int(100_000 + i),
            Value::Float(9.0 * c + 77.0), // new regime
            Value::Float(c),
            Value::Float(0.0),
        ])
        .unwrap();
    }
    let before = match db.index(cols::COL_C).unwrap() {
        SecondaryIndex::Hermit { trs, .. } => trs.stats().outliers,
        _ => unreachable!(),
    };
    assert!(before > 1_000, "regime shift should buffer outliers, got {before}");

    // Rebuild online, re-scanning the base table through the
    // TablePairSource adapter.
    let Some(SecondaryIndex::Hermit { trs, .. }) = db.index(cols::COL_C) else { unreachable!() };
    assert!(trs.rebuild(&TablePairSource { db: &db, target: cols::COL_C, host: cols::COL_B }));
    let after = trs.stats().outliers;
    assert!(after * 5 < before, "reorg should shrink buffers: {before} -> {after}");

    // Queries remain exact.
    let got = db.lookup_range(RangePredicate::range(cols::COL_C, 2_100.0, 2_200.0), None);
    let want = scan_count(&db, cols::COL_C, 2_100.0, 2_200.0, None);
    assert_eq!(got.rows.len(), want);
}

#[test]
fn paged_database_full_pipeline() {
    let store = Arc::new(SimulatedPageStore::new());
    let pool = Arc::new(BufferPool::new(store, 64));
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    let table = PagedTable::new(schema, pool);
    let mut db = Database::new_paged(table, 0);
    for i in 0..20_000i64 {
        let m = i as f64;
        db.insert(&[Value::Int(i), Value::Float(3.0 * m - 1.0), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();

    let r = db.lookup_range(RangePredicate::range(2, 5_000.0, 5_099.0), None);
    assert_eq!(r.rows.len(), 100);
    for &loc in &r.rows {
        let v = db.heap().value_f64(loc, 2).unwrap().unwrap();
        assert!((5_000.0..=5_099.0).contains(&v));
    }
}

#[test]
fn discovery_end_to_end_multiple_hosts() {
    // Table with two indexed candidates: a strongly correlated host and a
    // noise column; auto-creation must choose the right one.
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("good_host"),
        ColumnDef::float("noise_host"),
        ColumnDef::float("target"),
    ]);
    let mut db = Database::new(schema, 0, TidScheme::Physical);
    let mut state = 99u64;
    for i in 0..30_000i64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let t = i as f64;
        db.insert(&[
            Value::Int(i),
            Value::Float(t * t / 1_000.0), // monotone non-linear in target
            Value::Float((state >> 33) as f64),
            Value::Float(t),
        ])
        .unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_baseline_index(2, true).unwrap();
    let used_hermit = db.create_index_auto(3, &DiscoveryConfig::default()).unwrap();
    assert!(used_hermit);
    assert_eq!(db.index(3).unwrap().host_column(), Some(1), "must pick the correlated host");
}

#[test]
fn memory_claim_holds_across_workloads() {
    // The headline claim: Hermit's new indexes cost a small fraction of
    // the baseline's, across all three applications.
    let cfg = SyntheticConfig { tuples: 30_000, ..Default::default() };
    let mut hermit = build_synthetic(&cfg, TidScheme::Physical);
    hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let mut baseline = build_synthetic(&cfg, TidScheme::Physical);
    baseline.create_baseline_index(cols::COL_C, false).unwrap();
    let (h, b) = (hermit.memory_report().new_indexes, baseline.memory_report().new_indexes);
    assert!(h * 5 < b, "synthetic: hermit {h} vs baseline {b}");

    let cfg = SensorConfig { tuples: 20_000, ..Default::default() };
    let mut hermit = build_sensor(&cfg, TidScheme::Physical);
    let mut baseline = build_sensor(&cfg, TidScheme::Physical);
    for i in 0..cfg.sensors {
        hermit.create_hermit_index(cfg.sensor_col(i), cfg.avg_col()).unwrap();
        baseline.create_baseline_index(cfg.sensor_col(i), false).unwrap();
    }
    let (h, b) = (hermit.memory_report().new_indexes, baseline.memory_report().new_indexes);
    assert!(h * 5 < b, "sensor: hermit {h} vs baseline {b}");
}

#[test]
fn error_bound_zero_and_huge_both_stay_exact() {
    // §6's tradeoff discussion: error_bound trades memory for lookup work,
    // but results must stay exact at both extremes.
    for eb in [0.0, 10_000.0] {
        let cfg = SyntheticConfig { tuples: 10_000, noise_fraction: 0.01, ..Default::default() };
        let mut db = build_synthetic(&cfg, TidScheme::Physical);
        db.set_trs_params(TrsParams::with_error_bound(eb));
        db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
        let got = db.lookup_range(RangePredicate::range(cols::COL_C, 1_000.0, 1_500.0), None);
        let want = scan_count(&db, cols::COL_C, 1_000.0, 1_500.0, None);
        assert_eq!(got.rows.len(), want, "error_bound = {eb}");
    }
}
