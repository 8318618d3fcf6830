//! Equivalence suite: the batched executor (`Database::lookup_batch`) must
//! return exactly the rows, false-positive counts, and unresolved counts of
//! the scalar oracle (`Database::lookup_range`) — across both tuple-id
//! schemes, both storage substrates, outliers, deletions, out-of-domain
//! predicates, extra conjuncts, and parallel validation.

use hermit::core::{BatchOptions, Database, QueryResult, RangePredicate};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, RowLoc, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use std::sync::Arc;

const TARGET: usize = 2;
const OTHER: usize = 3;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// Rows with target = i, host = 2i except every `noise_every`-th row, whose
/// wild host value forces the TRS-Tree's outlier buffers.
fn insert_rows(db: &mut Database, n: usize, noise_every: usize) {
    for i in 0..n {
        let m = i as f64;
        let host = if noise_every > 0 && i % noise_every == 0 { -5.0e6 } else { 2.0 * m };
        db.insert(&[
            Value::Int(i as i64),
            Value::Float(host),
            Value::Float(m),
            Value::Float(m * 10.0),
        ])
        .unwrap();
    }
}

fn mem_hermit(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
    let mut db = Database::new(schema(), 0, scheme);
    insert_rows(&mut db, n, noise_every);
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(TARGET, 1).unwrap();
    db
}

fn mem_baseline(scheme: TidScheme, n: usize) -> Database {
    let mut db = Database::new(schema(), 0, scheme);
    insert_rows(&mut db, n, 0);
    db.create_baseline_index(TARGET, false).unwrap();
    db
}

/// Paged database with a small, sharded buffer pool so validation churns
/// through evictions during the comparison.
fn paged_hermit(n: usize, noise_every: usize, pool_pages: usize, shards: usize) -> Database {
    let store = Arc::new(SimulatedPageStore::new());
    let pool = Arc::new(BufferPool::new_sharded(store, pool_pages, shards));
    let table = PagedTable::new(schema(), pool);
    let mut db = Database::new_paged(table, 0);
    insert_rows(&mut db, n, noise_every);
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(TARGET, 1).unwrap();
    db
}

fn sorted_rows(r: &QueryResult) -> Vec<RowLoc> {
    let mut rows = r.rows.clone();
    rows.sort_unstable();
    rows
}

fn assert_equivalent(scalar: &QueryResult, batched: &QueryResult, ctx: &str) {
    assert_eq!(sorted_rows(scalar), sorted_rows(batched), "{ctx}: row sets differ");
    assert_eq!(
        scalar.false_positives, batched.false_positives,
        "{ctx}: false-positive counts differ"
    );
    assert_eq!(scalar.unresolved, batched.unresolved, "{ctx}: unresolved counts differ");
}

/// The predicate mix every test drives: dense ranges, ranges crossing
/// outlier rows, points (on-row, between-rows, on-outlier), inverted and
/// out-of-domain ranges, and domain-straddling edges.
fn predicate_mix(n: usize) -> Vec<RangePredicate> {
    let hi = n as f64;
    vec![
        RangePredicate::range(TARGET, 0.0, 50.0),
        RangePredicate::range(TARGET, 100.5, 299.25),
        RangePredicate::range(TARGET, hi - 100.0, hi + 500.0),
        RangePredicate::range(TARGET, -1_000.0, 25.0),
        RangePredicate::point(TARGET, 0.0),
        RangePredicate::point(TARGET, 123.0),
        RangePredicate::point(TARGET, 250.0), // outlier row when noise_every = 50
        RangePredicate::point(TARGET, 0.5),   // between rows: no matches
        RangePredicate::range(TARGET, 900.0, 100.0), // inverted: empty
        RangePredicate::range(TARGET, hi * 2.0, hi * 3.0), // out of domain: empty
    ]
}

#[test]
fn hermit_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 10_000, 50);
        let preds = predicate_mix(10_000);
        let batched = db.lookup_batch(&preds);
        assert_eq!(batched.len(), preds.len());
        for (pred, b) in preds.iter().zip(&batched) {
            let s = db.lookup_range(*pred, None);
            assert_equivalent(&s, b, &format!("{scheme:?} [{}, {}]", pred.lb, pred.ub));
        }
    }
}

#[test]
fn baseline_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_baseline(scheme, 10_000);
        let preds = predicate_mix(10_000);
        for (pred, b) in preds.iter().zip(db.lookup_batch(&preds)) {
            let s = db.lookup_range(*pred, None);
            assert_equivalent(&s, &b, &format!("baseline {scheme:?} [{}, {}]", pred.lb, pred.ub));
        }
    }
}

#[test]
fn batch_survives_deletions() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 2_000, 0);
        for pk in (0..2_000).step_by(3) {
            db.delete_by_pk(pk).unwrap();
        }
        let preds = predicate_mix(2_000);
        for (pred, b) in preds.iter().zip(db.lookup_batch(&preds)) {
            let s = db.lookup_range(*pred, None);
            assert_equivalent(&s, &b, &format!("deletions {scheme:?} [{}, {}]", pred.lb, pred.ub));
        }
        // Deleted rows must be gone from both paths.
        let r = &db.lookup_batch(&[RangePredicate::range(TARGET, 0.0, 8.0)])[0];
        assert_eq!(r.rows.len(), 6, "targets 1,2,4,5,7,8 survive");
    }
}

#[test]
fn batch_with_inflated_error_bound_counts_false_positives() {
    let mut db = Database::new(schema(), 0, TidScheme::Physical);
    insert_rows(&mut db, 10_000, 0);
    db.set_trs_params(TrsParams::with_error_bound(5_000.0));
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(TARGET, 1).unwrap();
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_009.0);
    let s = db.lookup_range(pred, None);
    let b = &db.lookup_batch(&[pred])[0];
    assert_equivalent(&s, b, "inflated error bound");
    assert!(b.false_positives > 0, "wide bands must produce validated-away candidates");
}

#[test]
fn batch_extra_conjunct_matches_scalar() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 10_000, 97);
        let extra = Some(RangePredicate::range(OTHER, 1_500.0, 1_590.0));
        let preds = [RangePredicate::range(TARGET, 100.0, 199.0)];
        let b = &db.lookup_batch_with(&preds, extra, &BatchOptions::default())[0];
        let s = db.lookup_range(preds[0], extra);
        assert_equivalent(&s, b, &format!("extra conjunct {scheme:?}"));
    }
}

#[test]
fn paged_batch_matches_scalar_under_pool_churn() {
    // 12-page pool over a ~140-page heap: validation constantly evicts.
    let db = paged_hermit(40_000, 50, 12, 4);
    let preds = predicate_mix(40_000);
    let batched = db.lookup_batch(&preds);
    for (pred, b) in preds.iter().zip(&batched) {
        let s = db.lookup_range(*pred, None);
        assert_equivalent(&s, b, &format!("paged [{}, {}]", pred.lb, pred.ub));
    }
}

#[test]
fn paged_batch_reduces_pool_traffic() {
    // Hot pool: every page resident. The scalar path pays one pool access
    // per candidate per column; the batched path pins each page once.
    let db = paged_hermit(20_000, 0, 256, 4);
    let pred = RangePredicate::range(TARGET, 5_000.0, 5_999.0);
    let pool_accesses = |db: &Database| {
        let hermit::core::Heap::Paged(t) = db.heap() else { unreachable!() };
        t.pool().stats().hits() + t.pool().stats().misses()
    };
    let stats_reset = |db: &Database| {
        let hermit::core::Heap::Paged(t) = db.heap() else { unreachable!() };
        t.pool().stats().reset();
    };

    stats_reset(&db);
    let s = db.lookup_range(pred, None);
    let scalar_accesses = pool_accesses(&db);

    stats_reset(&db);
    let b = &db.lookup_batch(&[pred])[0];
    let batched_accesses = pool_accesses(&db);

    assert_equivalent(&s, b, "hot-pool range");
    assert_eq!(s.rows.len(), 1_000);
    assert!(
        batched_accesses * 10 <= scalar_accesses,
        "page-grouped validation should collapse pool traffic: scalar {scalar_accesses} vs batched {batched_accesses}"
    );
}

#[test]
fn scalar_extra_conjunct_is_single_fetch() {
    // The scalar path reads both predicate columns from one heap visit;
    // with an extra conjunct the pool traffic must not double.
    let db = paged_hermit(20_000, 0, 256, 1);
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_499.0);
    let extra = Some(RangePredicate::range(OTHER, 0.0, f64::MAX));
    let hermit::core::Heap::Paged(t) = db.heap() else { unreachable!() };

    t.pool().stats().reset();
    let without = db.lookup_range(pred, None);
    let accesses_without = t.pool().stats().hits() + t.pool().stats().misses();

    t.pool().stats().reset();
    let with = db.lookup_range(pred, extra);
    let accesses_with = t.pool().stats().hits() + t.pool().stats().misses();

    assert_eq!(without.rows.len(), 500);
    assert_eq!(with.rows.len(), 500);
    assert_eq!(accesses_with, accesses_without, "extra conjunct must not re-fetch the row's page");
}

#[test]
fn parallel_batch_matches_sequential_on_paged_substrate() {
    let db = paged_hermit(30_000, 100, 64, 8);
    let preds: Vec<RangePredicate> = (0..48)
        .map(|i| RangePredicate::range(TARGET, i as f64 * 600.0, i as f64 * 600.0 + 299.0))
        .collect();
    let sequential = db.lookup_batch(&preds);
    for threads in [2, 4, 7] {
        let parallel = db.lookup_batch_with(&preds, None, &BatchOptions::with_threads(threads));
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_equivalent(s, p, &format!("threads={threads} pred {i}"));
        }
    }
}

#[test]
fn fetch_rows_matches_per_row_get_across_a_delete() {
    // The page-grouped materializer behind projections and the server's
    // full-row responses must hand back what one `Heap::get` per row did:
    // same rows, same (validation) order, and a row deleted between
    // validation and fetch simply absent.
    let dbs = [
        ("mem", mem_hermit(TidScheme::Logical, 5_000, 50)),
        ("paged", paged_hermit(5_000, 50, 8, 2)),
    ];
    for (name, db) in &dbs {
        let validated = db.lookup_range(RangePredicate::range(TARGET, 1_000.0, 1_999.0), None);
        assert_eq!(validated.rows.len(), 1_000, "{name}");
        // Deleted after validation: pk == target, so pk 1500 is in range.
        db.delete_by_pk(1_500).unwrap();

        let per_row: Vec<Vec<Value>> =
            validated.rows.iter().filter_map(|&loc| db.heap().get(loc).ok()).collect();
        let (fetched, unreadable) = db.fetch_rows(&validated.rows, None);
        assert_eq!(unreadable, 0, "{name}");
        assert_eq!(fetched.len(), validated.rows.len(), "{name}: aligned with the input");
        assert_eq!(fetched.iter().filter(|r| r.is_none()).count(), 1, "{name}: one dead row");
        let grouped: Vec<Vec<Value>> = fetched.into_iter().flatten().collect();
        assert_eq!(grouped.len(), 999, "{name}");
        assert_eq!(grouped, per_row, "{name}: full rows, order preserved");

        // A projection is the same rows cut down to the chosen columns.
        let (projected, _) = db.fetch_rows(&validated.rows, Some(&[TARGET, 0]));
        let projected: Vec<Vec<Value>> = projected.into_iter().flatten().collect();
        let cut: Vec<Vec<Value>> = per_row.iter().map(|r| vec![r[TARGET], r[0]]).collect();
        assert_eq!(projected, cut, "{name}: projection");
    }
}
