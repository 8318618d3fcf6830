//! Equivalence suite: every query the pipeline answers — alone or in a
//! batch, through the planner or through the forced-index `lookup_range` —
//! must return exactly the rows of a brute-force filter over the live heap,
//! in heap order, across both tuple-id schemes, both storage substrates,
//! outliers, deletions, out-of-domain predicates and extra conjuncts; and a
//! batch must answer each query exactly as a batch of one does.

use hermit::core::{
    BatchOptions, Database, PlanKind, Query, QueryResult, RangePredicate, SecondaryIndex,
};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, F64Key, RowLoc, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use std::sync::Arc;

const HOST: usize = 1;
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

/// Rows with pk = target = i, host = 2i except every `noise_every`-th row,
/// whose wild host value forces the TRS-Tree's outlier buffers. Inserted so
/// that consecutive targets sit `stride` rows apart in the heap (`stride`
/// coprime to `n`; 1 inserts them in target order).
fn insert_rows(db: &mut Database, n: usize, noise_every: usize, stride: usize) {
    for j in 0..n {
        let i = j * stride % n;
        let m = i as f64;
        let host = if noise_every > 0 && i.is_multiple_of(noise_every) { -5.0e6 } else { 2.0 * m };
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
    insert_rows(&mut db, n, noise_every, 1);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db
}

fn mem_baseline(scheme: TidScheme, n: usize) -> Database {
    let mut db = Database::new(schema(), 0, scheme);
    insert_rows(&mut db, n, 0, 1);
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
    insert_rows(&mut db, n, noise_every, 1);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db
}

/// The independent reference: every live row matching all of `preds`, in
/// heap order, by a brute-force pass over the heap — no index, no planner,
/// no executor.
fn reference(db: &Database, preds: &[RangePredicate]) -> Vec<RowLoc> {
    let mut rows = Vec::new();
    db.heap()
        .for_each_live_row(|loc, row| {
            let matches = preds.iter().all(|p| {
                let v = row.value(p.column).as_f64();
                v.is_some_and(|v| v >= p.lb && v <= p.ub)
            });
            if matches {
                rows.push(loc);
            }
            true
        })
        .unwrap();
    rows
}

/// `got` is the reference answer: the same rows in the same (heap) order,
/// and nothing unresolved or unreadable.
fn assert_exact(db: &Database, got: &QueryResult, preds: &[RangePredicate], ctx: &str) {
    assert_eq!(got.rows, reference(db, preds), "{ctx}: rows");
    assert_eq!((got.unresolved, got.unreadable), (0, 0), "{ctx}: unresolved / unreadable");
}

fn counts(r: &QueryResult) -> (usize, usize, usize) {
    (r.false_positives, r.unresolved, r.unreadable)
}

/// Run `preds` as one batch of single-conjunct queries, check every answer
/// against the reference, and check that the forced-index entry
/// (`lookup_range`) answers each the same way — rows and counts. Every
/// query must plan onto `kind`, so the batch exercises that index route.
fn check_batch(db: &Database, preds: &[RangePredicate], kind: PlanKind, ctx: &str) {
    let queries: Vec<Query> = preds.iter().map(|&p| Query::filter(p)).collect();
    let batched = db.execute_batch(&queries, &BatchOptions::default());
    assert_eq!(batched.len(), preds.len());
    for ((pred, q), b) in preds.iter().zip(&queries).zip(&batched) {
        let ctx = format!("{ctx} [{}, {}]", pred.lb, pred.ub);
        assert_eq!(db.plan(q).kind(), kind, "{ctx}: plan");
        assert_exact(db, b, &[*pred], &ctx);
        let forced = db.lookup_range(*pred, None);
        assert_eq!((&forced.rows, counts(&forced)), (&b.rows, counts(b)), "{ctx}: lookup_range");
        if kind == PlanKind::Baseline {
            assert_eq!(b.false_positives, 0, "{ctx}: an exact index has no false positives");
        }
    }
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
        check_batch(&db, &predicate_mix(10_000), PlanKind::Hermit, &format!("{scheme:?}"));
    }
}

#[test]
fn baseline_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_baseline(scheme, 10_000);
        let ctx = format!("baseline {scheme:?}");
        check_batch(&db, &predicate_mix(10_000), PlanKind::Baseline, &ctx);
    }
}

#[test]
fn batch_survives_deletions() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 2_000, 0);
        for pk in (0..2_000).step_by(3) {
            db.delete_by_pk(pk).unwrap();
        }
        let ctx = format!("deletions {scheme:?}");
        check_batch(&db, &predicate_mix(2_000), PlanKind::Hermit, &ctx);
        // Deleted rows must be gone.
        let q = Query::new().range(TARGET, 0.0, 8.0);
        let r = &db.execute_batch(&[q], &BatchOptions::default())[0];
        assert_eq!(r.rows.len(), 6, "targets 1,2,4,5,7,8 survive");
    }
}

#[test]
fn batch_with_inflated_error_bound_counts_false_positives() {
    let mut db = Database::new(schema(), 0, TidScheme::Physical);
    insert_rows(&mut db, 10_000, 0, 1);
    db.set_trs_params(TrsParams::with_error_bound(5_000.0));
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_009.0);
    // Bands this wide make the planner prefer a scan, so the Hermit route
    // is taken through the forced-index entry.
    let forced = db.lookup_range(pred, None);
    assert_exact(&db, &forced, &[pred], "inflated error bound, forced index");
    assert!(forced.false_positives > 0, "wide bands must produce validated-away candidates");
    let planned = &db.execute_batch(&[Query::filter(pred)], &BatchOptions::default())[0];
    assert_exact(&db, planned, &[pred], "inflated error bound, planned");
}

#[test]
fn batch_extra_conjunct_matches_scalar() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 10_000, 97);
        let preds = [
            RangePredicate::range(TARGET, 100.0, 199.0),
            RangePredicate::range(OTHER, 1_500.0, 1_590.0),
        ];
        let q = Query::new().and(preds[0]).and(preds[1]);
        assert_eq!(db.plan(&q).kind(), PlanKind::Hermit, "{scheme:?}");
        let b = &db.execute_batch(&[q], &BatchOptions::default())[0];
        assert_exact(&db, b, &preds, &format!("extra conjunct {scheme:?}"));
        let forced = db.lookup_range(preds[0], Some(preds[1]));
        assert_eq!((&forced.rows, counts(&forced)), (&b.rows, counts(b)), "{scheme:?}");
        assert!(b.false_positives >= 90, "rows failing the extra conjunct count as FPs");
    }
}

#[test]
fn paged_batch_matches_scalar_under_pool_churn() {
    // 12-page pool over a ~140-page heap: validation constantly evicts.
    let db = paged_hermit(40_000, 50, 12, 4);
    check_batch(&db, &predicate_mix(40_000), PlanKind::Hermit, "paged");
}

#[test]
fn paged_batch_matches_the_reference_when_cold_rows_are_read_through() {
    // Consecutive targets 401 rows apart in the heap — more than a page
    // holds — behind a four-frame pool: most candidates are alone on a page
    // the pool does not hold, and such a miss reads the record, not the page.
    const N: usize = 10_000;
    let pool = Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), 4, 2));
    let mut db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
    insert_rows(&mut db, N, 50, 401);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    // Tombstones on a few pages: their candidates take the frame path.
    for pk in (0..40).step_by(3) {
        db.delete_by_pk(pk).unwrap();
    }
    pool.stats().reset();
    check_batch(&db, &predicate_mix(N), PlanKind::Hermit, "read-through");
    assert!(pool.stats().read_through() > 20, "{} read-throughs", pool.stats().read_through());
}

#[test]
fn paged_batch_reduces_pool_traffic() {
    // Hot pool: every page resident. Validation pins each page that holds
    // a candidate exactly once, however many candidates it holds.
    let db = paged_hermit(20_000, 0, 256, 4);
    let pred = RangePredicate::range(TARGET, 5_000.0, 5_999.0);
    let t = db.heap();

    // The candidate pages, gathered by hand from the public index API: the
    // TRS-Tree's host ranges probed on the host B+-tree, plus its outliers.
    let Some(SecondaryIndex::Hermit { trs, .. }) = db.index(TARGET) else { unreachable!() };
    let Some(SecondaryIndex::Baseline(host)) = db.index(HOST) else { unreachable!() };
    let approx = trs.lookup(pred.lb, pred.ub);
    let mut tids = approx.tids.clone();
    for &(lo, hi) in &approx.ranges {
        host.read().for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| tids.push(*tid));
    }
    let mut pages: Vec<u32> = tids.iter().map(|tid| tid.as_loc().block).collect();
    pages.sort_unstable();
    pages.dedup();

    db.lookup_range(pred, None); // warm
    t.pool().stats().reset();
    let r = db.lookup_range(pred, None);
    let accesses = t.pool().stats().hits() + t.pool().stats().misses();

    assert_exact(&db, &r, &[pred], "hot-pool range");
    assert_eq!(r.rows.len(), 1_000);
    assert!(
        tids.len() >= 1_000 && pages.len() < 100,
        "{} candidates on {} pages",
        tids.len(),
        pages.len()
    );
    assert_eq!(accesses, pages.len() as u64, "one pool access per distinct candidate page");
}

#[test]
fn scalar_extra_conjunct_is_single_fetch() {
    // Validation reads both predicate columns from one heap visit; with an
    // extra conjunct the pool traffic must not double.
    let db = paged_hermit(20_000, 0, 256, 1);
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_499.0);
    let extra = Some(RangePredicate::range(OTHER, 0.0, f64::MAX));
    let t = db.heap();

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
fn a_batch_of_n_equals_n_batches_of_one() {
    // Queries that leave scratch in very different states run back to
    // back: an inverted range, an out-of-domain one and a scan over the
    // unindexed column sit between index routes with many candidates, so
    // anything one query leaves behind would show up in the next.
    let queries = |n: usize| {
        let hi = n as f64;
        vec![
            Query::new().range(TARGET, 100.0, 899.0),
            Query::new().range(TARGET, 900.0, 100.0),
            Query::new().range(HOST, 400.0, 1_000.0).select([0, TARGET]),
            Query::new().range(TARGET, hi * 2.0, hi * 3.0),
            Query::new().point(TARGET, 250.0),
            Query::new().range(OTHER, 20_000.0, 20_990.0),
            Query::new().range(TARGET, 5.0, 2_000.0).range(OTHER, 0.0, 9_000.0).limit(40),
            Query::new().range(TARGET, 300.0, 310.0).select([OTHER]),
        ]
    };
    let dbs = [
        ("mem/logical", mem_hermit(TidScheme::Logical, 6_000, 50)),
        ("mem/physical", mem_hermit(TidScheme::Physical, 6_000, 50)),
        ("paged", paged_hermit(6_000, 50, 8, 2)),
    ];
    for (name, db) in &dbs {
        let queries = queries(6_000);
        let kinds: Vec<PlanKind> = queries.iter().map(|q| db.plan(q).kind()).collect();
        for kind in [PlanKind::Hermit, PlanKind::Baseline, PlanKind::Scan] {
            assert!(kinds.contains(&kind), "{name}: no {kind:?} plan in the batch");
        }
        let together = db.execute_batch(&queries, &BatchOptions::default());
        assert_eq!(together.len(), queries.len());
        for (i, (q, t)) in queries.iter().zip(&together).enumerate() {
            let alone = &db.execute_batch(std::slice::from_ref(q), &BatchOptions::default())[0];
            let ctx = format!("{name} query {i} ({:?})", kinds[i]);
            assert_eq!(t.rows, alone.rows, "{ctx}: rows");
            assert_eq!(
                counts(t),
                counts(alone),
                "{ctx}: false positives / unresolved / unreadable"
            );
            assert_eq!(t.projected, alone.projected, "{ctx}: projected cells");
            let single = db.execute(q);
            assert_eq!((&single.rows, counts(&single)), (&t.rows, counts(t)), "{ctx}: execute");
        }
        assert!(together[0].rows.len() == 800 && together[2].rows.len() > 250, "{name}");
    }
}

#[test]
fn fetch_rows_matches_per_row_get_across_a_delete() {
    // The page-grouped materializer behind projections and the server's
    // full-row responses must hand back what one `PagedTable::get` per row did:
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
