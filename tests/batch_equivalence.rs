//! The executor, held to the reference model (`hermit_fault::model`).
//!
//! Every route the pipeline has — the Hermit route, the baseline index, a
//! composite box on either, the seq scan — alone or in a batch, through the
//! planner or through the forced-index `lookup_range`, with or without a
//! projection or a `LIMIT`, must answer exactly the model's rows in
//! ascending heap order: on both tuple-id schemes, on an in-memory heap and
//! behind a pool far smaller than the heap, across outliers, deletions,
//! residual conjuncts, NULLs and open transactions. The rest counts what
//! the model cannot see: false positives, and page visits per candidate.

use hermit::core::{
    AccessPath, BatchOptions, Database, PlanKind, Query, QueryResult, RangePredicate,
    SecondaryIndex,
};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, ColumnId, F64Key, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use std::sync::Arc;

const PK: usize = 0;
const HOST: usize = 1;
const TARGET: usize = 2;
const OTHER: usize = 3;

/// Consecutive targets sit this many rows apart in the heap, more than a
/// page holds: heap order is neither pk nor target order, and a 100-row
/// range is 100 rows on 100 pages.
const STRIDE: i64 = 401;

/// Where the fixture's heap lives.
#[derive(Debug, Clone, Copy)]
enum Heap {
    /// In memory, resident, under either tid scheme.
    Mem(TidScheme),
    /// Behind a two-shard pool of this many frames (physical tids).
    Paged(usize),
}

const SUBSTRATES: [Heap; 3] =
    [Heap::Mem(TidScheme::Logical), Heap::Mem(TidScheme::Physical), Heap::Paged(8)];

/// The row with target `t`: pk = target = t, host = 2t except every 50th
/// row (host −5e6, which the TRS-Tree must buffer as an outlier), and
/// other = 10t except every 7th row (NULL).
fn row(t: i64) -> Vec<Value> {
    let m = t as f64;
    let host = if t % 50 == 0 { -5.0e6 } else { 2.0 * m };
    let other = if t % 7 == 3 { Value::Null } else { Value::Float(10.0 * m) };
    vec![Value::Int(t), Value::Float(host), Value::Float(m), other]
}

/// The one fixture: `rows` rows, the heap's row `j` holding target
/// `j · STRIDE mod rows`; a baseline on host, a Hermit index on target
/// routed through it, and the composite twins of both led by pk. Returned
/// with the model of its rows.
fn fixture(heap: Heap, rows: i64) -> (Database, Model) {
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float_null("other"),
    ]);
    let mut db = match heap {
        Heap::Mem(scheme) => Database::new(schema, PK, scheme),
        Heap::Paged(frames) => {
            let store = Arc::new(SimulatedPageStore::new());
            let pool = Arc::new(BufferPool::new_sharded(store, frames, 2));
            Database::new_paged(PagedTable::new(schema, pool), PK)
        }
    };
    assert_ne!(rows % STRIDE, 0, "the stride must permute the rows");
    let mut model = Model::new(PK);
    let mut m = Mirror::new(&db, &mut model);
    for j in 0..rows {
        m.insert(&row(j * STRIDE % rows)).unwrap();
    }
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db.create_composite_baseline(PK, HOST).unwrap();
    db.create_composite_hermit(PK, TARGET, HOST).unwrap();
    (db, model)
}

/// Target predicates: ranges crossing outlier rows, points on a row, on an
/// outlier and between rows, domain-straddling edges, an inverted range and
/// an out-of-domain one.
fn target_mix(rows: i64) -> Vec<RangePredicate> {
    let hi = rows as f64;
    vec![
        RangePredicate::range(TARGET, 0.0, 50.0),
        RangePredicate::range(TARGET, 100.5, 299.25),
        RangePredicate::range(TARGET, hi - 100.0, hi + 500.0),
        RangePredicate::range(TARGET, -1_000.0, 25.0),
        RangePredicate::point(TARGET, 0.0),
        RangePredicate::point(TARGET, 123.0),
        RangePredicate::point(TARGET, 250.0),
        RangePredicate::point(TARGET, 0.5),
        RangePredicate::range(TARGET, 900.0, 100.0),
        RangePredicate::range(TARGET, hi * 2.0, hi * 3.0),
    ]
}

/// Host predicates for the baseline route, a point on the outliers' host.
fn host_mix() -> Vec<RangePredicate> {
    vec![
        RangePredicate::range(HOST, 400.0, 1_000.0),
        RangePredicate::point(HOST, 246.0),
        RangePredicate::point(HOST, -5.0e6),
        RangePredicate::range(HOST, 9.0e9, 9.1e9),
    ]
}

/// One query per route, edges mixed in: the Hermit route (also with a
/// residual on the unindexed, partly NULL column), the baseline, both
/// composite boxes, and seq scans. Run back to back in one batch, each
/// leaves its scratch to the next.
fn panel(rows: i64) -> Vec<Query> {
    let mut panel: Vec<Query> =
        target_mix(rows).into_iter().chain(host_mix()).map(Query::filter).collect();
    panel.extend([
        Query::new().range(TARGET, 100.0, 199.0).range(OTHER, 1_500.0, 1_590.0),
        Query::new().range(PK, 1_000.0, 3_000.0).range(TARGET, 1_500.0, 2_500.0),
        Query::new().range(PK, 1_000.0, 1_010.0).range(HOST, 0.0, 12_000.0),
        Query::new().range(OTHER, 20_000.0, 20_990.0),
        Query::new(),
    ]);
    panel
}

fn counts(r: &QueryResult) -> (usize, usize, usize) {
    (r.false_positives, r.unresolved, r.unreadable)
}

/// Hold single-conjunct queries to the model — alone, as one batch, and
/// through the forced-index entry — and check that each plans onto `kind`
/// and that the forced route counts what the planned one does.
fn check_routes(db: &Database, model: &Model, preds: &[RangePredicate], kind: PlanKind) {
    let queries: Vec<Query> = preds.iter().map(|&p| Query::filter(p)).collect();
    model.check(db, &queries);
    for (pred, q) in preds.iter().zip(&queries) {
        assert_eq!(db.plan(q).kind(), kind, "{q:?}: plan");
        let (planned, forced) = (db.execute(q), db.lookup_range(*pred, None));
        model.check_result(db, q, &forced, None).unwrap();
        assert_eq!(counts(&forced), counts(&planned), "{q:?}: lookup_range");
        if kind == PlanKind::Baseline {
            assert_eq!(planned.false_positives, 0, "{q:?}: an exact index has no false positives");
        }
    }
}

/// Pool accesses (hits + misses) so far.
fn visits(db: &Database) -> u64 {
    let stats = db.heap().pool().stats();
    stats.hits() + stats.misses()
}

#[test]
fn hermit_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (db, model) = fixture(Heap::Mem(scheme), 10_000);
        check_routes(&db, &model, &target_mix(10_000), PlanKind::Hermit);
    }
}

#[test]
fn baseline_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (db, model) = fixture(Heap::Mem(scheme), 10_000);
        check_routes(&db, &model, &host_mix(), PlanKind::Baseline);
    }
}

#[test]
fn batch_survives_deletions() {
    for heap in SUBSTRATES {
        let (db, mut model) = fixture(heap, 2_000);
        let mut m = Mirror::new(&db, &mut model);
        for pk in (0..2_000).step_by(3) {
            m.delete(pk).unwrap();
        }
        check_routes(&db, &model, &target_mix(2_000), PlanKind::Hermit);
        model.check(&db, &panel(2_000));
    }
}

#[test]
fn batch_with_inflated_error_bound_counts_false_positives() {
    let (mut db, model) = fixture(Heap::Mem(TidScheme::Physical), 10_000);
    db.set_trs_params(TrsParams::with_error_bound(5_000.0));
    db.create_hermit_index(TARGET, HOST).unwrap();
    // Bands this wide make the planner prefer a scan, so the Hermit route
    // is taken through the forced-index entry.
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_009.0);
    let forced = db.lookup_range(pred, None);
    model.check_result(&db, &Query::filter(pred), &forced, None).unwrap();
    assert!(forced.false_positives > 0, "wide bands must produce validated-away candidates");
    assert!(forced.false_positive_ratio() > 0.0 && forced.false_positive_ratio() < 1.0);
    model.check(&db, &panel(10_000));
}

#[test]
fn batch_extra_conjunct_matches_scalar() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (db, model) = fixture(Heap::Mem(scheme), 10_000);
        let (pred, extra) = (
            RangePredicate::range(TARGET, 100.0, 199.0),
            RangePredicate::range(OTHER, 1_500.0, 1_590.0),
        );
        let q = Query::filter(pred).and(extra);
        assert_eq!(db.plan(&q).kind(), PlanKind::Hermit, "{scheme:?}");
        model.check(&db, std::slice::from_ref(&q));
        let (planned, forced) = (db.execute(&q), db.lookup_range(pred, Some(extra)));
        model.check_result(&db, &q, &forced, None).unwrap();
        assert_eq!(counts(&forced), counts(&planned), "{scheme:?}");
        assert!(planned.false_positives >= 90, "rows failing the extra conjunct count as FPs");
    }
}

#[test]
fn paged_batch_matches_scalar_under_pool_churn() {
    // 12 frames over a heap of ≈ 180 pages: validation constantly evicts.
    let (db, model) = fixture(Heap::Paged(12), 40_000);
    check_routes(&db, &model, &target_mix(40_000), PlanKind::Hermit);
}

#[test]
fn paged_batch_matches_the_reference_when_cold_rows_are_read_through() {
    // Behind four frames most candidates are alone on a page the pool does
    // not hold, and such a miss reads the record, not the page.
    let (db, mut model) = fixture(Heap::Paged(4), 10_000);
    // Tombstones on a few pages: their candidates take the frame path.
    let mut m = Mirror::new(&db, &mut model);
    for pk in (0..40).step_by(3) {
        m.delete(pk).unwrap();
    }
    let stats = db.heap().pool().stats();
    stats.reset();
    check_routes(&db, &model, &target_mix(10_000), PlanKind::Hermit);
    assert!(stats.read_through() > 20, "{} read-throughs", stats.read_through());
}

#[test]
fn paged_batch_reduces_pool_traffic() {
    // Hot pool: every page resident. Validation pins each page that holds
    // a candidate exactly once, however many candidates it holds.
    let (db, model) = fixture(Heap::Paged(256), 20_000);
    let pred = RangePredicate::range(TARGET, 5_000.0, 5_999.0);

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
    let start = visits(&db);
    let r = db.lookup_range(pred, None);
    let accesses = visits(&db) - start;

    model.check_result(&db, &Query::filter(pred), &r, None).unwrap();
    assert_eq!(r.rows.len(), 1_000);
    assert!(
        tids.len() >= 1_000 && pages.len() * 5 < tids.len(),
        "{} on {}",
        tids.len(),
        pages.len()
    );
    assert_eq!(accesses, pages.len() as u64, "one pool access per distinct candidate page");
}

#[test]
fn scalar_extra_conjunct_is_single_fetch() {
    // Validation reads both predicate columns from one heap visit; with an
    // extra conjunct the pool traffic must not double.
    let (db, model) = fixture(Heap::Paged(256), 20_000);
    let pred = RangePredicate::range(TARGET, 1_000.0, 1_499.0);
    let extra = RangePredicate::range(OTHER, 0.0, f64::MAX);
    let mut accesses = Vec::new();
    for extra in [None, Some(extra)] {
        let start = visits(&db);
        let r = db.lookup_range(pred, extra);
        accesses.push(visits(&db) - start);
        let q = extra.into_iter().fold(Query::filter(pred), Query::and);
        model.check_result(&db, &q, &r, None).unwrap();
    }
    assert_eq!(accesses[0], accesses[1], "extra conjunct must not re-fetch the row's page");
}

#[test]
fn a_batch_of_n_equals_n_batches_of_one() {
    // The model checks each query alone and the panel as one batch; here
    // the batch must also count what each query counts alone.
    for heap in SUBSTRATES {
        let (db, model) = fixture(heap, 6_000);
        let panel = panel(6_000);
        model.check(&db, &panel);
        let together = db.execute_batch(&panel, &BatchOptions::default());
        let mut shapes = Vec::new();
        for (q, t) in panel.iter().zip(&together) {
            let plan = db.plan(q);
            shapes.push((plan.kind(), matches!(plan.access, AccessPath::Index { .. })));
            assert_eq!(counts(t), counts(&db.execute(q)), "{heap:?} {q:?}");
        }
        // (plan kind, exact index scan): the Hermit route, the baseline, the
        // composite Hermit and baseline boxes, the scan.
        for shape in [
            (PlanKind::Hermit, false),
            (PlanKind::Baseline, true),
            (PlanKind::Composite, false),
            (PlanKind::Composite, true),
            (PlanKind::Scan, false),
        ] {
            assert!(shapes.contains(&shape), "{heap:?}: no {shape:?} plan in the panel");
        }
        assert!(db.execute_batch(&[], &BatchOptions::default()).is_empty());
    }
}

/// Whole rows, a reordered projection that repeats a column, one naming a
/// column the table does not have, and the empty one.
const PROJECTIONS: [&[ColumnId]; 4] =
    [&[PK, HOST, TARGET, OTHER], &[OTHER, TARGET, TARGET, PK], &[OTHER, 9], &[]];

#[test]
fn fused_rows_equal_validate_then_fetch_on_every_plan_substrate_and_executor() {
    for heap in SUBSTRATES {
        let (db, model) = fixture(heap, 6_000);
        let mut panel = Vec::new();
        for base in self::panel(6_000) {
            for limit in [None, Some(0), Some(7)] {
                let base = limit.map_or(base.clone(), |n| base.clone().limit(n));
                panel.extend(PROJECTIONS.iter().map(|cols| base.clone().select(cols.to_vec())));
                // A projection changes the cells a match yields, nothing else.
                let projected = db.execute(&base.clone().select([TARGET]));
                assert_eq!(counts(&projected), counts(&db.execute(&base)), "{heap:?} {base:?}");
                panel.push(base);
            }
        }
        model.check(&db, &panel);
    }
}

#[test]
fn fetch_rows_matches_per_row_get_across_a_delete() {
    // The page-grouped materializer behind callers that hold only row
    // locations must hand back what one `PagedTable::get` per row does:
    // same rows, same order, and a row deleted since validation absent.
    for heap in [Heap::Mem(TidScheme::Logical), Heap::Paged(8)] {
        let (db, _) = fixture(heap, 5_000);
        let validated = db.lookup_range(RangePredicate::range(TARGET, 1_000.0, 1_999.0), None);
        assert_eq!(validated.rows.len(), 1_000, "{heap:?}");
        db.delete_by_pk(1_500).unwrap();

        let per_row: Vec<Vec<Value>> =
            validated.rows.iter().filter_map(|&loc| db.heap().get(loc).ok()).collect();
        let (fetched, unreadable) = db.fetch_rows(&validated.rows, None);
        assert_eq!(unreadable, 0, "{heap:?}");
        assert_eq!(fetched.len(), validated.rows.len(), "{heap:?}: aligned with the input");
        assert_eq!(fetched.iter().filter(|r| r.is_none()).count(), 1, "{heap:?}: one dead row");
        let grouped: Vec<Vec<Value>> = fetched.into_iter().flatten().collect();
        assert_eq!(grouped, per_row, "{heap:?}: full rows, order preserved");

        let (projected, _) = db.fetch_rows(&validated.rows, Some(&[TARGET, PK]));
        let projected: Vec<Vec<Value>> = projected.into_iter().flatten().collect();
        let cut: Vec<Vec<Value>> = per_row.iter().map(|r| vec![r[TARGET], r[PK]]).collect();
        assert_eq!(projected, cut, "{heap:?}: projection");
    }
}

/// Snapshot visibility governs cells exactly as it governs locations: a row
/// a reader may not see contributes neither, and a transaction reads the
/// cells of its own uncommitted insert.
#[test]
fn an_invisible_row_contributes_neither_a_location_nor_cells() {
    for heap in SUBSTRATES {
        let (db, mut model) = fixture(heap, 3_000);
        let panel: Vec<Query> = [
            Query::new().range(PK, 1_000.0, 5_000.0),
            Query::new().range(TARGET, 1_400.0, 1_600.0),
            Query::new().range(HOST, 2_900.0, 3_100.0),
            Query::new().range(PK, 1_000.0, 5_000.0).range(TARGET, 1_400.0, 1_600.0),
        ]
        .into_iter()
        .map(|q| q.select([PK, TARGET, OTHER]))
        .collect();
        // Writer: an uncommitted insert and a pending delete, each inside
        // every query.
        let mut m = Mirror::new(&db, &mut model);
        let writer = m.begin();
        m.insert_txn(writer, &[Value::Int(4_000), 3_001.0.into(), 1_500.5.into(), Value::Null])
            .unwrap();
        m.delete_txn(writer, 1_500).unwrap();
        let other = m.begin();
        for reader in [None, Some(other), Some(writer)] {
            model.verify(&db, &panel, reader).unwrap_or_else(|e| panic!("{heap:?}: {e}"));
        }
        let mut m = Mirror::new(&db, &mut model);
        m.rollback(other);
        m.rollback(writer);
        model.check(&db, &panel);
    }
}

/// A 100-row Hermit range over 40 000 rows behind `frames` frames, for
/// whole rows: a fresh run's result and page visits, checked against the
/// model, after one warming run.
fn scattered_range(frames: usize) -> (Database, Model, QueryResult, u64) {
    let (db, model) = fixture(Heap::Paged(frames), 40_000);
    let q = Query::new().range(TARGET, 20_000.0, 20_099.0).select([PK, HOST, TARGET, OTHER]);
    assert_eq!(db.plan(&q).kind(), PlanKind::Hermit);
    db.execute(&q);
    let start = visits(&db);
    let result = db.execute(&q);
    let visits = visits(&db) - start;
    model.check_result(&db, &q, &result, None).unwrap();
    let candidates = (result.rows.len() + result.false_positives) as u64;
    assert!(
        visits <= candidates + 1,
        "{visits} page visits for {candidates} candidates: validation and materialization \
         must share one visit"
    );
    (db, model, result, visits)
}

/// One page visit per candidate: a warm 100-row range that returns whole
/// rows touches each candidate's page once, not once to validate it and once
/// more to copy it out.
#[test]
fn a_warm_range_visits_each_candidate_page_once() {
    let (db, _, result, visits) = scattered_range(512);
    assert!(db.heap().page_count() < 512, "the whole heap stays resident");
    let mut pages: Vec<u32> = result.rows.iter().map(|loc| loc.block).collect();
    pages.sort_unstable();
    pages.dedup();
    assert!(pages.len() >= 95, "the fixture scatters the range: {} pages", pages.len());
    assert!(visits >= pages.len() as u64, "every page that holds a match was visited");
}

/// The same range behind four frames: nearly every candidate is alone on a
/// page the pool does not hold, so its miss reads the record through
/// instead of loading the page — and the cells emitted from those bytes are
/// the row's, in one visit per candidate all the same.
#[test]
fn a_cold_range_reads_its_rows_through_and_emits_the_same_cells() {
    let (db, model, ..) = scattered_range(4);
    assert!(db.heap().pool().stats().read_through() > 50, "the cold candidates read through");
    let base = Query::new().range(TARGET, 20_000.0, 20_099.0);
    let panel: Vec<Query> =
        PROJECTIONS.iter().map(|cols| base.clone().select(cols.to_vec())).collect();
    model.check(&db, &panel);
}
