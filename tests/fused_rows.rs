//! A query's rows are written where the row is validated.
//!
//! The executor's validate stage emits a plan's projection as cell images
//! while each candidate's page is pinned (`QueryResult::projected`, a
//! `RowBlock`). These tests hold that single pass to the two-pass answer it
//! replaced — validate, then `Database::fetch_rows` over the matching
//! locations — on both substrates, both tid schemes, all four plan shapes
//! and both executors; check that snapshot visibility governs cells exactly
//! as it governs locations; and count the page visits.

use hermit::core::{BatchOptions, Database, PlanKind, Query, QueryResult};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, ColumnId, Schema, TidScheme, Value};
use std::sync::Arc;

const TIME: usize = 0;
const DJ: usize = 1;
const SP: usize = 2;
const VOL: usize = 3;
const TAG: usize = 4;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("time"),
        ColumnDef::float("dj"),
        ColumnDef::float("sp"),
        ColumnDef::float_null("vol"),
        ColumnDef::int("tag"),
    ])
}

/// Stock-like rows: `sp` tracks `dj` (the Hermit pair), `vol` is unindexed
/// and NULL on every fifth day, `tag` is a second `Int` column.
fn row(t: i64) -> Vec<Value> {
    let dj = 3_000.0 + t as f64 * 0.5 + ((t % 97) as f64 - 48.0);
    let sp = dj / 8.0 + ((t % 13) as f64 - 6.0) * 0.05;
    let vol =
        if t % 5 == 0 { Value::Null } else { Value::Float(1.0e6 + ((t * 7_919) % 100_000) as f64) };
    vec![Value::Int(t), Value::Float(dj), Value::Float(sp), vol, Value::Int(t % 11)]
}

fn populate(db: &mut Database, days: i64) {
    for t in 0..days {
        db.insert(&row(t)).unwrap();
    }
    db.create_baseline_index(DJ, true).unwrap();
    db.create_hermit_index(SP, DJ).unwrap();
    for t in (0..days).step_by(37) {
        db.delete_by_pk(t).unwrap();
    }
}

/// In-memory substrate with every index kind the planner knows.
fn mem_db(scheme: TidScheme, days: i64) -> Database {
    let mut db = Database::new(schema(), TIME, scheme);
    populate(&mut db, days);
    db.create_composite_baseline(TIME, DJ).unwrap();
    db.create_composite_hermit(TIME, SP, DJ).unwrap();
    db
}

/// Paged substrate behind a pool of `frames` pages.
fn paged_db(days: i64, frames: usize) -> Database {
    let pool = Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), frames, 2));
    let mut db = Database::new_paged(PagedTable::new(schema(), pool), TIME);
    populate(&mut db, days);
    db
}

/// One query per plan shape, plus a point and an empty answer.
fn queries() -> Vec<(Query, PlanKind)> {
    vec![
        (Query::new().range(SP, 700.0, 760.0), PlanKind::Hermit),
        (Query::new().range(DJ, 5_600.0, 5_900.0), PlanKind::Baseline),
        (Query::new().range(TIME, 5_000.0, 9_000.0).range(SP, 700.0, 800.0), PlanKind::Composite),
        (Query::new().range(VOL, 1_000_000.0, 1_004_000.0), PlanKind::Scan),
        (
            Query::new().point(DJ, 3_000.0 + 4_000.0 * 0.5 + ((4_000 % 97) as f64 - 48.0)),
            PlanKind::Baseline,
        ),
        (Query::new().range(SP, 10.0, 20.0), PlanKind::Hermit),
    ]
}

/// Whole rows, a reordered projection that repeats a column, one naming a
/// column the table does not have, and the empty one.
fn projections() -> Vec<Vec<ColumnId>> {
    vec![vec![TIME, DJ, SP, VOL, TAG], vec![TAG, SP, SP, TIME], vec![VOL, 9], vec![]]
}

/// The two-pass answer: the locations validation matched, then their cells
/// through the page-grouped materializer.
fn fetched(db: &Database, validated: &QueryResult, cols: &[ColumnId]) -> Vec<Vec<Value>> {
    let (rows, unreadable) = db.fetch_rows(&validated.rows, Some(cols));
    assert_eq!(unreadable, 0);
    rows.into_iter().map(|r| r.expect("nothing was deleted since validation")).collect()
}

fn assert_fused_matches(
    db: &Database,
    ctx: &str,
    fused: &QueryResult,
    plain: &QueryResult,
    cols: &[ColumnId],
) {
    assert_eq!(fused.rows, plain.rows, "{ctx}: locations, in order");
    assert_eq!(
        (fused.false_positives, fused.unresolved, fused.unreadable),
        (plain.false_positives, plain.unresolved, 0),
        "{ctx}: counts"
    );
    let block = fused.projected.as_ref().unwrap_or_else(|| panic!("{ctx}: no block"));
    assert_eq!((block.len(), block.cells_per_row()), (plain.rows.len(), cols.len()), "{ctx}");
    assert_eq!(block.to_rows(), fetched(db, plain, cols), "{ctx}: cells");
    assert!(plain.projected.is_none(), "{ctx}: no projection requested, none built");
}

#[test]
fn fused_rows_equal_validate_then_fetch_on_every_plan_substrate_and_executor() {
    const DAYS: i64 = 12_000;
    let dbs = [
        ("mem/physical", mem_db(TidScheme::Physical, DAYS), true),
        ("mem/logical", mem_db(TidScheme::Logical, DAYS), true),
        // ≈ 180 rows a page, four frames: the answers span more pages than
        // the pool holds, so the single pass evicts as it goes.
        ("paged", paged_db(DAYS, 4), false),
    ];
    for (name, db, has_composites) in &dbs {
        let mut kinds = Vec::new();
        let mut matched = 0;
        for (base, kind) in queries() {
            let planned = db.plan(&base).kind();
            if *has_composites || kind != PlanKind::Composite {
                assert_eq!(planned, kind, "{name}: {base:?}");
            }
            kinds.push(planned);
            for limit in [None, Some(0), Some(7)] {
                let base = limit.map_or(base.clone(), |n| base.clone().limit(n));
                let plain = db.execute(&base);
                let plain_batched =
                    &db.execute_batch(std::slice::from_ref(&base), &BatchOptions::default())[0];
                matched += plain.rows.len();
                for cols in projections() {
                    let q = base.clone().select(cols.clone());
                    let ctx = format!("{name} {planned:?} limit {limit:?} select {cols:?}");
                    assert_fused_matches(
                        db,
                        &format!("{ctx} scalar"),
                        &db.execute(&q),
                        &plain,
                        &cols,
                    );
                    let batched = &db.execute_batch(&[q], &BatchOptions::default())[0];
                    assert_fused_matches(
                        db,
                        &format!("{ctx} batched"),
                        batched,
                        plain_batched,
                        &cols,
                    );
                }
            }
        }
        for kind in [PlanKind::Hermit, PlanKind::Baseline, PlanKind::Scan] {
            assert!(kinds.contains(&kind), "{name}: no {kind:?} plan exercised");
        }
        assert_eq!(kinds.contains(&PlanKind::Composite), *has_composites, "{name}");
        assert!(matched > 2_000, "{name}: the answers compared were not trivial ({matched} rows)");
    }
}

/// Snapshot visibility governs cells exactly as it governs locations: a row
/// a reader may not see contributes neither, and a transaction reads the
/// cells of its own uncommitted insert.
#[test]
fn an_invisible_row_contributes_neither_a_location_nor_cells() {
    for (name, db) in [("mem", mem_db(TidScheme::Logical, 3_000)), ("paged", paged_db(3_000, 8))] {
        let everything = Query::new().range(TIME, 1_000.0, 5_000.0).select([TIME, SP, VOL]);
        let hermit = Query::new().range(SP, 0.0, 10_000.0).select([TIME, SP, VOL]);
        let before = db.execute(&everything).rows.len();

        // Writer: an uncommitted insert in range and a pending delete.
        let writer = db.begin().unwrap();
        let fresh = row(4_000);
        db.insert_txn(writer, &fresh).unwrap();
        db.delete_by_pk_txn(writer, 1_500).unwrap();
        let cut = |r: &[Value]| vec![r[TIME], r[SP], r[VOL]];

        for q in [&everything, &hermit] {
            let check = |result: QueryResult, sees_insert: bool, sees_deleted: bool, who: &str| {
                let block = result.projected.as_ref().expect("a block");
                assert_eq!(block.len(), result.rows.len(), "{name} {who}: aligned");
                let times: Vec<Value> = block.iter().map(|r| r[0]).collect();
                assert_eq!(times.contains(&Value::Int(4_000)), sees_insert, "{name} {who}: insert");
                assert_eq!(
                    times.contains(&Value::Int(1_500)),
                    sees_deleted,
                    "{name} {who}: delete"
                );
                for (loc, cells) in result.rows.iter().zip(block.iter()) {
                    assert_eq!(cells, cut(&db.heap().get(*loc).unwrap()), "{name} {who}");
                }
                if sees_insert {
                    assert!(block.iter().any(|r| r == cut(&fresh)), "{name} {who}: own cells");
                }
                result.rows.len()
            };
            // Auto-commit readers and other transactions: as if the writer
            // had done nothing. The writer: its own insert, not its delete.
            let other = db.begin().unwrap();
            let plain = check(db.execute(q), false, true, "auto-commit");
            let foreign = check(db.execute_for_txn(q, other), false, true, "other txn");
            let own = check(db.execute_for_txn(q, writer), true, false, "writer");
            db.rollback(other).unwrap();
            assert_eq!(plain, foreign, "{name}");
            assert_eq!(own, plain, "{name}: one row in, one row out");
            if std::ptr::eq(q, &everything) {
                assert_eq!(plain, before, "{name}");
            }
        }
        db.rollback(writer).unwrap();
        assert_eq!(db.execute(&everything).rows.len(), before, "{name}: rolled back");
    }
}

/// One page visit per candidate: a warm 100-row range that returns whole
/// rows touches each candidate's page once, not once to validate it and once
/// more to copy it out.
/// A 40 K-row narrow table behind `frames` pool frames, whose consecutive
/// targets sit 401 rows apart in the heap — more than a page holds — so a
/// 100-row range is 100 rows on 100 different pages.
fn scattered_db(frames: usize) -> (Database, Arc<BufferPool>) {
    const ROWS: i64 = 40_000;
    let pool = Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), frames, 4));
    let narrow = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    let mut db = Database::new_paged(PagedTable::new(narrow, Arc::clone(&pool)), 0);
    for i in 0..ROWS {
        let m = ((i * 401) % ROWS) as f64;
        db.insert(&[Value::Int(i), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    (db, pool)
}

#[test]
fn a_warm_range_visits_each_candidate_page_once() {
    let (db, pool) = scattered_db(512);
    let table = db.heap();
    assert!(table.page_count() < 512, "the whole heap stays resident");

    let q = Query::new().range(2, 20_000.0, 20_099.0).select([0, 1, 2]);
    assert_eq!(db.plan(&q).kind(), PlanKind::Hermit);
    db.execute(&q); // warm
    let stats = pool.stats();
    let accesses = || stats.hits() + stats.misses();
    let start = accesses();
    let result = db.execute(&q);
    let visits = accesses() - start;

    let candidates = (result.rows.len() + result.false_positives) as u64;
    assert_eq!(result.rows.len(), 100);
    assert_eq!(result.projected.as_ref().map(|b| b.len()), Some(100));
    let mut pages: Vec<u32> = result.rows.iter().map(|loc| loc.block).collect();
    pages.sort_unstable();
    pages.dedup();
    assert!(pages.len() >= 95, "the fixture scatters the range: {} pages", pages.len());
    assert!(
        visits <= candidates + 1,
        "{visits} page visits for {candidates} candidates: validation and materialization \
         must share one visit"
    );
    assert!(visits >= pages.len() as u64, "every page that holds a match was visited");
}

/// The same range over a four-frame pool: nearly every candidate is alone
/// on a page the pool does not hold, so its miss reads the record through
/// instead of loading the page — and the cells emitted from those bytes are
/// the cells a later fetch reads, in one visit per candidate all the same.
#[test]
fn a_cold_range_reads_its_rows_through_and_emits_the_same_cells() {
    let (db, pool) = scattered_db(4);
    let base = Query::new().range(2, 20_000.0, 20_099.0);
    assert_eq!(db.plan(&base).kind(), PlanKind::Hermit);
    let plain = db.execute(&base);
    assert_eq!(plain.rows.len(), 100);
    let stats = pool.stats();
    let visits = || stats.hits() + stats.misses();
    let (start, read_through) = (visits(), stats.read_through());
    let whole = db.execute(&base.clone().select([0, 1, 2]));
    let candidates = (plain.rows.len() + plain.false_positives) as u64;
    assert!(visits() - start <= candidates + 1, "one visit per candidate");
    assert!(stats.read_through() - read_through > 50, "the cold candidates read through");
    assert_fused_matches(&db, "cold whole rows", &whole, &plain, &[0, 1, 2]);
    for cols in projections() {
        let q = base.clone().select(cols.clone());
        assert_fused_matches(&db, &format!("cold select {cols:?}"), &db.execute(&q), &plain, &cols);
        let batched = &db.execute_batch(&[q], &BatchOptions::default())[0];
        assert_fused_matches(&db, &format!("cold batched {cols:?}"), batched, &plain, &cols);
    }
}
