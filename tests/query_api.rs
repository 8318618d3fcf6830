//! Integration tests for the unified Query API: the cost-based planner,
//! the stable EXPLAIN format, the seq-scan fallback, `LIMIT` order, and
//! agreement between one query and a batch. Answers are held to the
//! reference model (`hermit_fault::model`) of the rows inserted.
//!
//! The EXPLAIN assertions pin the exact `Display` output for all four plan
//! shapes (hermit route, index range scan, composite box scan, seq scan) —
//! the format is a public artifact (README, `examples/query_plans.rs`) and
//! must not drift silently.

use hermit::core::{AccessPath, BatchOptions, Database, PlanKind, Query, RangePredicate};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use std::sync::Arc;

const TIME: usize = 0;
const DJ: usize = 1;
const SP: usize = 2;
const VOL: usize = 3;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("time"),
        ColumnDef::float("dj"),
        ColumnDef::float("sp"),
        ColumnDef::float("vol"),
    ])
}

/// `days` rows of the stock fixture with the DJ baseline and SP Hermit
/// indexes, and the model of the rows.
fn load(mut db: Database, days: usize) -> (Database, Model) {
    let mut model = Model::new(TIME);
    let mut m = Mirror::new(&db, &mut model);
    for t in 0..days {
        let dj = 3_000.0 + t as f64 * 0.5 + ((t % 97) as f64 - 48.0);
        let sp = dj / 8.0 + ((t % 13) as f64 - 6.0) * 0.05;
        let vol = 1.0e6 + ((t * 7_919) % 100_000) as f64;
        m.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp), Value::Float(vol)])
            .unwrap();
    }
    db.create_baseline_index(DJ, true).unwrap();
    db.create_hermit_index(SP, DJ).unwrap();
    (db, model)
}

/// The `examples/query_plans.rs` fixture: every index kind the planner
/// knows, plus the deliberately-unindexed VOL column.
fn stock_db(scheme: TidScheme, days: usize) -> (Database, Model) {
    let (mut db, model) = load(Database::new(schema(), TIME, scheme), days);
    db.create_composite_baseline(TIME, DJ).unwrap();
    db.create_composite_hermit(TIME, SP, DJ).unwrap();
    (db, model)
}

/// Paged twin of [`stock_db`] (physical tids only, no composite indexes:
/// the paged substrate supports neither).
fn paged_stock_db(days: usize) -> (Database, Model) {
    let pool = Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), 16, 2));
    load(Database::new_paged(PagedTable::new(schema(), pool), TIME), days)
}

#[test]
fn explain_hermit_route_is_stable() {
    let (db, _) = stock_db(TidScheme::Physical, 20_000);
    let plan = db.plan(&Query::new().range(SP, 700.0, 710.0));
    assert_eq!(plan.kind(), PlanKind::Hermit);
    assert_eq!(
        plan.to_string(),
        "Query Plan [hermit route] (cost=769.3, candidates~167, rows~159, heap_rows=20000)\n\
         \x20 phase 1: TRS-Tree translate sp#2 in [700, 710] -> ranges on dj#1\n\
         \x20 phase 2: probe baseline B+-tree on dj#1\n\
         \x20 phase 3: resolve tids (physical tids: direct)\n\
         \x20 phase 4: validate sp#2 in [700, 710]\n"
    );
}

#[test]
fn explain_baseline_is_stable() {
    let (db, _) = stock_db(TidScheme::Physical, 20_000);
    let plan = db.plan(&Query::new().range(DJ, 5_600.0, 5_680.0));
    assert_eq!(plan.kind(), PlanKind::Baseline);
    assert_eq!(
        plan.to_string(),
        "Query Plan [index range scan] (cost=725.8, candidates~159, rows~159, heap_rows=20000)\n\
         \x20 phase 2: range scan baseline B+-tree on dj#1 in [5600, 5680] (exact)\n\
         \x20 phase 3: resolve tids (physical tids: direct)\n\
         \x20 phase 4: validate (exact index hits; nothing to re-check)\n"
    );
}

#[test]
fn explain_composite_box_is_stable() {
    let (db, _) = stock_db(TidScheme::Physical, 20_000);
    let plan = db.plan(&Query::new().range(TIME, 5_000.0, 10_000.0).range(SP, 700.0, 800.0));
    assert_eq!(plan.kind(), PlanKind::Composite);
    assert_eq!(
        plan.to_string(),
        "Query Plan [composite box scan] (cost=4113.9, candidates~398, rows~396, heap_rows=20000)\n\
         \x20 phase 1: TRS-Tree translate sp#2 in [700, 800] -> ranges on dj#1\n\
         \x20 phase 2: box scan composite B+-tree on (time#0 in [5000, 10000], dj#1 ranges)\n\
         \x20 phase 3: resolve tids (physical tids: direct)\n\
         \x20 phase 4: validate time#0 in [5000, 10000] AND sp#2 in [700, 800]\n"
    );
}

#[test]
fn explain_seq_scan_is_stable() {
    let (db, _) = stock_db(TidScheme::Physical, 20_000);
    let q = Query::new().range(VOL, 1_000_000.0, 1_002_000.0).select([TIME, VOL]).limit(3);
    let plan = db.plan(&q);
    assert_eq!(plan.kind(), PlanKind::Scan);
    assert_eq!(
        plan.to_string(),
        "Query Plan [seq scan] (cost=20000.0, candidates~20000, rows~400, heap_rows=20000)\n\
         \x20 phase 2: seq scan heap (20000 rows)\n\
         \x20 phase 4: validate vol#3 in [1000000, 1002000]\n\
         \x20 limit: 3\n\
         \x20 project: [time#0, vol#3]\n"
    );
}

#[test]
fn unindexed_column_scans_instead_of_silent_empty() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, model) = stock_db(scheme, 5_000);
        let pred = RangePredicate::range(VOL, 1_000_000.0, 1_010_000.0);
        // The forced-index entry keeps its contract: no index, no rows.
        assert!(db.lookup_range(pred, None).rows.is_empty(), "forced-index contract preserved");
        // The Query surface returns the actual rows via the scan plan.
        let q = Query::filter(pred);
        assert!(!model.answer(&q, None).is_empty(), "fixture must produce matches");
        let r = db.execute(&q);
        model.check_result(&db, &q, &r, None).unwrap();
        assert_eq!(r.false_positives, 0, "a scan fetches no speculative candidates");
    }
}

#[test]
fn execute_agrees_with_legacy_wrappers_on_indexed_paths() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, _) = stock_db(scheme, 10_000);
        for pred in
            [RangePredicate::range(SP, 700.0, 705.0), RangePredicate::range(DJ, 5_600.0, 5_650.0)]
        {
            let legacy = db.lookup_range(pred, None);
            let plan = db.plan(&Query::filter(pred));
            let via_plan = db.execute_plan(&plan);
            assert_eq!(legacy.rows, via_plan.rows, "{scheme:?} {pred:?}");
            assert_eq!(legacy.false_positives, via_plan.false_positives);
            assert_eq!(legacy.unresolved, via_plan.unresolved);
        }
    }
}

#[test]
fn wide_predicate_on_hermit_column_prefers_scan() {
    let (db, _) = stock_db(TidScheme::Physical, 10_000);
    // Selectivity ~1: fetching every candidate through the index estate
    // costs more than streaming the heap once.
    let plan = db.plan(&Query::new().range(SP, 0.0, 1.0e9));
    assert_eq!(plan.kind(), PlanKind::Scan);
    let r = db.execute_plan(&plan);
    assert_eq!(r.rows.len(), 10_000);
}

#[test]
fn multi_conjunct_residuals_validate_at_base_table() {
    let (db, model) = stock_db(TidScheme::Physical, 20_000);
    let q = Query::new()
        .range(SP, 700.0, 800.0)
        .range(VOL, 1_000_000.0, 1_050_000.0)
        .range(TIME, 0.0, 15_000.0);
    model.check_result(&db, &q, &db.execute(&q), None).unwrap();
}

#[test]
fn execute_batch_matches_execute_across_plan_shapes() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, _) = stock_db(scheme, 10_000);
        let queries = vec![
            Query::new().range(SP, 700.0, 710.0),
            Query::new().range(DJ, 5_600.0, 5_680.0),
            Query::new().range(TIME, 2_000.0, 4_000.0).range(SP, 650.0, 700.0),
            Query::new().range(VOL, 1_000_000.0, 1_020_000.0),
            Query::new().range(SP, 9.0e8, 9.1e8), // out of domain
        ];
        let batched = db.execute_batch(&queries, &BatchOptions::default());
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            let s = db.execute(q);
            assert_eq!(s.rows, b.rows, "{scheme:?} {q:?}");
            assert_eq!(s.false_positives, b.false_positives, "{scheme:?} {q:?}");
            assert_eq!(s.unresolved, b.unresolved, "{scheme:?} {q:?}");
        }
    }
}

#[test]
fn composite_box_query_matches_oracle() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, model) = stock_db(scheme, 20_000);
        let q = Query::new().range(TIME, 5_000.0, 10_000.0).range(SP, 700.0, 800.0);
        let plan = db.plan(&q);
        assert_eq!(plan.kind(), PlanKind::Composite, "{scheme:?}");
        let r = db.execute_plan(&plan);
        model.check_result(&db, &q, &r, None).unwrap();
        // Batched path produces the same result through the page-ordered
        // validator.
        let b = &db.execute_plans(std::slice::from_ref(&plan), &BatchOptions::default())[0];
        assert_eq!(b.rows, r.rows, "{scheme:?}");
        assert_eq!(b.false_positives, r.false_positives, "{scheme:?}");
    }
}

#[test]
fn composite_baseline_plan_is_exact() {
    let (db, model) = stock_db(TidScheme::Physical, 20_000);
    // Narrow TIME, wide-ish DJ: the (time, dj) composite baseline beats
    // both the single-column DJ index and the scan.
    let q = Query::new().range(TIME, 5_000.0, 5_500.0).range(DJ, 5_400.0, 6_600.0);
    let plan = db.plan(&q);
    assert!(
        matches!(plan.access, AccessPath::Index { leading: Some(_), .. }),
        "expected the composite baseline box, got: {plan}"
    );
    let r = db.execute_plan(&plan);
    model.check_result(&db, &q, &r, None).unwrap();
    assert_eq!(r.false_positives, 0, "the box scan is exact; nothing to validate away");
    let b = &db.execute_batch(std::slice::from_ref(&q), &BatchOptions::default())[0];
    assert_eq!(b.rows, r.rows);
    assert_eq!(b.false_positives, 0);
}

#[test]
fn limit_truncates_and_projection_materializes() {
    let (db, model) = stock_db(TidScheme::Physical, 5_000);
    let full = db.execute(&Query::new().range(SP, 650.0, 700.0));
    assert!(full.rows.len() > 10);
    assert!(full.projected.is_none(), "no projection requested, none paid for");

    // The projected cells are the rows' own, aligned with the locations.
    let q = Query::new().range(SP, 650.0, 700.0).select([TIME, SP]).limit(7);
    let r = db.execute(&q);
    assert_eq!(r.rows, full.rows[..7], "the limit keeps the lowest row locations");
    assert_eq!(r.projected.as_ref().map(|p| p.cells_per_row()), Some(2));
    model.check_result(&db, &q, &r, None).unwrap();

    // Limit on the scan plan stops the scan early, at the same prefix.
    let all = Query::new().range(VOL, 1_000_000.0, 1_050_000.0);
    let full = db.execute(&all);
    model.check_result(&db, &all, &full, None).unwrap();
    assert_eq!(db.execute(&all.limit(5)).rows, full.rows[..5]);
}

/// `LIMIT n` keeps the `n` lowest row locations of the unlimited answer —
/// on every plan shape, substrate and tid scheme, through `execute` and
/// `execute_batch` alike — because every plan emits rows in heap order.
#[test]
fn limit_keeps_the_lowest_row_locations_on_every_plan() {
    const DAYS: usize = 8_000;
    let dbs = [
        ("mem/physical", stock_db(TidScheme::Physical, DAYS)),
        ("mem/logical", stock_db(TidScheme::Logical, DAYS)),
        ("paged", paged_stock_db(DAYS)),
    ];
    for (name, (db, model)) in dbs {
        // Deletions leave holes the answer must skip, not count.
        let mut model = model;
        let mut m = Mirror::new(&db, &mut model);
        for pk in (0..DAYS as i64).step_by(7) {
            m.delete(pk).unwrap();
        }
        let mut kinds = Vec::new();
        for base in [
            Query::new().range(SP, 650.0, 720.0),
            Query::new().range(DJ, 5_000.0, 5_400.0),
            Query::new().range(TIME, 2_000.0, 6_000.0).range(SP, 650.0, 720.0),
            Query::new().range(TIME, 2_000.0, 6_000.0).range(DJ, 4_000.0, 5_000.0),
            Query::new().range(VOL, 1_000_000.0, 1_030_000.0),
        ] {
            let full = db.execute(&base);
            model.check_result(&db, &base, &full, None).unwrap();
            let kind = db.plan(&base).kind();
            kinds.push(kind);
            assert!(full.rows.windows(2).all(|w| w[0] < w[1]), "{name} {kind:?}: heap order");
            assert!(full.rows.len() > 40, "{name} {kind:?}: {} rows", full.rows.len());
            for n in [0, 1, 13, full.rows.len(), full.rows.len() + 5] {
                let q = base.clone().limit(n).select([TIME]);
                let want = &full.rows[..n.min(full.rows.len())];
                let alone = db.execute(&q);
                let batched =
                    &db.execute_batch(&[q.clone(), q.clone()], &BatchOptions::default())[1];
                for (how, r) in [("execute", &alone), ("execute_batch", batched)] {
                    assert_eq!(r.rows, want, "{name} {kind:?} limit {n} {how}");
                    model.check_result(&db, &q, r, None).unwrap(); // the cells follow the rows
                }
            }
        }
        for kind in [PlanKind::Hermit, PlanKind::Baseline, PlanKind::Scan] {
            assert!(kinds.contains(&kind), "{name}: no {kind:?} plan");
        }
        assert_eq!(kinds.contains(&PlanKind::Composite), !name.starts_with("paged"), "{name}");
    }
}

#[test]
fn empty_query_scans_every_row() {
    let (db, _) = stock_db(TidScheme::Physical, 2_000);
    let r = db.execute(&Query::new());
    assert_eq!(r.rows.len(), 2_000);
    let plan = db.plan(&Query::new());
    assert_eq!(plan.kind(), PlanKind::Scan);
}

#[test]
fn inverted_and_out_of_domain_queries_are_empty_everywhere() {
    let (db, _) = stock_db(TidScheme::Physical, 2_000);
    for q in [
        Query::new().range(SP, 800.0, 700.0),  // inverted, hermit column
        Query::new().range(VOL, 500.0, 400.0), // inverted, unindexed column
        Query::new().range(DJ, 9.0e9, 9.1e9),  // out of domain, baseline column
        Query::new().range(SP, 100.0, 200.0).range(VOL, 10.0, 5.0), // contradictory conjunct
    ] {
        let r = db.execute(&q);
        assert!(r.rows.is_empty(), "{q:?}");
        let b = &db.execute_batch(std::slice::from_ref(&q), &BatchOptions::default())[0];
        assert!(b.rows.is_empty(), "{q:?} (batched)");
    }
}

#[test]
fn composite_indexes_are_maintained_across_delete_and_reinsert() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, mut model) = stock_db(scheme, 10_000);
        // Delete rows inside the box, then re-insert one of them with its
        // original values: without delete-side composite maintenance the
        // stale entry and the fresh one both qualify and (under logical
        // tids) resolve to the same row — a duplicate.
        let reinsert = model.rows()[&5_200].clone();
        let mut m = Mirror::new(&db, &mut model);
        for pk in [5_100i64, 5_200, 5_300] {
            m.delete(pk).unwrap();
        }
        m.insert(&reinsert).unwrap();

        let q = Query::new().range(TIME, 5_000.0, 10_000.0).range(SP, 700.0, 800.0);
        assert!(model.answer(&q, None).contains(&(5_200, reinsert)), "re-insert is in the box");
        let plan = db.plan(&q);
        assert_eq!(plan.kind(), PlanKind::Composite, "{scheme:?}");
        let r = db.execute_plan(&plan);
        model.check_result(&db, &q, &r, None).unwrap();
        assert_eq!(r.unresolved, 0, "{scheme:?}: deleted entries must leave the composite tree");
    }
}

#[test]
fn deleted_rows_never_resurface_through_any_plan() {
    for scheme in [TidScheme::Physical, TidScheme::Logical] {
        let (db, mut model) = stock_db(scheme, 5_000);
        let mut m = Mirror::new(&db, &mut model);
        for pk in (0..5_000).step_by(10) {
            m.delete(pk).unwrap();
        }
        for q in [
            Query::new().range(SP, 650.0, 700.0),
            Query::new().range(DJ, 5_000.0, 5_400.0),
            Query::new().range(VOL, 1_000_000.0, 1_020_000.0),
            Query::new().range(TIME, 1_000.0, 2_000.0).range(SP, 0.0, 1.0e9),
        ] {
            model.check_result(&db, &q, &db.execute(&q), None).unwrap();
        }
    }
}
