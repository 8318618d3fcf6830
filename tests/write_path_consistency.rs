//! Write-path consistency regressions.
//!
//! * `delete_by_pk` must touch the base table *before* any index: a failing
//!   heap delete leaves every index, the primary map, and the heap exactly
//!   as they were (exercised with a fault-injecting pool hook).
//! * The planner must cost table cardinality from the live `heap.len()` and
//!   live per-column counts, not the append-only observed stats — after
//!   heavy deletion the seq-scan fallback stays correctly priced.

use hermit::core::{Database, PlanKind, Query, RangePredicate, SecondaryIndex};
use hermit::fault::StoreFaults;
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, F64Key, Schema, StorageError, TidScheme, Value};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

#[test]
fn failed_heap_delete_leaves_indexes_consistent() {
    // The shared fault-injection hook (poisoned reads are the
    // deterministic stand-in for a device error mid-statement).
    let store = StoreFaults::new();
    let pool = BufferPool::new(Arc::new(SimulatedPageStore::new()), 8);
    let pool = Arc::new(pool.with_fault_hook(Some(store.hook())));
    let table = PagedTable::new(schema(), Arc::clone(&pool));
    let mut db = Database::new_paged(table, 0);
    for i in 0..2_000i64 {
        let m = i as f64;
        db.insert(&[Value::Int(i), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();

    // Evict everything (flushing dirty frames), then poison the device: the
    // delete's single fetch-and-tombstone page access must fail.
    pool.clear().unwrap();
    store.set_fail_reads(true);
    let err = db.delete_by_pk(500);
    assert!(matches!(err, Err(StorageError::Io(_))), "expected injected I/O failure, got {err:?}");

    // Nothing may have changed: the row is live, the primary still maps it,
    // and the host index still carries its entry. (Under the old ordering —
    // indexes maintained before the heap delete — the index entries would
    // already be gone here, leaving a live row unreachable by index.)
    store.set_fail_reads(false);
    assert_eq!(db.len(), 2_000, "heap must be untouched by the failed delete");
    assert!(db.primary().get(500).is_some(), "primary entry must survive");
    let SecondaryIndex::Baseline(host_tree) = db.index(1).unwrap() else { unreachable!() };
    assert!(host_tree.read().contains_key(&F64Key(1_000.0)), "host index entry must survive");
    let r = db.execute(&Query::filter(RangePredicate::point(2, 500.0)));
    assert_eq!(r.rows.len(), 1, "row must remain reachable through the Hermit route");

    // Once the device heals, the same delete succeeds and the indexes
    // follow the base table.
    db.delete_by_pk(500).unwrap();
    assert_eq!(db.len(), 1_999);
    assert!(db.primary().get(500).is_none());
    let SecondaryIndex::Baseline(host_tree) = db.index(1).unwrap() else { unreachable!() };
    assert!(!host_tree.read().contains_key(&F64Key(1_000.0)));
    let r = db.execute(&Query::filter(RangePredicate::point(2, 500.0)));
    assert!(r.rows.is_empty());
}

#[test]
fn double_delete_reports_missing_pk_without_index_damage() {
    let mut db = Database::new(schema(), 0, TidScheme::Logical);
    for i in 0..100i64 {
        db.insert(&[Value::Int(i), Value::Float(2.0 * i as f64), Value::Float(i as f64)]).unwrap();
    }
    db.create_baseline_index(2, false).unwrap();
    db.delete_by_pk(42).unwrap();
    assert_eq!(db.delete_by_pk(42), Err(StorageError::PkNotFound { pk: 42 }));
    let SecondaryIndex::Baseline(tree) = db.index(2).unwrap() else { unreachable!() };
    assert_eq!(tree.read().len(), 99, "double delete must not touch other entries");
}

/// The planner's table cardinality must track deletions: the scan fallback
/// is priced from the live `heap.len()`, and per-column live counts shrink
/// with deletes, so a mostly-emptied table plans (and costs) like the small
/// table it now is — not like the big one the append-only stats remember.
#[test]
fn planner_costs_track_heavy_deletion() {
    let mut db = Database::new(schema(), 0, TidScheme::Physical);
    for i in 0..50_000i64 {
        let m = i as f64;
        db.insert(&[Value::Int(i), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(2, false).unwrap();

    // A wide predicate (~40% of the domain): the scan wins while the table
    // is large, because the index path pays per candidate.
    let wide = Query::filter(RangePredicate::range(2, 0.0, 20_000.0));
    let before = db.plan(&wide);
    assert_eq!(before.kind(), PlanKind::Scan);
    assert_eq!(before.heap_rows, 50_000);

    // Delete 99% of the table.
    for pk in 0..49_500i64 {
        db.delete_by_pk(pk).unwrap();
    }
    let after = db.plan(&wide);
    assert_eq!(after.heap_rows, 500, "plan-time cardinality must be the live row count");
    assert!(
        after.est_cost < before.est_cost / 50.0,
        "scan cost must shrink with the table: {} -> {}",
        before.est_cost,
        after.est_cost
    );
    // The same wide predicate now matches none of the 500 survivors
    // (they live in [49_500, 50_000)), and execution agrees with the plan.
    assert!(db.execute(&wide).rows.is_empty());

    // A predicate over the survivors: estimates are floored on the live
    // non-null count, so the index path stays sensibly priced.
    let live = Query::filter(RangePredicate::range(2, 49_500.0, 49_999.0));
    let plan = db.plan(&live);
    assert!(plan.est_candidates <= 500.0 + 1.0, "candidates cannot exceed the live table");
    assert_eq!(db.execute(&live).rows.len(), 500);
}

/// A column whose live values were all deleted matches nothing, even though
/// its append-only range stats still overlap the predicate.
#[test]
fn emptied_table_plans_zero_rows() {
    let db = Database::new(schema(), 0, TidScheme::Physical);
    for i in 0..1_000i64 {
        db.insert(&[Value::Int(i), Value::Float(1.0), Value::Float(i as f64)]).unwrap();
    }
    for pk in 0..1_000i64 {
        db.delete_by_pk(pk).unwrap();
    }
    let plan = db.plan(&Query::filter(RangePredicate::range(2, 0.0, 999.0)));
    assert_eq!(plan.heap_rows, 0);
    assert_eq!(plan.est_rows, 0.0, "no live values -> no estimated rows");
}
