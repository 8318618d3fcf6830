//! Seeded lock-order inversion, caught by the **runtime witness**.
//!
//! The static half of the same acceptance criterion lives in
//! `crates/analysis/tests/lint.rs` (`seeding_a_cross_function_inversion_
//! fails_the_lint`); this binary proves the dynamic half: holding the
//! primary-index latch while a query takes the index latches contradicts
//! [`hermit::core::latches::LATCH_HIERARCHY`], and debug builds must
//! refuse to execute it.
//!
//! This is deliberately a **separate test binary** from `latch_witness`:
//! the witness's observed-edge set is process-global, and the inverted
//! edges seeded here would pollute that binary's declared-vs-observed
//! reconciliation.

use hermit::core::latches::{set_witness_panic, witness_violations};
use hermit::core::{Database, Query, RangePredicate};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn build_db() -> Database {
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    let mut db = Database::new(schema, 0, TidScheme::Physical);
    for pk in 0..500i64 {
        let m = pk as f64;
        db.insert(&[Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db
}

/// A guard held across `lookup_range`, which takes the host-tree latch:
/// the primary index's read guard, so rank 40 under rank 50 (physical
/// pointers: the query itself never takes the primary). In panic mode the
/// witness aborts the query; in count mode it records the violation and
/// lets execution continue.
#[test]
fn primary_guard_held_across_query_is_caught() {
    if !cfg!(debug_assertions) {
        // Release builds compile the witness out; nothing to assert.
        return;
    }
    let db = build_db();

    // Panic mode (the default): the acquisition itself must abort.
    let guard = db.primary();
    let result = catch_unwind(AssertUnwindSafe(|| {
        db.lookup_range(RangePredicate::range(2, 100.0, 200.0), None)
    }));
    let err = result.expect_err("witness must panic on the inversion");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("latch witness"), "unexpected panic: {msg}");
    drop(guard);

    // Count mode: same inversion, recorded instead of fatal.
    set_witness_panic(false);
    let before = witness_violations();
    let guard = db.primary();
    let r = db.lookup_range(RangePredicate::range(2, 100.0, 200.0), None);
    drop(guard);
    set_witness_panic(true);
    assert!(witness_violations() > before, "count mode must record the violation");
    assert!(!r.rows.is_empty(), "count mode must not alter results");

    // Sanity: the same query without the held guard is clean either way.
    let clean = db.execute(&Query::filter(RangePredicate::range(2, 100.0, 200.0)));
    assert_eq!(clean.rows.len(), r.rows.len());
}
