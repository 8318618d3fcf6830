//! Declared-vs-observed latch-edge reconciliation.
//!
//! `hermit_core::latches::LATCH_NESTING_EDGES` claims to be the exact set
//! of nestings the engine exercises. This binary drives every workload
//! family — in-memory DML, every query plan shape, reorganization,
//! transactions, durable DML with WAL commits and
//! checkpoints — then asserts **set equality both ways** against what the
//! runtime witness actually recorded:
//!
//! * an edge observed but not declared means an undeclared nesting crept
//!   into the engine (fix the code or declare and justify the edge);
//! * an edge declared but not observed means the workloads stopped
//!   exercising a load-bearing path, or the declaration is fiction.
//!
//! The observed set is process-global, which is why this reconciliation
//! owns its test binary: nothing else may take engine latches in this
//! process. (The seeded-inversion test lives in `latch_violation.rs` for
//! the same reason.) Debug builds only — release compiles the witness out.

use hermit::core::latches::{observed_nesting_edges, witness_violations, LATCH_NESTING_EDGES};
use hermit::core::recovery::DurabilityConfig;
use hermit::core::shared::SharedDatabase;
use hermit::core::{Database, Query, RangePredicate};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use std::path::PathBuf;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

fn row(pk: i64) -> Vec<Value> {
    let m = (pk % 10_000) as f64;
    let host = if pk % 17 == 0 { -5.0e7 } else { 2.0 * m };
    vec![Value::Int(pk), Value::Float(host), Value::Float(m), Value::Float(10.0 * m)]
}

/// Every query plan shape: Hermit route (range + point), baseline index
/// range, composite box scan, multi-conjunct, seq scan, projection/limit.
fn queries() -> Vec<Query> {
    vec![
        Query::filter(RangePredicate::range(2, 100.0, 400.0)),
        Query::filter(RangePredicate::point(2, 250.0)),
        Query::filter(RangePredicate::range(1, 300.0, 700.0)),
        Query::new().range(0, 100.0, 900.0).range(3, 0.0, 5_000.0),
        Query::new().range(2, 0.0, 800.0).range(1, 100.0, 500.0),
        Query::filter(RangePredicate::range(3, 50.0, 120.0)),
        Query::filter(RangePredicate::range(2, 600.0, 650.0)).select([0, 2]).limit(10),
    ]
}

/// In-memory substrate: DML, every plan shape, transactions, and the §4.4
/// reorganization of single-column and composite Hermit trees.
fn mem_workload() {
    let mut db = Database::new(schema(), 0, TidScheme::Physical);
    for pk in 0..3_000i64 {
        db.insert(&row(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db.create_composite_baseline(0, 3).unwrap();
    db.create_composite_baseline(0, 1).unwrap();
    db.create_composite_hermit(0, 2, 1).unwrap();

    let shared = SharedDatabase::new(db);
    for pk in 3_000..3_200i64 {
        shared.insert(&row(pk)).unwrap();
    }
    for pk in (0..400i64).step_by(3) {
        shared.delete_by_pk(pk).unwrap();
    }
    for q in queries() {
        shared.execute(&q);
    }
    // Transactions: a committed writer and a rolled-back one, with a
    // snapshot read in between.
    let txn = shared.begin().unwrap();
    for pk in 10_000..10_020i64 {
        shared.insert_txn(txn, &row(pk)).unwrap();
    }
    shared.execute_for_txn(&queries()[0], txn);
    shared.commit(txn).unwrap();
    let loser = shared.begin().unwrap();
    shared.insert_txn(loser, &row(20_000)).unwrap();
    shared.rollback(loser).unwrap();
    // Reorganization until every queue drains.
    while shared.maintenance_pass(64) > 0 {}
    for q in queries() {
        shared.execute(&q);
    }
}

/// Durable (paged) substrate: quiesce/WAL-bracketed DML, WAL commit
/// boundaries, checkpoints, and durable transactions.
fn durable_workload() {
    let dir: PathBuf = std::env::temp_dir().join(format!("hermit-witness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::default();
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    for pk in 0..2_000i64 {
        db.insert(&row(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    for pk in (0..300i64).step_by(7) {
        db.delete_by_pk(pk).unwrap();
    }
    db.wal_commit().unwrap();
    db.checkpoint(&dir).unwrap();

    let shared = SharedDatabase::new(db);
    for pk in 5_000..5_100i64 {
        shared.insert(&row(pk)).unwrap();
    }
    let txn = shared.begin().unwrap();
    shared.insert_txn(txn, &row(30_000)).unwrap();
    shared.commit(txn).unwrap();
    let loser = shared.begin().unwrap();
    shared.insert_txn(loser, &row(31_000)).unwrap();
    shared.rollback(loser).unwrap();
    for q in queries() {
        shared.execute(&q);
    }
    shared.checkpoint(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn declared_edges_match_observed_edges_exactly() {
    if !cfg!(debug_assertions) {
        // Release builds compile the witness out; nothing to reconcile.
        return;
    }
    mem_workload();
    durable_workload();

    let observed = observed_nesting_edges();
    let declared: Vec<(u32, u32)> = LATCH_NESTING_EDGES.to_vec();

    let undeclared: Vec<_> = observed.iter().filter(|e| !declared.contains(e)).collect();
    let unexercised: Vec<_> = declared.iter().filter(|e| !observed.contains(e)).collect();
    assert!(
        undeclared.is_empty() && unexercised.is_empty(),
        "latch-edge reconciliation failed\n  observed but undeclared: {undeclared:?}\n  \
         declared but never observed: {unexercised:?}\n  full observed set: {observed:?}",
    );
    assert_eq!(witness_violations(), 0, "workloads must not trip the witness");
}
