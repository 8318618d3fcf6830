//! Durability end-to-end: checkpoint a disk-backed database, "crash" by
//! dropping every in-memory structure, reopen from the directory, and show
//! the queries answer identically — including DML that happened after the
//! checkpoint and only survived through the write-ahead log, and a box query
//! through a composite Hermit index on `(id, calibrated)`.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```

use hermit::core::recovery::DurabilityConfig;
use hermit::core::{Database, Query, QueryResult, RangePredicate};
use hermit::storage::{ColumnDef, Schema, Value};

fn row(pk: i64, m: f64) -> Vec<Value> {
    vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]
}

/// The ids of a result's rows, ascending.
fn ids(db: &Database, result: &QueryResult) -> Vec<i64> {
    let mut ids: Vec<i64> =
        result.rows.iter().map(|&loc| db.heap().get(loc).unwrap()[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

fn main() {
    let dir = std::env::temp_dir().join(format!("hermit-durable-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::default();

    let schema = Schema::new(vec![
        ColumnDef::int("id"),
        ColumnDef::float("reading"),    // host column
        ColumnDef::float("calibrated"), // target column, correlated
    ]);
    let mut db = Database::create_durable(schema, 0, &dir, &config).unwrap();

    println!("loading 50k rows into {} …", dir.display());
    for i in 0..50_000i64 {
        db.insert(&row(i, i as f64)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    // A composite Hermit index on (id, calibrated), routed through the
    // composite baseline on (id, reading).
    db.create_composite_baseline(0, 1).unwrap();
    let composite = db.create_composite_hermit(0, 2, 1).unwrap();

    println!("checkpoint…");
    db.checkpoint(&dir).unwrap();

    // Post-checkpoint DML: only the WAL can carry these across a crash.
    for i in 0..500i64 {
        db.insert(&row(100_000 + i, 60_000.0 + i as f64)).unwrap();
    }
    db.delete_by_pk(17).unwrap();
    db.wal_commit().unwrap();

    let probe = Query::filter(RangePredicate::range(2, 60_100.0, 60_149.0));
    let before = db.execute(&probe).rows.len();
    let len_before = db.len();
    let (leading, value) = (
        RangePredicate::range(0, 100_000.0, 100_300.0),
        RangePredicate::range(2, 60_100.0, 60_400.0),
    );
    let box_before = ids(&db, &db.lookup_box(composite, leading, value));
    println!(
        "pre-crash : {len_before} live rows, probe finds {before}, composite box finds {}",
        box_before.len()
    );

    drop(db); // the "crash": heap frames, indexes, stats — all gone

    let back = Database::open(&dir, &config).unwrap();
    let after = back.execute(&probe).rows.len();
    let box_after = ids(&back, &back.lookup_box(composite, leading, value));
    println!(
        "recovered : {} live rows, probe finds {after}, composite box finds {}",
        back.len(),
        box_after.len()
    );

    assert_eq!(back.len(), len_before, "live row count must survive restart");
    assert_eq!(after, before, "query results must survive restart");
    assert_eq!(box_before.len(), 201, "the box holds the post-checkpoint ids 100 100..=100 300");
    assert_eq!(box_after, box_before, "composite box results must survive restart");
    assert!(
        back.execute(&Query::filter(RangePredicate::point(0, 17.0))).rows.is_empty(),
        "WAL-logged delete must survive restart"
    );
    println!("restart-survivable: checkpoint + WAL replay verified ✓");
    let _ = std::fs::remove_dir_all(&dir);
}
