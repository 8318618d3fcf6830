//! Index construction on the set-up and restart path. Every build is one
//! pass over the heap that boxes no row, and builds what the slower builds
//! it replaced built:
//!
//! * the benchmark's Synthetic table gives the TRS-Tree (and the index
//!   bytes per row) the benchmark has always reported;
//! * a baseline B+-tree bulk-loaded over a heap with deletes holds exactly
//!   the `(key, tid)` entries an oracle reads back through `PagedTable::get`;
//! * the host tree `Database::open` rebuilds equals a fresh
//!   `create_baseline_index` over the same recovered heap;
//! * the primary index `Database::open` rebuilds costs under 19 B a key.

use hermit::core::{Database, DurabilityConfig, SecondaryIndex};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, F64Key, Schema, Tid, TidScheme, Value};
use hermit::workloads::synthetic::served_table;
use std::sync::Arc;

const HOST: usize = 1;
const TARGET: usize = 2;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float_null("target"),
        ColumnDef::float("payload"),
    ])
}

/// A paged database over an in-memory page store, with a pool that holds
/// `pool_pages` pages.
fn paged(pool_pages: usize) -> Database {
    let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pool_pages));
    Database::new_paged(PagedTable::new(schema(), pool), 0)
}

/// The benchmark's `read-hot` table builds the TRS-Tree it always built:
/// one leaf, the 1 % noise buffered, and `index_bytes_per_row` exactly the
/// value a `read-hot` run reports.
#[test]
fn the_benchmark_table_builds_the_tree_it_always_built() {
    let rows = served_table(1, 150_000);
    assert_eq!(rows.len(), 154_688);
    let mut db = paged(1_024);
    for row in &rows {
        db.insert(row).unwrap();
    }
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    let Some(SecondaryIndex::Hermit { trs, .. }) = db.index(TARGET) else { panic!("hermit index") };
    let stats = trs.stats();
    assert_eq!(
        (stats.height, stats.leaves, stats.internals, stats.outliers, stats.covered),
        (1, 1, 0, 1_546, 154_688)
    );
    // What the benchmark reads after its checkpoint, which compacts the
    // tree: the buffer's 16-byte entries and one 80-byte node.
    let bytes_per_row = trs.compacted_memory_bytes() as f64 / rows.len() as f64;
    assert_eq!(bytes_per_row, (1_546.0 * 16.0 + 80.0) / 154_688.0);
    assert_eq!(bytes_per_row, 0.16042614811750103);
}

/// Every `(key, tid)` a baseline index holds, in tree order.
fn entries(db: &Database, col: usize) -> Vec<(F64Key, Tid)> {
    let Some(SecondaryIndex::Baseline(tree)) = db.index(col) else { panic!("baseline index") };
    let mut out = Vec::new();
    tree.read().for_each_in_range(&F64Key(f64::NEG_INFINITY), &F64Key(f64::INFINITY), |k, t| {
        out.push((*k, *t))
    });
    out
}

/// Load 3 000 rows (every seventh target NULL, keys repeating), delete
/// every fifth; return the tid of every row ever inserted.
fn load_with_deletes(db: &Database) -> Vec<(i64, Tid)> {
    let mut tids = Vec::new();
    for pk in 0..3_000i64 {
        let target = if pk % 7 == 3 { Value::Null } else { Value::Float((pk % 400) as f64) };
        let row = [Value::Int(pk), Value::Float(2.0 * pk as f64), target, Value::Float(0.5)];
        tids.push((pk, db.insert(&row).unwrap()));
    }
    for pk in (0..3_000i64).step_by(5) {
        db.delete_by_pk(pk).unwrap();
    }
    tids
}

/// What the index on `col` must hold: each live row's key, read back
/// through `PagedTable::get`, with its tid — in key order, equal keys in the
/// order the rows were inserted.
fn oracle(db: &Database, tids: &[(i64, Tid)], col: usize) -> Vec<(F64Key, Tid)> {
    let mut want: Vec<(F64Key, Tid)> = tids
        .iter()
        .filter_map(|&(pk, tid)| {
            let loc = db.primary().get(pk)?;
            db.heap().get(loc).unwrap()[col].as_f64().map(|k| (F64Key(k), tid))
        })
        .collect();
    want.sort_by_key(|&(k, _)| k);
    want
}

/// A paged heap through a pool far smaller than the table (the scan
/// evicts as it goes), and the in-memory heap under logical pointers: the
/// one-pass bulk load holds exactly the oracle's entries.
#[test]
fn baseline_bulk_load_over_a_heap_with_deletes_matches_the_oracle() {
    let mut on_pages = paged(4);
    let mut in_memory = Database::new(schema(), 0, TidScheme::Logical);
    for db in [&mut on_pages, &mut in_memory] {
        let tids = load_with_deletes(db);
        for col in [HOST, TARGET] {
            db.create_baseline_index(col, false).unwrap();
            let got = entries(db, col);
            assert_eq!(got, oracle(db, &tids, col), "column {col} ({:?})", db.scheme());
            assert_eq!(got.len(), if col == HOST { 2_400 } else { 2_057 });
        }
        assert!(db.create_baseline_index(9, false).is_err(), "unknown column is an error");
    }
    let table = on_pages.heap();
    assert!(table.pool().stats().evictions() > 0, "the heap should not fit the pool");
}

/// `Database::open` rebuilds the host tree from its heap pass; a fresh
/// `create_baseline_index` over the same recovered heap builds the same
/// tree — after WAL replay of post-checkpoint inserts and deletes too.
#[test]
fn the_host_tree_open_rebuilds_equals_a_fresh_bulk_load() {
    let dir = std::env::temp_dir().join(format!("hermit-index-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig { pool_pages: 8, ..Default::default() };
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    load_with_deletes(&db);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db.checkpoint(&dir).unwrap();
    for pk in 3_000..3_100i64 {
        let row = [Value::Int(pk), Value::Float(1.5 * pk as f64), Value::Null, Value::Float(0.25)];
        db.insert(&row).unwrap();
    }
    for pk in (1..3_000i64).step_by(11) {
        if db.primary().get(pk).is_some() {
            db.delete_by_pk(pk).unwrap();
        }
    }
    db.wal_commit().unwrap();
    let before = entries(&db, HOST);
    drop(db);

    let mut back = Database::open(&dir, &config).unwrap();
    let rebuilt = entries(&back, HOST);
    assert_eq!(rebuilt, before, "the reopened host tree lost or gained entries");
    back.create_baseline_index(HOST, true).unwrap();
    assert_eq!(entries(&back, HOST), rebuilt);
    assert_eq!(rebuilt.len(), back.len(), "every live row is in the host tree");
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}

/// `Database::open` builds the primary index from the reopened heap's
/// slots: the recovered keys, every fifth one deleted, are one run with a
/// liveness bit per key — far under the 19 B a key of a hash's slots.
#[test]
fn a_reopened_primary_index_costs_under_19_bytes_a_key() {
    let dir = std::env::temp_dir().join(format!("hermit-primary-size-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::default();
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    load_with_deletes(&db);
    db.create_baseline_index(HOST, true).unwrap();
    db.checkpoint(&dir).unwrap();
    drop(db);

    let back = Database::open(&dir, &config).unwrap();
    let n = back.len();
    assert_eq!(n, 2_400);
    let primary = back.primary();
    assert_eq!(primary.tier_lens(), (n, 0), "every recovered key is in the run");
    let bytes = primary.memory_bytes();
    assert!(bytes < n, "{bytes} B for {n} keys");
    drop(primary);
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}
