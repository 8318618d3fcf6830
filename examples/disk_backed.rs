//! Hermit on a disk-based RDBMS (§7.8): tuples live in 8 KiB slotted pages
//! behind a buffer pool (PostgreSQL style, physical pointers), while the
//! TRS-Tree and the host B+-tree stay in memory. The per-query cost is
//! dominated by heap page fetches; TRS-Tree translation is effectively
//! free.
//!
//! ```text
//! cargo run --release --example disk_backed
//! ```

use hermit::core::{Database, RangePredicate};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Simulated SSD: 20 µs per page access, 128-page (1 MiB) buffer pool.
    let store = Arc::new(SimulatedPageStore::with_latency(
        Duration::from_micros(20),
        Duration::from_micros(20),
    ));
    let pool = Arc::new(BufferPool::new(store, 128));

    let schema = Schema::new(vec![
        ColumnDef::int("id"),
        ColumnDef::float("reading"),
        ColumnDef::float("calibrated"), // calibrated ≈ 1.25·reading − 2
    ]);
    let table = PagedTable::new(schema, Arc::clone(&pool));
    let mut db = Database::new_paged(table, 0);

    println!("loading 200k rows into slotted pages…");
    for i in 0..200_000i64 {
        let reading = (i % 50_021) as f64 * 0.13;
        db.insert(&[Value::Int(i), Value::Float(reading), Value::Float(1.25 * reading - 2.0)])
            .unwrap();
    }
    println!("heap: {} pages, pool capacity {} pages", db.heap().page_count(), pool.capacity());

    // Existing index on `reading`; Hermit index on `calibrated` routed
    // through it. Both index structures live in memory.
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();

    pool.stats().reset();
    let t0 = Instant::now();
    let mut rows = 0usize;
    let queries = 50;
    for q in 0..queries {
        let lb = (q * 97) as f64;
        let r = db.lookup_range(RangePredicate::range(2, lb, lb + 60.0), None);
        rows += r.rows.len();
    }
    let elapsed = t0.elapsed();
    println!(
        "{queries} range queries → {rows} rows in {elapsed:.2?} ({:.0} q/s)",
        queries as f64 / elapsed.as_secs_f64()
    );
    println!(
        "buffer pool: {} hits, {} misses, {} evictions — misses are where the time went",
        pool.stats().hits(),
        pool.stats().misses(),
        pool.stats().evictions()
    );
}
