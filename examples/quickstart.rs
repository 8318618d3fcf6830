//! Quickstart: build a table, let Hermit discover a correlation, and query
//! through a TRS-Tree instead of a full secondary index.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hermit::core::{Database, DiscoveryConfig, RangePredicate};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};

fn main() {
    // A table of orders: id (pk), subtotal, total (≈ subtotal × 1.08 + shipping).
    let schema = Schema::new(vec![
        ColumnDef::int("order_id"),
        ColumnDef::float("subtotal"),
        ColumnDef::float("total"),
    ]);
    let mut db = Database::new(schema, 0, TidScheme::Physical);

    // Load 100 K orders. `total` correlates with `subtotal` with a little
    // scatter from variable shipping fees.
    for i in 0..100_000i64 {
        let subtotal = 5.0 + (i % 9_973) as f64 * 0.37;
        let shipping = 3.0 + (i % 7) as f64;
        db.insert(&[
            Value::Int(i),
            Value::Float(subtotal),
            Value::Float(subtotal * 1.08 + shipping),
        ])
        .unwrap();
    }

    // The shop already queries `subtotal`, so that column has an index.
    db.create_baseline_index(1, true).unwrap();

    // Now the analyst wants fast queries on `total`. Instead of paying for
    // a second complete B+-tree, ask Hermit: it screens the correlation
    // registry and builds a succinct TRS-Tree routed through `subtotal`.
    let used_hermit = db.create_index_auto(2, &DiscoveryConfig::default()).unwrap();
    println!("index on `total` is {}", if used_hermit { "a Hermit TRS-Tree" } else { "a B+-tree" });

    let trs_bytes = db.index(2).unwrap().memory_bytes();
    let host_bytes = db.index(1).unwrap().memory_bytes();
    println!(
        "index sizes: total → {:.1} KB (TRS-Tree)   subtotal → {:.1} KB (B+-tree)",
        trs_bytes as f64 / 1024.0,
        host_bytes as f64 / 1024.0
    );

    // Range query on the Hermit-indexed column. Results are exact: the
    // three-phase lookup validates candidates against the base table.
    let result = db.lookup_range(RangePredicate::range(2, 500.0, 520.0), None);
    println!(
        "orders with total in [500, 520]: {} rows ({} false positives removed)",
        result.rows.len(),
        result.false_positives
    );

    // Verify against a full scan.
    let mut expected = 0;
    db.heap()
        .for_each_live_row(|_, row| {
            expected += usize::from(row.f64(2).is_some_and(|v| (500.0..=520.0).contains(&v)));
            true
        })
        .unwrap();
    assert_eq!(result.rows.len(), expected, "Hermit must return exactly the scan's rows");
    println!("verified against a sequential scan ✓");
}
