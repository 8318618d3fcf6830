//! The paper's §3 running example, multi-column form: a `STOCK_HISTORY`
//! table `(TIME, DJ, SP, VOL)` with an existing composite index on
//! `(TIME, DJ)`. The DBA wants an index on `(TIME, SP)` for queries like
//!
//! ```sql
//! SELECT * FROM STOCK_HISTORY
//! WHERE (TIME BETWEEN ? AND ?) AND (SP BETWEEN ? AND ?)
//! ```
//!
//! Hermit notices SP correlates with DJ, builds a TRS-Tree from SP to DJ,
//! and answers the box query through the existing `(TIME, DJ)` index.
//!
//! ```text
//! cargo run --release --example multi_column
//! ```

use hermit::core::{Database, RangePredicate};
use hermit::stats::pearson;
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};

const TIME: usize = 0;
const DJ: usize = 1;
const SP: usize = 2;
const VOL: usize = 3;

fn main() {
    let schema = Schema::new(vec![
        ColumnDef::int("time"),
        ColumnDef::float("dj"),
        ColumnDef::float("sp"),
        ColumnDef::float("vol"),
    ]);
    let mut db = Database::new(schema, TIME, TidScheme::Physical);

    // 60 years of trading days: DJ drifts upward; SP tracks DJ at roughly
    // 1/8 scale with its own wiggle (the Fig. 26 relationship).
    let days = 15_000usize;
    let mut dj = 3_000.0f64;
    let mut spread = 0.0f64;
    for t in 0..days {
        dj = (dj * (1.0 + 0.0002 + 0.004 * ((t as f64 * 0.7).sin()))).max(100.0);
        spread = 0.95 * spread + 0.3 * ((t as f64 * 1.3).cos());
        let sp = dj / 8.0 + spread * 3.0;
        let vol = 1.0e6 + (t % 1000) as f64 * 500.0;
        db.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp), Value::Float(vol)])
            .unwrap();
    }

    // Correlation check a DBA would run before recommending Hermit.
    let (mut sps, mut djs) = (Vec::new(), Vec::new());
    db.heap()
        .for_each_live_row(|_, row| {
            if let (Some(sp), Some(dj)) = (row.f64(SP), row.f64(DJ)) {
                sps.push(sp);
                djs.push(dj);
            }
            true
        })
        .unwrap();
    println!("pearson(SP, DJ) = {:.4}", pearson(&sps, &djs));

    // Existing composite index on (TIME, DJ); Hermit composite on
    // (TIME, SP) routed through DJ. The database owns and maintains both.
    let host = db.create_composite_baseline(TIME, DJ).unwrap();
    let hermit_idx = db.create_composite_hermit(TIME, SP, DJ).unwrap();
    println!(
        "index sizes: (TIME,DJ) host = {:.1} KB | (TIME,SP) Hermit = {:.2} KB",
        db.index_at(host).unwrap().memory_bytes() as f64 / 1024.0,
        db.index_at(hermit_idx).unwrap().memory_bytes() as f64 / 1024.0,
    );

    // The paper's box query: a TIME window AND an SP band.
    let (sp_lo, sp_hi) = {
        let mid = djs[10_000] / 8.0;
        (mid - 5.0, mid + 5.0)
    };
    let result = db.lookup_box(
        hermit_idx,
        RangePredicate::range(TIME, 8_000.0, 12_000.0),
        RangePredicate::range(SP, sp_lo, sp_hi),
    );
    println!(
        "days 8000–12000 with SP in [{sp_lo:.2}, {sp_hi:.2}]: {} rows ({} false positives removed)",
        result.rows.len(),
        result.false_positives
    );

    // Cross-check against a direct composite baseline on (TIME, SP), which
    // takes the Hermit index's place at that key.
    let direct = db.create_composite_baseline(TIME, SP).unwrap();
    let expected = db.lookup_box(
        direct,
        RangePredicate::range(TIME, 8_000.0, 12_000.0),
        RangePredicate::range(SP, sp_lo, sp_hi),
    );
    assert_eq!(result.rows.len(), expected.rows.len());
    println!("verified against a complete (TIME, SP) composite index ✓");

    for &loc in result.rows.iter().take(3) {
        let row = db.heap().get(loc).unwrap();
        println!("  time={} dj={} sp={} vol={}", row[TIME], row[DJ], row[SP], row[VOL]);
    }
}
