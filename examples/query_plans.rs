//! EXPLAIN tour of the unified Query API: one declarative surface, four
//! access paths, chosen by the cost-based planner.
//!
//! A `STOCK_HISTORY`-style table `(TIME, DJ, SP, VOL)` carries every index
//! kind the planner knows: a baseline B+-tree on DJ, a Hermit TRS-Tree on
//! SP routed through DJ, a composite `(TIME, DJ)` baseline with a composite
//! Hermit `(TIME, SP)` routed through it — and VOL is deliberately left
//! unindexed, so predicates on it fall back to the sequential-scan plan
//! (instead of the pre-planner behavior of silently returning nothing).
//!
//! ```text
//! cargo run --release --example query_plans
//! ```

use hermit::core::{Database, Query};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};

const TIME: usize = 0;
const DJ: usize = 1;
const SP: usize = 2;
const VOL: usize = 3;

fn explain_and_run(db: &Database, title: &str, q: &Query) {
    println!("=== {title}");
    let plan = db.plan(q);
    print!("{plan}");
    let r = db.execute_plan(&plan);
    println!(
        "--> {} rows, {} false positives, {} unresolved\n",
        r.rows.len(),
        r.false_positives,
        r.unresolved
    );
}

fn main() {
    let schema = Schema::new(vec![
        ColumnDef::int("time"),
        ColumnDef::float("dj"),
        ColumnDef::float("sp"),
        ColumnDef::float("vol"),
    ]);
    let mut db = Database::new(schema, TIME, TidScheme::Physical);
    let days = 20_000usize;
    for t in 0..days {
        // DJ drifts upward with deterministic wiggle; SP tracks DJ at ~1/8
        // scale (the paper's Fig. 26 relationship); VOL is uncorrelated.
        let dj = 3_000.0 + t as f64 * 0.5 + ((t % 97) as f64 - 48.0);
        let sp = dj / 8.0 + ((t % 13) as f64 - 6.0) * 0.05;
        let vol = 1.0e6 + ((t * 7_919) % 100_000) as f64;
        db.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp), Value::Float(vol)])
            .unwrap();
    }

    // The index estate: complete index on DJ; Hermit index on SP routed
    // through it; composite (TIME, DJ) baseline hosting a composite Hermit
    // (TIME, SP). VOL stays unindexed on purpose.
    db.create_baseline_index(DJ, true).unwrap();
    db.create_hermit_index(SP, DJ).unwrap();
    db.create_composite_baseline(TIME, DJ).unwrap();
    db.create_composite_hermit(TIME, SP, DJ).unwrap();

    explain_and_run(
        &db,
        "narrow SP range: the Hermit route wins",
        &Query::new().range(SP, 700.0, 710.0),
    );
    explain_and_run(
        &db,
        "narrow DJ range: the complete index answers exactly",
        &Query::new().range(DJ, 5_600.0, 5_680.0),
    );
    explain_and_run(
        &db,
        "TIME x SP box: the composite Hermit route wins",
        &Query::new().range(TIME, 5_000.0, 10_000.0).range(SP, 700.0, 800.0),
    );
    explain_and_run(
        &db,
        "VOL predicate: no index, seq-scan fallback (correct rows, not silence)",
        &Query::new().range(VOL, 1_000_000.0, 1_002_000.0),
    );

    // Projection + limit ride on any plan; here the scan.
    let q = Query::new().range(VOL, 1_000_000.0, 1_002_000.0).select([TIME, VOL]).limit(3);
    println!("=== projection and limit");
    let plan = db.plan(&q);
    print!("{plan}");
    let r = db.execute_plan(&plan);
    for row in r.projected.iter().flat_map(|block| block.iter()) {
        println!("--> {row:?}");
    }
}
