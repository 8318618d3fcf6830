//! Disk-based RDBMS experiment (§7.8, Fig. 24).
//!
//! The paper integrates Hermit into PostgreSQL (physical pointers, pages
//! behind a buffer pool) and measures Sensor range lookups. We reproduce
//! the regime with the paged storage substrate: a slotted-page heap over a
//! simulated SSD (the in-memory store behind a small buffer pool whose
//! fault hook busy-waits a fixed latency per page access),
//! indexes fully in memory — exactly the paper's configuration ("we still
//! keep Hermit's TRS-Tree in memory", B+-tree fully cached).

use crate::harness::{self, measure_ops_with, Scale};
use hermit_core::{Database, LookupBreakdown, RangePredicate};
use hermit_storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit_storage::{ColumnDef, FaultAction, FaultHook, Schema, Site, Value};
use hermit_workloads::QueryGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const SELECTIVITIES: &[f64] = &[0.01, 0.025, 0.05, 0.075, 0.10];

/// Build a paged Sensor-like database (timestamp, 4 sensors, avg — fewer
/// sensors than the in-memory experiment; the disk experiment queries only
/// one column anyway).
fn build_paged_sensor(tuples: usize) -> (Database, usize, usize) {
    let sensors = 4usize;
    let mut defs = vec![ColumnDef::int("time")];
    for i in 0..sensors {
        defs.push(ColumnDef::float(format!("sensor_{i}")));
    }
    defs.push(ColumnDef::float("avg"));
    let schema = Schema::new(defs);

    // Simulated SSD: 20 µs per page read or write, and per record read
    // through; pool of 256 pages (2 MiB) so heap fetches miss regularly
    // while the (in-memory) indexes never pay I/O.
    let ssd = FaultHook::new(|call| match call.site {
        Site::PageRead | Site::PageReadRange | Site::PageWrite => {
            FaultAction::Delay(Duration::from_micros(20))
        }
        _ => FaultAction::Continue,
    });
    let pool = BufferPool::new(Arc::new(SimulatedPageStore::new()), 256).with_fault_hook(Some(ssd));
    let pool = Arc::new(pool);
    let table = PagedTable::new(schema, pool);
    let mut db = Database::new_paged(table, 0);

    let mut rng = StdRng::seed_from_u64(0xF1624);
    let mut concentration: f64 = 5.0;
    let mut row: Vec<Value> = Vec::new();
    for t in 0..tuples {
        concentration = (concentration + rng.gen_range(-0.05..0.05)).clamp(0.05, 10.0);
        row.clear();
        row.push(Value::Int(t as i64));
        let mut sum = 0.0;
        for i in 0..sensors {
            let gain = 50.0 + 20.0 * i as f64;
            let reading = gain
                * concentration.powf(0.7 + 0.05 * i as f64)
                * (1.0 + rng.gen_range(-0.002..0.002));
            sum += reading;
            row.push(Value::Float(reading));
        }
        row.push(Value::Float(sum / sensors as f64));
        db.insert(&row).unwrap();
    }
    let avg_col = sensors + 1;
    let target_col = 1; // sensor_0
    db.create_baseline_index(avg_col, true).unwrap();
    (db, target_col, avg_col)
}

/// Fig. 24: range-lookup throughput + breakdown on the paged substrate.
pub fn fig24_disk_rdbms(scale: Scale) {
    harness::section("fig24", "Disk-based RDBMS range lookup (paged Sensor)");
    let tuples = scale.tuples(100_000);

    let (mut hermit, target, avg) = build_paged_sensor(tuples);
    hermit.create_hermit_index(target, avg).unwrap();
    let (mut baseline, target_b, _) = build_paged_sensor(tuples);
    baseline.create_baseline_index(target_b, false).unwrap();

    // Query domain from a fresh scan of the paged stats.
    let domain = hermit.heap().stats(target).unwrap().range().unwrap();

    for &sel in SELECTIVITIES {
        let mut gen = QueryGen::new(domain, 0xD15C);
        let queries = gen.ranges(sel, 64);
        let run = |db: &Database, col: usize| -> (f64, LookupBreakdown) {
            let mut acc = LookupBreakdown::default();
            let mut qi = 0usize;
            let ops = measure_ops_with(Duration::from_millis(500), 5, 500, |_| {
                let (lb, ub) = queries[qi % queries.len()];
                qi += 1;
                let r = db.lookup_range(RangePredicate::range(col, lb, ub), None);
                acc.merge(&r.breakdown);
                std::hint::black_box(r.rows.len());
            });
            (ops, acc)
        };
        let (h_ops, h_bd) = run(&hermit, target);
        let (b_ops, _) = run(&baseline, target_b);
        let (trs, host, _, base) = h_bd.shares();
        harness::row(&[
            ("selectivity", format!("{:.1}%", sel * 100.0)),
            ("hermit", harness::fmt_ops(h_ops)),
            ("baseline", harness::fmt_ops(b_ops)),
            ("hermit/baseline", format!("{:.2}", h_ops / b_ops)),
            ("hermit_trs_share", format!("{:.1}%", trs * 100.0)),
            ("hermit_index_share", format!("{:.1}%", host * 100.0)),
            ("hermit_validation_share", format!("{:.1}%", base * 100.0)),
        ]);
    }
}
