//! Sensor-monitoring scenario (Appendix A's Sensor application): 16 gas
//! sensors plus their average reading, where every sensor column is a
//! *non-linear* function of the average — the workload that exercises
//! TRS-Tree's tiered (hierarchical) curve fitting.
//!
//! ```text
//! cargo run --release --example sensor_monitoring
//! ```

use hermit::core::RangePredicate;
use hermit::storage::TidScheme;
use hermit::workloads::{build_sensor, QueryGen, SensorConfig};
use std::time::Instant;

fn main() {
    let cfg = SensorConfig { tuples: 200_000, ..Default::default() };
    println!("building {} readings from {} sensors…", cfg.tuples, cfg.sensors);
    let mut db = build_sensor(&cfg, TidScheme::Physical);

    // Index every sensor column through the average column's existing
    // index — 16 succinct structures instead of 16 full B+-trees.
    let t0 = Instant::now();
    for i in 0..cfg.sensors {
        db.create_hermit_index(cfg.sensor_col(i), cfg.avg_col()).unwrap();
    }
    println!("built {} Hermit indexes in {:.2?}", cfg.sensors, t0.elapsed());

    let report = db.memory_report();
    println!(
        "memory: table {:.1} MB | avg-column index {:.1} MB | all 16 Hermit indexes {:.2} MB",
        report.table as f64 / 1048576.0,
        report.existing_indexes as f64 / 1048576.0,
        report.new_indexes as f64 / 1048576.0,
    );

    // The paper's query: "during which time period do the readings in
    // sensor X fall between Y and Z?"
    let sensor = 7;
    let col = cfg.sensor_col(sensor);
    let domain = db.heap().stats(col).unwrap().range().unwrap();
    let mut gen = QueryGen::new(domain, 99);

    let mut total_rows = 0usize;
    let mut total_fps = 0usize;
    let queries = gen.ranges(0.02, 200);
    let t0 = Instant::now();
    for &(lb, ub) in &queries {
        let r = db.lookup_range(RangePredicate::range(col, lb, ub), None);
        total_rows += r.rows.len();
        total_fps += r.false_positives;
    }
    let elapsed = t0.elapsed();
    println!(
        "{} range queries on sensor_{sensor} (2% selectivity): {:.0} q/s, {} rows, {:.2}% false positives validated away",
        queries.len(),
        queries.len() as f64 / elapsed.as_secs_f64(),
        total_rows,
        100.0 * total_fps as f64 / (total_rows + total_fps).max(1) as f64,
    );

    // Show the tiered structure that the non-linear correlation forced.
    let hermit::core::SecondaryIndex::Hermit { trs, .. } = db.index(col).unwrap() else {
        unreachable!()
    };
    let s = trs.stats();
    println!(
        "TRS-Tree on sensor_{sensor}: {} leaves across height {} (non-linear ⇒ tiered regression), {} outliers",
        s.leaves, s.height, s.outliers
    );
}
