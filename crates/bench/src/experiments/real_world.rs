//! Real-world applications (§7.2): Stock (Figs. 4–5) and Sensor
//! (Figs. 6–7).

use crate::harness::{self, measure_ops, Scale};
use hermit_core::{Database, RangePredicate};
use hermit_storage::TidScheme;
use hermit_workloads::{build_sensor, build_stock, QueryGen, SensorConfig, StockConfig};

/// Selectivities the paper sweeps for the real-world workloads.
const SELECTIVITIES: &[f64] = &[0.01, 0.025, 0.05, 0.075, 0.10];

fn stock_cfg(scale: Scale) -> StockConfig {
    StockConfig {
        stocks: scale.count(20).min(100),
        days: scale.tuples(15_000),
        ..Default::default()
    }
}

/// Measure range throughput on one indexed column of `db`.
fn range_throughput(db: &Database, col: usize, selectivity: f64, seed: u64) -> f64 {
    let Some(domain) = db.heap().stats(col).unwrap().range() else { return 0.0 };
    let mut gen = QueryGen::new(domain, seed);
    let queries = gen.ranges(selectivity, 512);
    measure_ops(|i| {
        let (lb, ub) = queries[i % queries.len()];
        let r = db.lookup_range(RangePredicate::range(col, lb, ub), None);
        std::hint::black_box(r.rows.len());
    })
}

/// Fig. 4: Stock range-lookup throughput vs selectivity, Hermit vs
/// Baseline, logical and physical pointers.
pub fn fig04_stock_range(scale: Scale) {
    harness::section("fig04", "Stock range lookup throughput vs selectivity");
    let cfg = stock_cfg(scale);
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        // Hermit database: lows carry baseline indexes, highs get TRS-Trees.
        let mut hermit = build_stock(&cfg, scheme);
        for s in 0..cfg.stocks {
            hermit.create_hermit_index(cfg.high_col(s), cfg.low_col(s)).unwrap();
        }
        // Baseline database: highs get complete B+-trees.
        let mut baseline = build_stock(&cfg, scheme);
        for s in 0..cfg.stocks {
            baseline.create_baseline_index(cfg.high_col(s), false).unwrap();
        }
        for &sel in SELECTIVITIES {
            // Query a rotating subset of high columns.
            let col = cfg.high_col(0);
            let h = range_throughput(&hermit, col, sel, 0xF1604);
            let b = range_throughput(&baseline, col, sel, 0xF1604);
            harness::row(&[
                ("scheme", scheme.label().into()),
                ("selectivity", format!("{:.1}%", sel * 100.0)),
                ("hermit", harness::fmt_ops(h)),
                ("baseline", harness::fmt_ops(b)),
                ("hermit/baseline", format!("{:.2}", h / b)),
            ]);
        }
    }
}

/// Fig. 5: Stock memory consumption vs number of indexes + space breakdown.
pub fn fig05_stock_memory(scale: Scale) {
    harness::section("fig05", "Stock memory consumption vs number of indexes");
    let base = stock_cfg(scale);
    // "Number of indexes" = number of stocks whose high column is indexed;
    // paper sweeps 25/50/75/100 stocks.
    let steps: Vec<usize> =
        [25, 50, 75, 100].iter().map(|&s| (s * base.stocks / 100).max(1)).collect();
    for &stocks in &steps {
        let cfg = StockConfig { stocks, ..base };
        let mut hermit = build_stock(&cfg, TidScheme::Physical);
        for s in 0..stocks {
            hermit.create_hermit_index(cfg.high_col(s), cfg.low_col(s)).unwrap();
        }
        let mut baseline = build_stock(&cfg, TidScheme::Physical);
        for s in 0..stocks {
            baseline.create_baseline_index(cfg.high_col(s), false).unwrap();
        }
        let (h, b) = (hermit.memory_report(), baseline.memory_report());
        harness::row(&[
            ("indexes", stocks.to_string()),
            ("hermit_total", harness::fmt_mb(h.total())),
            ("baseline_total", harness::fmt_mb(b.total())),
            ("hermit_new_indexes", harness::fmt_mb(h.new_indexes)),
            ("baseline_new_indexes", harness::fmt_mb(b.new_indexes)),
        ]);
    }
    // Space breakdown at the maximum index count (Fig. 5b).
    let cfg = StockConfig { stocks: *steps.last().unwrap(), ..base };
    let mut hermit = build_stock(&cfg, TidScheme::Physical);
    let mut baseline = build_stock(&cfg, TidScheme::Physical);
    for s in 0..cfg.stocks {
        hermit.create_hermit_index(cfg.high_col(s), cfg.low_col(s)).unwrap();
        baseline.create_baseline_index(cfg.high_col(s), false).unwrap();
    }
    for (name, report) in
        [("hermit", hermit.memory_report()), ("baseline", baseline.memory_report())]
    {
        let total = report.total() as f64;
        harness::row(&[
            ("breakdown", name.into()),
            ("table", format!("{:.0}%", report.table as f64 / total * 100.0)),
            ("existing_indexes", format!("{:.0}%", report.existing_indexes as f64 / total * 100.0)),
            ("new_indexes", format!("{:.0}%", report.new_indexes as f64 / total * 100.0)),
        ]);
    }
}

fn sensor_cfg(scale: Scale) -> SensorConfig {
    SensorConfig { tuples: scale.tuples(200_000), ..Default::default() }
}

/// Fig. 6: Sensor range-lookup throughput vs selectivity.
pub fn fig06_sensor_range(scale: Scale) {
    harness::section("fig06", "Sensor range lookup throughput vs selectivity");
    let cfg = sensor_cfg(scale);
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let mut hermit = build_sensor(&cfg, scheme);
        for i in 0..cfg.sensors {
            hermit.create_hermit_index(cfg.sensor_col(i), cfg.avg_col()).unwrap();
        }
        let mut baseline = build_sensor(&cfg, scheme);
        for i in 0..cfg.sensors {
            baseline.create_baseline_index(cfg.sensor_col(i), false).unwrap();
        }
        for &sel in SELECTIVITIES {
            let col = cfg.sensor_col(3);
            let h = range_throughput(&hermit, col, sel, 0xF1606);
            let b = range_throughput(&baseline, col, sel, 0xF1606);
            harness::row(&[
                ("scheme", scheme.label().into()),
                ("selectivity", format!("{:.1}%", sel * 100.0)),
                ("hermit", harness::fmt_ops(h)),
                ("baseline", harness::fmt_ops(b)),
                ("hermit/baseline", format!("{:.2}", h / b)),
            ]);
        }
    }
}

/// Fig. 7: Sensor memory consumption vs number of tuples + breakdown.
pub fn fig07_sensor_memory(scale: Scale) {
    harness::section("fig07", "Sensor memory consumption vs number of tuples");
    let base = sensor_cfg(scale);
    for factor in [1, 2, 3, 4] {
        let cfg = SensorConfig { tuples: base.tuples * factor / 4, ..base };
        let mut hermit = build_sensor(&cfg, TidScheme::Physical);
        let mut baseline = build_sensor(&cfg, TidScheme::Physical);
        for i in 0..cfg.sensors {
            hermit.create_hermit_index(cfg.sensor_col(i), cfg.avg_col()).unwrap();
            baseline.create_baseline_index(cfg.sensor_col(i), false).unwrap();
        }
        let (h, b) = (hermit.memory_report(), baseline.memory_report());
        harness::row(&[
            ("tuples", cfg.tuples.to_string()),
            ("hermit_total", harness::fmt_mb(h.total())),
            ("baseline_total", harness::fmt_mb(b.total())),
            ("hermit_new_indexes", harness::fmt_mb(h.new_indexes)),
            ("baseline_new_indexes", harness::fmt_mb(b.new_indexes)),
        ]);
        if factor == 4 {
            for (name, report) in [("hermit", h), ("baseline", b)] {
                let total = report.total() as f64;
                harness::row(&[
                    ("breakdown", name.into()),
                    ("table", format!("{:.0}%", report.table as f64 / total * 100.0)),
                    (
                        "existing_indexes",
                        format!("{:.0}%", report.existing_indexes as f64 / total * 100.0),
                    ),
                    ("new_indexes", format!("{:.0}%", report.new_indexes as f64 / total * 100.0)),
                ]);
            }
        }
    }
}
