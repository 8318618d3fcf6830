//! The Stock application (Appendix A).
//!
//! A wide table of daily prices for many stocks: one `TIME` column plus a
//! `(low, high)` pair per stock — 201 columns at the paper's 100 stocks.
//! Each pair forms a near-linear correlation (`high ≈ low · (1 + spread)`),
//! with two real-world wrinkles the paper calls out:
//!
//! * occasional *jumps* where the two prices diverge by over 50% in a day
//!   (the PG&E example) — these become TRS-Tree outliers;
//! * missing readings stored as NULL.
//!
//! Prices follow a geometric random walk, which also reproduces the
//! DJ-vs-S&P shape of Fig. 26 when two stocks share a market factor.
//!
//! Pre-existing indexes: primary on `TIME`, baseline on every *low* column.
//! The experiments index the *high* columns (Hermit routes them to the
//! corresponding low column).

use hermit_core::Database;
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the Stock workload.
#[derive(Debug, Clone, Copy)]
pub struct StockConfig {
    /// Number of stocks (the paper stores 100).
    pub stocks: usize,
    /// Number of trading days (the paper stores >15,000 — 60 years).
    pub days: usize,
    /// Probability of a one-day jump that decorrelates high from low.
    pub jump_probability: f64,
    /// Probability a day's readings are missing (NULL).
    pub null_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        StockConfig {
            stocks: 100,
            days: 15_000,
            jump_probability: 0.002,
            null_probability: 0.01,
            seed: 7,
        }
    }
}

impl StockConfig {
    /// Column id of stock `i`'s *low* price (the host column).
    pub fn low_col(&self, stock: usize) -> usize {
        1 + stock * 2
    }

    /// Column id of stock `i`'s *high* price (the target column).
    pub fn high_col(&self, stock: usize) -> usize {
        2 + stock * 2
    }

    /// Total column count (`1 + 2·stocks`; 201 at paper scale).
    pub fn width(&self) -> usize {
        1 + 2 * self.stocks
    }
}

/// Generate the Stock table with primary index on `TIME` and baseline
/// indexes on every low column (the pre-existing indexes of Appendix A).
pub fn build_stock(config: &StockConfig, scheme: TidScheme) -> Database {
    let mut defs = Vec::with_capacity(config.width());
    defs.push(ColumnDef::int("time"));
    for s in 0..config.stocks {
        defs.push(ColumnDef::float_null(format!("low_{s}")));
        defs.push(ColumnDef::float_null(format!("high_{s}")));
    }
    let schema = Schema::new(defs);
    let mut db = Database::new(schema, 0, scheme);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Per-stock price state (geometric random walks around a shared market
    // factor, so stock pairs correlate like DJ vs S&P in Fig. 26).
    let mut prices: Vec<f64> = (0..config.stocks).map(|_| rng.gen_range(20.0..200.0)).collect();
    let betas: Vec<f64> = (0..config.stocks).map(|_| rng.gen_range(0.5..1.5)).collect();

    let mut row: Vec<Value> = Vec::with_capacity(config.width());
    for day in 0..config.days {
        let market = rng.gen_range(-0.01..0.01);
        row.clear();
        row.push(Value::Int(day as i64));
        for s in 0..config.stocks {
            let idio = rng.gen_range(-0.015..0.015);
            prices[s] = (prices[s] * (1.0 + betas[s] * market + idio)).max(0.5);
            if rng.gen_bool(config.null_probability) {
                row.push(Value::Null);
                row.push(Value::Null);
                continue;
            }
            let spread = rng.gen_range(0.008..0.016);
            let (low, high) = if rng.gen_bool(config.jump_probability) {
                // A PG&E-style day: high diverges by 50–120% from low.
                let burst = rng.gen_range(0.5..1.2);
                (prices[s] * (1.0 - spread), prices[s] * (1.0 + burst))
            } else {
                (prices[s] * (1.0 - spread), prices[s] * (1.0 + spread))
            };
            row.push(Value::Float(low));
            row.push(Value::Float(high));
        }
        db.insert(&row).expect("stock row insert");
    }

    // Pre-existing indexes: one baseline index per low column.
    for s in 0..config.stocks {
        db.create_baseline_index(config.low_col(s), true).expect("low index");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_core::RangePredicate;
    use hermit_stats::pearson;

    fn small() -> StockConfig {
        StockConfig { stocks: 5, days: 2_000, ..Default::default() }
    }

    #[test]
    fn schema_shape_matches_paper() {
        let cfg = StockConfig::default();
        assert_eq!(cfg.width(), 201, "paper: 201 columns at 100 stocks");
        let cfg = small();
        let db = build_stock(&cfg, TidScheme::Physical);
        assert_eq!(db.heap().schema().width(), 11);
        assert_eq!(db.len(), 2_000);
        for s in 0..cfg.stocks {
            assert!(db.index(cfg.low_col(s)).is_some(), "low_{s} must carry an index");
            assert!(db.index(cfg.high_col(s)).is_none());
        }
    }

    #[test]
    fn high_low_strongly_correlated() {
        let cfg = small();
        let db = build_stock(&cfg, TidScheme::Physical);
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            crate::live_pairs(&db, cfg.low_col(0), cfg.high_col(0)).into_iter().unzip();
        assert!(xs.len() > 1_800, "most days have readings");
        let r = pearson(&xs, &ys);
        assert!(r > 0.95, "high/low must be near-linear, pearson = {r}");
    }

    #[test]
    fn jumps_exist_and_decorrelate() {
        let cfg = StockConfig { stocks: 3, days: 10_000, jump_probability: 0.01, ..small() };
        let db = build_stock(&cfg, TidScheme::Physical);
        let pairs = crate::live_pairs(&db, cfg.low_col(0), cfg.high_col(0));
        let jumps = pairs.iter().filter(|&&(l, h)| h > l * 1.5).count();
        assert!(jumps > 20, "expected jump days, saw {jumps}");
    }

    #[test]
    fn nulls_present_at_configured_rate() {
        let cfg = StockConfig { null_probability: 0.1, ..small() };
        let db = build_stock(&cfg, TidScheme::Physical);
        let nulls = db.heap().stats(cfg.low_col(0)).unwrap().null_count();
        let frac = nulls as f64 / 2_000.0;
        assert!((0.07..=0.13).contains(&frac), "null rate {frac}");
    }

    #[test]
    fn end_to_end_hermit_on_stock() {
        let cfg = small();
        let mut db = build_stock(&cfg, TidScheme::Physical);
        // Index high_0 through its low_0 host.
        db.create_hermit_index(cfg.high_col(0), cfg.low_col(0)).unwrap();
        // Query: days when high_0 is within a band around its median.
        let (lo, hi) = db.heap().stats(cfg.high_col(0)).unwrap().range().unwrap();
        let mid = (lo + hi) / 2.0;
        let r = db.lookup_range(RangePredicate::range(cfg.high_col(0), mid * 0.9, mid * 1.1), None);
        // Exactness check against a scan.
        let mut expected = 0;
        db.heap()
            .for_each_live_row(|_, row| {
                let v = row.f64(cfg.high_col(0));
                expected += usize::from(v.is_some_and(|v| v >= mid * 0.9 && v <= mid * 1.1));
                true
            })
            .unwrap();
        assert_eq!(r.rows.len(), expected, "Hermit must return exactly the scan's rows");
    }

    #[test]
    fn time_conjunct_supported() {
        let cfg = small();
        let mut db = build_stock(&cfg, TidScheme::Physical);
        db.create_hermit_index(cfg.high_col(1), cfg.low_col(1)).unwrap();
        let (lo, hi) = db.heap().stats(cfg.high_col(1)).unwrap().range().unwrap();
        let r = db.lookup_range(
            RangePredicate::range(cfg.high_col(1), lo, hi),
            Some(RangePredicate::range(0, 100.0, 199.0)),
        );
        assert!(r.rows.len() <= 100, "time conjunct must cap the result");
        for &loc in &r.rows {
            let t = db.heap().value_f64(loc, 0).unwrap().unwrap();
            assert!((100.0..=199.0).contains(&t));
        }
    }
}
