//! The Synthetic application (Appendix A).
//!
//! One table with four 8-byte numeric columns `colA, colB, colC, colD`.
//! `colB` is generated from `colC` by a correlation function
//! (`colB = Fn(colC)`) — Linear or Sigmoid — with a configurable
//! percentage of uniformly-distributed noise injected into `colB`. A
//! primary index exists on `colA` and a secondary (host) index on `colB`;
//! the experiments build the index under test on `colC`.

use hermit_core::Database;
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Correlation function family from the paper's Synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationKind {
    /// `colB = 2·colC + 3`.
    Linear,
    /// `colB = 10⁶ / (1 + e^{-(colC − n/2) / (n/20)})` — the polynomial-ish
    /// S-curve the paper uses to stress tiered fitting.
    Sigmoid,
}

impl CorrelationKind {
    /// Label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            CorrelationKind::Linear => "linear",
            CorrelationKind::Sigmoid => "sigmoid",
        }
    }
}

/// Configuration for the Synthetic workload.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Number of tuples (the paper uses up to 20 million).
    pub tuples: usize,
    /// Correlation function from `colC` to `colB`.
    pub correlation: CorrelationKind,
    /// Fraction of tuples whose `colB` is replaced with uniform noise
    /// (the paper's default is 0.01 = 1%).
    pub noise_fraction: f64,
    /// Number of extra columns (beyond colD), each correlated to `colB`,
    /// used by the many-indexes experiments (Figs. 20/22).
    pub extra_columns: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            tuples: 100_000,
            correlation: CorrelationKind::Linear,
            noise_fraction: 0.01,
            extra_columns: 0,
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    /// Domain of `colC`: uniform over `[0, tuples)`.
    pub fn target_domain(&self) -> (f64, f64) {
        (0.0, self.tuples as f64)
    }

    /// Apply the correlation function to a target value.
    pub fn correlate(&self, c: f64) -> f64 {
        let n = self.tuples as f64;
        match self.correlation {
            CorrelationKind::Linear => 2.0 * c + 3.0,
            CorrelationKind::Sigmoid => {
                let mid = n / 2.0;
                let scale = n / 20.0;
                1.0e6 / (1.0 + (-(c - mid) / scale).exp())
            }
        }
    }

    /// Range of `colB` implied by the correlation (before noise).
    pub fn host_domain(&self) -> (f64, f64) {
        match self.correlation {
            CorrelationKind::Linear => (3.0, 2.0 * self.tuples as f64 + 3.0),
            CorrelationKind::Sigmoid => (0.0, 1.0e6),
        }
    }
}

/// Column ids of the Synthetic schema.
pub mod cols {
    /// Primary key.
    pub const COL_A: usize = 0;
    /// Host column (`colB = Fn(colC)` + noise); carries the existing index.
    pub const COL_B: usize = 1;
    /// Target column the experiments index.
    pub const COL_C: usize = 2;
    /// Payload column fetched by queries.
    pub const COL_D: usize = 3;
    /// First extra correlated column (Figs. 20/22).
    pub const EXTRA_BASE: usize = 4;
}

/// Generate the Synthetic table and wrap it in a [`Database`] with the
/// pre-existing indexes (primary on `colA`, baseline host index on `colB`).
/// The index under test on `colC` (and on extra columns) is left to the
/// caller — that is the experiment.
pub fn build_synthetic(config: &SyntheticConfig, scheme: TidScheme) -> Database {
    let mut defs = vec![
        ColumnDef::int("colA"),
        ColumnDef::float("colB"),
        ColumnDef::float("colC"),
        ColumnDef::float("colD"),
    ];
    for i in 0..config.extra_columns {
        defs.push(ColumnDef::float(format!("colX{i}")));
    }
    let schema = Schema::new(defs);
    let mut db = Database::new(schema, cols::COL_A, scheme);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (host_lo, host_hi) = config.host_domain();

    let mut row: Vec<Value> = Vec::with_capacity(4 + config.extra_columns);
    for i in 0..config.tuples {
        let c = rng.gen_range(0.0..config.tuples as f64);
        let noisy = config.noise_fraction > 0.0 && rng.gen_bool(config.noise_fraction);
        let b = if noisy {
            // Uniform noise across (an extended copy of) the host domain,
            // so outliers scatter everywhere rather than clustering.
            rng.gen_range(host_lo..host_hi * 2.0 + 1.0)
        } else {
            config.correlate(c)
        };
        row.clear();
        row.push(Value::Int(i as i64));
        row.push(Value::Float(b));
        row.push(Value::Float(c));
        row.push(Value::Float(rng.gen_range(0.0..1.0e6)));
        for j in 0..config.extra_columns {
            // Extra columns correlate linearly to colB with distinct slopes
            // (Fig. 20: "all these newly added columns are correlated to
            // colB").
            row.push(Value::Float(b * (j as f64 + 1.5) + j as f64 * 10.0));
        }
        db.insert(&row).expect("synthetic row insert");
    }

    db.create_baseline_index(cols::COL_B, true).expect("host index on colB");
    db
}

/// The Synthetic table as the end-to-end benchmark serves it: the
/// `(pk, host, target, payload)` rows `hermit_bench` loads for `rows`
/// static targets under `seed`, in load order. (Its `gen.rs`, restated —
/// the benchmark directory is frozen and a binary.) `host = 2·target + 3`
/// except every hundredth pk, whose host is uniform over twice the target
/// domain; the targets are `0..rows` plus one anchor per 8 targets of two
/// churn regions of `rows / 8` each, shuffled so that heap order is
/// uncorrelated with `target`.
pub fn served_table(seed: u64, rows: usize) -> Vec<[Value; 4]> {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let domain = rows + 2 * (rows / 8).max(200);
    let mut order: Vec<u32> =
        (0..rows).chain((rows..domain).step_by(8)).map(|t| t as u32).collect();
    // Fisher–Yates under SplitMix64, as the benchmark shuffles.
    let mut state = seed ^ 0x5EED_0DA7A;
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        order.swap(i, ((mix(state) as u128 * (i as u128 + 1)) >> 64) as usize);
    }
    order
        .iter()
        .enumerate()
        .map(|(pk, &target)| {
            let pk = pk as i64;
            let host = if pk % 100 == 99 {
                let h = mix(seed ^ (pk as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                3.0 + (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * domain as f64
            } else {
                2.0 * f64::from(target) + 3.0
            };
            [
                Value::Int(pk),
                Value::Float(host),
                Value::Float(f64::from(target)),
                Value::Float((pk % 1000) as f64),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_core::RangePredicate;

    #[test]
    fn generates_requested_cardinality() {
        let cfg = SyntheticConfig { tuples: 5_000, ..Default::default() };
        let db = build_synthetic(&cfg, TidScheme::Physical);
        assert_eq!(db.len(), 5_000);
        assert!(db.index(cols::COL_B).is_some(), "host index must exist");
        assert!(db.index(cols::COL_C).is_none(), "target index is the experiment's job");
    }

    #[test]
    fn linear_correlation_holds_for_non_noise() {
        let cfg = SyntheticConfig { tuples: 2_000, noise_fraction: 0.0, ..Default::default() };
        let db = build_synthetic(&cfg, TidScheme::Physical);
        let mut checked = 0;
        for (b, c) in crate::live_pairs(&db, cols::COL_B, cols::COL_C) {
            assert!((b - (2.0 * c + 3.0)).abs() < 1e-9);
            checked += 1;
        }
        assert_eq!(checked, 2_000);
    }

    #[test]
    fn sigmoid_correlation_is_monotone_bounded() {
        let cfg = SyntheticConfig {
            tuples: 10_000,
            correlation: CorrelationKind::Sigmoid,
            noise_fraction: 0.0,
            ..Default::default()
        };
        assert!(cfg.correlate(0.0) < cfg.correlate(5_000.0));
        assert!(cfg.correlate(5_000.0) < cfg.correlate(10_000.0));
        assert!(cfg.correlate(10_000.0) <= 1.0e6);
        assert!(cfg.correlate(0.0) >= 0.0);
    }

    #[test]
    fn noise_fraction_roughly_respected() {
        let cfg = SyntheticConfig { tuples: 20_000, noise_fraction: 0.05, ..Default::default() };
        let db = build_synthetic(&cfg, TidScheme::Physical);
        let pairs = crate::live_pairs(&db, cols::COL_B, cols::COL_C);
        let noisy = pairs.iter().filter(|&&(b, c)| (b - cfg.correlate(c)).abs() > 1e-6).count();
        let frac = noisy as f64 / 20_000.0;
        assert!((0.03..=0.07).contains(&frac), "expected ~5% noise, got {:.1}%", frac * 100.0);
    }

    #[test]
    fn extra_columns_generated_and_correlated() {
        let cfg = SyntheticConfig {
            tuples: 1_000,
            noise_fraction: 0.0,
            extra_columns: 3,
            ..Default::default()
        };
        let db = build_synthetic(&cfg, TidScheme::Physical);
        assert_eq!(db.heap().schema().width(), 7);
        let (b, x0) = crate::live_pairs(&db, cols::COL_B, cols::EXTRA_BASE)[0];
        assert!((x0 - b * 1.5).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_hermit_on_synthetic() {
        let cfg = SyntheticConfig { tuples: 20_000, ..Default::default() };
        let mut db = build_synthetic(&cfg, TidScheme::Logical);
        db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
        let r = db.lookup_range(RangePredicate::range(cols::COL_C, 1_000.0, 1_200.0), None);
        // colC is uniform over [0, 20000): expect ≈ 200 rows (1% selectivity).
        assert!((150..=260).contains(&r.rows.len()), "expected ≈200 rows, got {}", r.rows.len());
        // Exactness: every returned row satisfies the predicate.
        for &loc in &r.rows {
            let c = db.heap().value_f64(loc, cols::COL_C).unwrap().unwrap();
            assert!((1_000.0..=1_200.0).contains(&c));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SyntheticConfig { tuples: 500, ..Default::default() };
        let a = build_synthetic(&cfg, TidScheme::Physical);
        let b = build_synthetic(&cfg, TidScheme::Physical);
        let rows = |db: &Database| {
            let width = db.heap().schema().width();
            let mut rows = Vec::new();
            db.heap()
                .for_each_live_row(|loc, row| {
                    rows.push((loc, (0..width).map(|c| row.value(c)).collect::<Vec<_>>()));
                    true
                })
                .unwrap();
            rows
        };
        assert_eq!(rows(&a), rows(&b));
    }
}
