//! The Sensor application (Appendix A).
//!
//! Chemical gas-concentration monitoring: a timestamp, 16 sensor-reading
//! columns, and their average — 18 columns. Each sensor responds to the
//! same underlying gas concentration through its own *non-linear* (but
//! monotone) response curve, so every sensor↔average pair is a non-linear
//! correlation — the case that forces TRS-Tree to tier its regressions
//! (Fig. 6's "challenging" workload).
//!
//! Pre-existing indexes: primary on `TIME`, baseline on the average column.
//! The experiments index the individual sensor columns (Hermit routes them
//! to the average column's index).

use hermit_core::Database;
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the Sensor workload.
#[derive(Debug, Clone, Copy)]
pub struct SensorConfig {
    /// Number of rows (the paper stores 4,208,260).
    pub tuples: usize,
    /// Number of sensors (the paper uses 16).
    pub sensors: usize,
    /// Per-reading measurement-noise amplitude relative to signal scale.
    pub noise_amplitude: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig { tuples: 100_000, sensors: 16, noise_amplitude: 0.002, seed: 11 }
    }
}

impl SensorConfig {
    /// Column id of sensor `i`'s reading.
    pub fn sensor_col(&self, i: usize) -> usize {
        1 + i
    }

    /// Column id of the average-reading column (the host).
    pub fn avg_col(&self) -> usize {
        1 + self.sensors
    }

    /// Total column count (18 at paper scale).
    pub fn width(&self) -> usize {
        2 + self.sensors
    }
}

/// Sensor `i`'s response to concentration `x ∈ [0, 10]`: a saturating
/// power-law with per-sensor gain and exponent — monotone, non-linear,
/// different per sensor.
///
/// Monotonicity requires `e + (e−1)·s·x/20 > 0` over the domain; with the
/// constants below that holds for every sensor index up to 55 (the paper
/// uses 16). `build_sensor` validates the config once up front.
fn response(sensor: usize, x: f64) -> f64 {
    let gain = 50.0 + 20.0 * sensor as f64;
    let exponent = 0.5 + 0.12 * (sensor % 7) as f64;
    let saturation = 1.0 + 0.02 * sensor as f64;
    gain * x.powf(exponent) / (1.0 + saturation * x / 20.0)
}

/// Generate the Sensor table with primary index on `TIME` and a baseline
/// index on the average column.
pub fn build_sensor(config: &SensorConfig, scheme: TidScheme) -> Database {
    assert!(config.sensors < 56, "response() is only monotone for sensor indices < 56");
    let mut defs = Vec::with_capacity(config.width());
    defs.push(ColumnDef::int("time"));
    for i in 0..config.sensors {
        defs.push(ColumnDef::float(format!("sensor_{i}")));
    }
    defs.push(ColumnDef::float("avg"));
    let schema = Schema::new(defs);
    let mut db = Database::new(schema, 0, scheme);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // The latent gas concentration drifts as a bounded random walk.
    let mut concentration: f64 = rng.gen_range(1.0..9.0);
    let mut row: Vec<Value> = Vec::with_capacity(config.width());
    for t in 0..config.tuples {
        concentration = (concentration + rng.gen_range(-0.05..0.05)).clamp(0.05, 10.0);
        row.clear();
        row.push(Value::Int(t as i64));
        let mut sum = 0.0;
        for i in 0..config.sensors {
            let clean = response(i, concentration);
            let reading =
                clean * (1.0 + rng.gen_range(-config.noise_amplitude..=config.noise_amplitude));
            sum += reading;
            row.push(Value::Float(reading));
        }
        row.push(Value::Float(sum / config.sensors as f64));
        db.insert(&row).expect("sensor row insert");
    }

    db.create_baseline_index(config.avg_col(), true).expect("avg index");
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_core::RangePredicate;
    use hermit_stats::{pearson, spearman};

    fn small() -> SensorConfig {
        SensorConfig { tuples: 20_000, ..Default::default() }
    }

    #[test]
    fn schema_shape_matches_paper() {
        let cfg = SensorConfig::default();
        assert_eq!(cfg.width(), 18, "paper: 18 columns at 16 sensors");
        let cfg = small();
        let db = build_sensor(&cfg, TidScheme::Physical);
        assert_eq!(db.len(), 20_000);
        assert!(db.index(cfg.avg_col()).is_some(), "avg column must carry an index");
        assert!(db.index(cfg.sensor_col(0)).is_none());
    }

    #[test]
    fn sensors_monotone_in_average_but_nonlinear() {
        let cfg = SensorConfig { noise_amplitude: 0.0, ..small() };
        let db = build_sensor(&cfg, TidScheme::Physical);
        let pairs = crate::live_pairs(&db, cfg.sensor_col(3), cfg.avg_col());
        assert_eq!(pairs.len(), db.len(), "no NULL readings");
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let s = spearman(&xs, &ys);
        let p = pearson(&xs, &ys);
        assert!(s > 0.999, "noiseless response must be monotone in avg, spearman = {s}");
        assert!(p < 0.99999, "response must not be exactly linear, pearson = {p}");
    }

    #[test]
    fn response_curves_differ_across_sensors() {
        let at5: Vec<f64> = (0..16).map(|i| response(i, 5.0)).collect();
        let mut uniq = at5.clone();
        uniq.sort_by(|a, b| a.total_cmp(b));
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "each sensor needs its own curve");
    }

    #[test]
    fn end_to_end_hermit_on_sensor() {
        let cfg = small();
        let mut db = build_sensor(&cfg, TidScheme::Physical);
        db.create_hermit_index(cfg.sensor_col(5), cfg.avg_col()).unwrap();
        let (lo, hi) = db.heap().stats(cfg.sensor_col(5)).unwrap().range().unwrap();
        let width = hi - lo;
        let (qlo, qhi) = (lo + 0.4 * width, lo + 0.45 * width);
        let r = db.lookup_range(RangePredicate::range(cfg.sensor_col(5), qlo, qhi), None);
        // Exactness vs a scan.
        let mut expected = 0;
        db.heap()
            .for_each_live_row(|_, row| {
                expected += usize::from(
                    row.f64(cfg.sensor_col(5)).is_some_and(|v| (qlo..=qhi).contains(&v)),
                );
                true
            })
            .unwrap();
        assert_eq!(r.rows.len(), expected);
        assert!(expected > 0, "the query band should not be empty");
    }

    #[test]
    fn hermit_index_is_succinct_on_sensor() {
        let cfg = small();
        let mut db = build_sensor(&cfg, TidScheme::Physical);
        db.create_hermit_index(cfg.sensor_col(0), cfg.avg_col()).unwrap();
        let trs_bytes = db.index(cfg.sensor_col(0)).unwrap().memory_bytes();
        let host_bytes = db.index(cfg.avg_col()).unwrap().memory_bytes();
        assert!(
            trs_bytes * 5 < host_bytes,
            "TRS-Tree ({trs_bytes}) must be well under the B+-tree ({host_bytes})"
        );
    }
}
