//! Correlation discovery (Appendix D.1 of the paper).
//!
//! Hermit relies on the RDBMS (or the DBA) to surface candidate column
//! correlations. This module implements the screening workflow the paper
//! describes: for a target column and each candidate host column, compute
//! Pearson (linear) and Spearman (monotone) coefficients over a random
//! sample; a candidate qualifies when either coefficient's magnitude
//! reaches the threshold. Monotone-but-nonlinear correlations (sigmoid)
//! pass via Spearman; non-monotone ones (sin) fail both — exactly the
//! Fig. 25 taxonomy.

use hermit_stats::{pearson, sampling, spearman};
use hermit_storage::paged::PagedTable;
use hermit_storage::{ColumnId, RowLoc};

/// Configuration for correlation discovery.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Minimum |coefficient| (Pearson or Spearman) to qualify.
    pub threshold: f64,
    /// Sample size drawn from the table (discovery must not scan 20M rows).
    pub sample_size: usize,
    /// RNG seed for reproducible sampling.
    pub seed: u64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig { threshold: 0.8, sample_size: 10_000, seed: 0xD15C0u64 }
    }
}

/// Outcome of screening one (target, host) column pair.
#[derive(Debug, Clone, Copy)]
pub struct CorrelationReport {
    /// Candidate host column.
    pub host: ColumnId,
    /// Pearson coefficient over the sample.
    pub pearson: f64,
    /// Spearman coefficient over the sample.
    pub spearman: f64,
}

impl CorrelationReport {
    /// The larger coefficient magnitude — the score used for ranking.
    pub fn score(&self) -> f64 {
        self.pearson.abs().max(self.spearman.abs())
    }
}

/// Screen `target` against every column in `hosts`, returning qualifying
/// candidates sorted best-first.
///
/// The sample is drawn from the heap's slots (`pages × slots per page`) and
/// read through one batched visit — a page pinned once for all of its
/// sampled slots, never a scan of the table. A slot that holds no live row
/// (deleted, or past the last page's fill) drops out of the sample, as do
/// rows where either side is NULL (the Stock table's missing readings must
/// not poison the coefficients).
pub fn discover_correlations(
    heap: &PagedTable,
    target: ColumnId,
    hosts: &[ColumnId],
    config: &DiscoveryConfig,
) -> Vec<CorrelationReport> {
    let schema = heap.schema();
    let hosts: Vec<ColumnId> =
        hosts.iter().copied().filter(|&h| h != target && schema.column(h).is_ok()).collect();
    if schema.column(target).is_err() || hosts.is_empty() {
        return Vec::new();
    }
    let pages = heap.pages();
    let per_page = usize::from(PagedTable::slots_per_page(schema));
    let mut rng = sampling::seeded_rng(config.seed);
    let locs: Vec<RowLoc> =
        sampling::sample_indices(&mut rng, pages.len() * per_page, config.sample_size)
            .into_iter()
            .map(|i| RowLoc::new(pages[i / per_page] as u32, (i % per_page) as u32))
            .collect();

    // Per live sampled row: the target cell, then one cell per host.
    let stride = hosts.len() + 1;
    let mut cells: Vec<Option<f64>> = Vec::with_capacity(locs.len() * stride);
    heap.for_each_row_batch(&locs, &mut Vec::new(), |_, row| {
        if let Some(row) = row {
            cells.push(row.f64(target));
            cells.extend(hosts.iter().map(|&h| row.f64(h)));
        }
    });

    let mut reports: Vec<CorrelationReport> = hosts
        .iter()
        .enumerate()
        .filter_map(|(k, &host)| {
            let (xs, ys): (Vec<f64>, Vec<f64>) =
                cells.chunks_exact(stride).filter_map(|row| row[0].zip(row[k + 1])).unzip();
            if xs.len() < 2 {
                return None;
            }
            let report = CorrelationReport {
                host,
                pearson: pearson(&xs, &ys),
                spearman: spearman(&xs, &ys),
            };
            (report.score() >= config.threshold).then_some(report)
        })
        .collect();
    reports.sort_by(|a, b| b.score().total_cmp(&a.score()));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::paged::{BufferPool, SimulatedPageStore};
    use hermit_storage::{ColumnDef, Schema, Value};
    use std::sync::Arc;

    fn heap(schema: Schema) -> PagedTable {
        let pool = BufferPool::new(Arc::new(SimulatedPageStore::new()), 1024);
        PagedTable::new(schema, Arc::new(pool))
    }

    /// Table with: pk | linear(host) | sigmoid(host) | sin(noise) | target
    fn test_table(n: usize) -> PagedTable {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("linear"),
            ColumnDef::float("sigmoid"),
            ColumnDef::float("sin"),
            ColumnDef::float("target"),
        ]);
        let t = heap(schema);
        for i in 0..n {
            let m = i as f64 / n as f64 * 20.0 - 10.0;
            t.insert(&[
                Value::Int(i as i64),
                Value::Float(3.0 * m + 1.0),
                Value::Float(1.0 / (1.0 + (-m).exp())),
                Value::Float((m * 50.0).sin()),
                Value::Float(m),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn discovers_linear_and_monotone_but_not_sin() {
        let t = test_table(20_000);
        let reports = discover_correlations(&t, 4, &[1, 2, 3], &DiscoveryConfig::default());
        let hosts: Vec<ColumnId> = reports.iter().map(|r| r.host).collect();
        assert!(hosts.contains(&1), "linear host must qualify");
        assert!(hosts.contains(&2), "sigmoid host must qualify via Spearman");
        assert!(!hosts.contains(&3), "sin must not qualify");
        // Linear should rank at (or tied with) the top.
        assert!(reports[0].score() > 0.99);
    }

    #[test]
    fn sigmoid_needs_spearman() {
        let t = test_table(20_000);
        let reports = discover_correlations(&t, 4, &[2], &DiscoveryConfig::default());
        assert_eq!(reports.len(), 1);
        let r = reports[0];
        assert!(
            r.spearman.abs() > r.pearson.abs(),
            "sigmoid is monotone, not linear: spearman {} vs pearson {}",
            r.spearman,
            r.pearson
        );
    }

    #[test]
    fn target_excluded_from_candidates() {
        let t = test_table(5_000);
        let reports = discover_correlations(&t, 4, &[4], &DiscoveryConfig::default());
        assert!(reports.is_empty());
    }

    #[test]
    fn nulls_are_skipped() {
        let schema = Schema::new(vec![ColumnDef::float("a"), ColumnDef::float_null("b")]);
        let t = heap(schema);
        for i in 0..1_000 {
            let b = if i % 3 == 0 { Value::Null } else { Value::Float(2.0 * i as f64) };
            t.insert(&[Value::Float(i as f64), b]).unwrap();
        }
        let reports = discover_correlations(&t, 0, &[1], &DiscoveryConfig::default());
        assert_eq!(reports.len(), 1);
        assert!(reports[0].pearson > 0.99);
    }

    /// Deleted rows are not part of the sample: a correlated table that held
    /// four times as many uncorrelated rows, all deleted, still finds its host.
    #[test]
    fn deleted_rows_do_not_count() {
        let t = test_table(5_000);
        let mut state = 7u64;
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Value::Float((state >> 40) as f64)
        };
        let noise: Vec<RowLoc> = (0..20_000)
            .map(|i| {
                let row = [Value::Int(10_000 + i), draw(), draw(), draw(), draw()];
                t.insert(&row).unwrap()
            })
            .collect();
        assert!(discover_correlations(&t, 4, &[1], &DiscoveryConfig::default()).is_empty());
        for loc in noise {
            t.delete(loc).unwrap();
        }
        let reports = discover_correlations(&t, 4, &[1], &DiscoveryConfig::default());
        assert_eq!(reports.len(), 1, "the linear host is found once the noise is deleted");
        assert!(reports[0].pearson > 0.99, "{:?}", reports[0]);
    }

    #[test]
    fn high_threshold_filters_everything() {
        let t = test_table(5_000);
        let config = DiscoveryConfig { threshold: 1.1, ..Default::default() };
        assert!(discover_correlations(&t, 4, &[1, 2, 3], &config).is_empty());
    }

    #[test]
    fn bad_column_ids_are_safe() {
        let t = test_table(100);
        assert!(discover_correlations(&t, 99, &[1], &DiscoveryConfig::default()).is_empty());
        assert!(discover_correlations(&t, 4, &[99], &DiscoveryConfig::default()).is_empty());
    }
}
