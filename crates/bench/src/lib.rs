#![forbid(unsafe_code)]
//! # hermit-bench
//!
//! Benchmark harness regenerating every table and figure of the Hermit
//! paper's evaluation (§7 + appendices). Each experiment is a function in
//! [`experiments`] that builds the workload, runs the measurement, and
//! prints the same rows/series the paper plots; the `figures` binary
//! dispatches them by id (`fig04` … `fig27_30`, `table1`).
//!
//! Absolute numbers will differ from the paper (different hardware, a
//! simulated substrate instead of DBMS-X/PostgreSQL, scaled-down data),
//! but the *shapes* — who wins, by what factor, where gaps open and close —
//! are the reproduction target. Default sizes are laptop-scale; the
//! `--scale` flag multiplies them back toward paper scale.

pub mod cm;
pub mod experiments;
pub mod harness;

pub use harness::{measure_ops, measure_ops_with, Scale};

#[cfg(test)]
mod tests {
    //! The Correlation Map's unit tests ([`cm`](crate::cm)).
    use crate::cm::*;
    use hermit_storage::Tid;

    fn linear_pairs(n: usize) -> Vec<(f64, f64, Tid)> {
        (0..n).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect()
    }

    fn build_linear(n: usize, tb: f64, hb: f64) -> CorrelationMap {
        let pairs = linear_pairs(n);
        CorrelationMap::build(
            CmParams::new(tb, hb),
            (0.0, (n - 1) as f64),
            (0.0, 2.0 * (n - 1) as f64),
            &pairs,
        )
    }

    #[test]
    fn lookup_covers_true_host_values() {
        let cm = build_linear(10_000, 16.0, 64.0);
        for m in [0.0, 123.0, 5_000.0, 9_999.0] {
            let truth = 2.0 * m;
            let ranges = cm.lookup_point(m);
            assert!(
                ranges.iter().any(|(lo, hi)| truth >= *lo && truth < *hi),
                "host value {truth} for m={m} not covered by {ranges:?}"
            );
        }
    }

    #[test]
    fn range_lookup_merges_adjacent_buckets() {
        let cm = build_linear(10_000, 16.0, 64.0);
        // A clean linear correlation: one merged host range expected.
        let ranges = cm.lookup(1_000.0, 2_000.0);
        assert_eq!(ranges.len(), 1, "adjacent host buckets should coalesce: {ranges:?}");
        let (lo, hi) = ranges[0];
        assert!(lo <= 2_000.0 && hi >= 4_000.0);
    }

    #[test]
    fn smaller_host_buckets_are_tighter() {
        let coarse = build_linear(10_000, 16.0, 4_096.0);
        let fine = build_linear(10_000, 16.0, 16.0);
        let width = |r: Vec<(f64, f64)>| r.iter().map(|(lo, hi)| hi - lo).sum::<f64>();
        let wc = width(coarse.lookup_point(5_000.0));
        let wf = width(fine.lookup_point(5_000.0));
        assert!(wf < wc, "finer host buckets must return tighter ranges: {wf} vs {wc}");
    }

    #[test]
    fn noise_widens_ranges_permanently() {
        // The critique from Appendix E: one scattered outlier per target
        // bucket poisons the map.
        let mut pairs = linear_pairs(10_000);
        for i in (0..pairs.len()).step_by(100) {
            pairs[i].1 = 19_000.0; // far-away host value
        }
        let clean = CorrelationMap::build(
            CmParams::new(16.0, 64.0),
            (0.0, 9_999.0),
            (0.0, 19_998.0),
            &linear_pairs(10_000),
        );
        let noisy = CorrelationMap::build(
            CmParams::new(16.0, 64.0),
            (0.0, 9_999.0),
            (0.0, 19_998.0),
            &pairs,
        );
        let width = |r: Vec<(f64, f64)>| r.iter().map(|(lo, hi)| hi - lo).sum::<f64>();
        let range = (1_000.0, 1_500.0);
        assert!(
            width(noisy.lookup(range.0, range.1)) > width(clean.lookup(range.0, range.1)),
            "noise must widen CM's returned ranges"
        );
    }

    #[test]
    fn insert_extends_mappings() {
        let mut cm =
            CorrelationMap::build(CmParams::new(10.0, 10.0), (0.0, 100.0), (0.0, 1_000.0), &[]);
        assert_eq!(cm.mapping_count(), 0);
        assert!(cm.lookup_point(50.0).is_empty());
        cm.insert(50.0, 500.0);
        let ranges = cm.lookup_point(50.0);
        assert!(ranges.iter().any(|(lo, hi)| 500.0 >= *lo && 500.0 < *hi));
        // Idempotent for the same bucket pair.
        cm.insert(50.0, 501.0);
        assert_eq!(cm.mapping_count(), 1);
    }

    #[test]
    fn rebuild_drops_stale_mappings() {
        let mut cm = CorrelationMap::build(
            CmParams::new(10.0, 10.0),
            (0.0, 100.0),
            (0.0, 1_000.0),
            &[(50.0, 900.0, Tid(0)), (50.0, 100.0, Tid(1))],
        );
        assert_eq!(cm.mapping_count(), 2);
        cm.rebuild(&[(50.0, 100.0, Tid(1))]);
        assert_eq!(cm.mapping_count(), 1);
        let ranges = cm.lookup_point(50.0);
        assert!(!ranges.iter().any(|(lo, _)| *lo >= 890.0), "stale mapping must be gone");
    }

    #[test]
    fn memory_grows_with_granularity() {
        let coarse = build_linear(10_000, 1_024.0, 1_024.0);
        let fine = build_linear(10_000, 16.0, 16.0);
        assert!(
            fine.memory_bytes() > coarse.memory_bytes(),
            "finer buckets cost more memory: {} vs {}",
            fine.memory_bytes(),
            coarse.memory_bytes()
        );
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut cm = build_linear(1_000, 16.0, 64.0);
        cm.insert(-500.0, -500.0); // clamps to first target bucket, host bucket 0
        cm.insert(5_000.0, 5_000.0); // clamps to last target bucket
        let r = cm.lookup(-1_000.0, 0.0);
        assert!(!r.is_empty());
        // Inverted predicate.
        assert!(cm.lookup(5.0, 1.0).is_empty());
    }
}
