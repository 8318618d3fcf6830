//! Correlation Maps comparison (Appendix E, Figs. 27–30): Hermit vs CM vs
//! Baseline across injected-noise fractions and CM bucket granularities,
//! for both correlation functions.

use crate::cm::{CmParams, CorrelationMap};
use crate::harness::{self, measure_ops, Scale};
use hermit_core::{Database, RangePredicate};
use hermit_storage::{F64Key, RowLoc, Tid, TidScheme};
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};

const NOISE_FRACTIONS: &[f64] = &[0.0, 0.025, 0.05, 0.075, 0.10];
/// CM-X target-column bucket sizes the appendix sweeps.
const CM_TARGET_BUCKETS: &[f64] = &[16.0, 256.0, 4096.0];
/// Host-column bucket sizes (the appendix plots 2^4 … 2^12).
const CM_HOST_BUCKETS: &[f64] = &[16.0, 256.0, 4096.0];
/// Paper: range lookups at selectivity 0.01%.
const SELECTIVITY: f64 = 0.0001;

/// Execute a range lookup through a Correlation Map: CM translation →
/// host-index probes → base-table validation. Mirrors the Hermit executor
/// so throughput numbers are comparable.
fn cm_lookup(db: &Database, cm: &CorrelationMap, pred: RangePredicate) -> usize {
    let Some(hermit_core::SecondaryIndex::Baseline(host_tree)) = db.index(cols::COL_B) else {
        return 0;
    };
    let host_tree = host_tree.read();
    let ranges = cm.lookup(pred.lb, pred.ub);
    let mut candidates: Vec<Tid> = Vec::new();
    for (lo, hi) in ranges {
        host_tree.for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| {
            candidates.push(*tid);
        });
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut hits = 0usize;
    for tid in candidates {
        let loc: RowLoc = match db.resolve(tid) {
            Some(l) => l,
            None => continue,
        };
        if let Ok(Some(v)) = db.heap().value_f64(loc, pred.column) {
            if v >= pred.lb && v <= pred.ub {
                hits += 1;
            }
        }
    }
    hits
}

/// Figs. 27–30: throughput and memory vs noise for Hermit, Baseline, and
/// CM at each bucket-granularity combination.
pub fn fig27_30_cm_comparison(scale: Scale) {
    harness::section(
        "fig27_30",
        "Hermit vs Correlation Maps vs Baseline across noise and bucket sizes",
    );
    let tuples = scale.tuples(100_000);
    for kind in [CorrelationKind::Linear, CorrelationKind::Sigmoid] {
        for &noise in NOISE_FRACTIONS {
            let cfg = SyntheticConfig {
                tuples,
                correlation: kind,
                noise_fraction: noise,
                ..Default::default()
            };
            // Hermit database (shared base data for CM too).
            let mut hermit = build_synthetic(&cfg, TidScheme::Logical);
            hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
            let mut baseline = build_synthetic(&cfg, TidScheme::Logical);
            baseline.create_baseline_index(cols::COL_C, false).unwrap();

            let mut gen = QueryGen::new(cfg.target_domain(), 0xF1627);
            let queries = gen.ranges(SELECTIVITY, 256);

            let h_ops = measure_ops(|i| {
                let (lb, ub) = queries[i % queries.len()];
                let r = hermit.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
                std::hint::black_box(r.rows.len());
            });
            let b_ops = measure_ops(|i| {
                let (lb, ub) = queries[i % queries.len()];
                let r = baseline.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
                std::hint::black_box(r.rows.len());
            });
            harness::row(&[
                ("correlation", kind.label().into()),
                ("noise", format!("{:.1}%", noise * 100.0)),
                ("method", "hermit".into()),
                ("throughput", harness::fmt_ops(h_ops)),
                ("memory", harness::fmt_mb(hermit.index(cols::COL_C).unwrap().memory_bytes())),
            ]);
            harness::row(&[
                ("correlation", kind.label().into()),
                ("noise", format!("{:.1}%", noise * 100.0)),
                ("method", "baseline".into()),
                ("throughput", harness::fmt_ops(b_ops)),
                ("memory", harness::fmt_mb(baseline.index(cols::COL_C).unwrap().memory_bytes())),
            ]);

            // CM variants share the Hermit database's base table & host
            // index; only the translation structure differs.
            let mut pairs: Vec<(f64, f64, Tid)> = Vec::new();
            hermit
                .heap()
                .for_each_live_row(|loc, row| {
                    if let (Some(m), Some(n)) = (row.f64(cols::COL_C), row.f64(cols::COL_B)) {
                        pairs.push((m, n, Tid::from_loc(loc)));
                    }
                    true
                })
                .unwrap();
            let host_domain = hermit.heap().stats(cols::COL_B).unwrap().range().unwrap();
            for &tb in CM_TARGET_BUCKETS {
                for &hb in CM_HOST_BUCKETS {
                    let cm = CorrelationMap::build(
                        CmParams::new(tb, hb),
                        cfg.target_domain(),
                        host_domain,
                        &pairs,
                    );
                    let ops = measure_ops(|i| {
                        let (lb, ub) = queries[i % queries.len()];
                        std::hint::black_box(cm_lookup(
                            &hermit,
                            &cm,
                            RangePredicate::range(cols::COL_C, lb, ub),
                        ));
                    });
                    harness::row(&[
                        ("correlation", kind.label().into()),
                        ("noise", format!("{:.1}%", noise * 100.0)),
                        ("method", format!("cm-{tb:.0}/host-{hb:.0}")),
                        ("throughput", harness::fmt_ops(ops)),
                        ("memory", harness::fmt_mb(cm.memory_bytes())),
                    ]);
                }
            }
        }
    }
}
