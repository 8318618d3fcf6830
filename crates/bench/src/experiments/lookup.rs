//! Synthetic lookup experiments (§7.3): range lookups (Figs. 8–9) with
//! breakdowns (Figs. 10–11) and point lookups (Figs. 12–13) with
//! breakdowns (Figs. 14–15).

use crate::harness::{self, measure_ops, Scale};
use hermit_core::{Database, LookupBreakdown, RangePredicate};
use hermit_storage::TidScheme;
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};

/// Range-lookup selectivities for Synthetic (paper: 0.01%–0.1%).
const SELECTIVITIES: &[f64] = &[0.0001, 0.00025, 0.0005, 0.00075, 0.001];

fn synth_cfg(scale: Scale, sigmoid: bool, tuples: usize) -> SyntheticConfig {
    SyntheticConfig {
        tuples: scale.tuples(tuples),
        correlation: if sigmoid { CorrelationKind::Sigmoid } else { CorrelationKind::Linear },
        ..Default::default()
    }
}

/// Build the Hermit and Baseline databases for one configuration.
pub fn build_pair(cfg: &SyntheticConfig, scheme: TidScheme) -> (Database, Database) {
    let mut hermit = build_synthetic(cfg, scheme);
    hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let mut baseline = build_synthetic(cfg, scheme);
    baseline.create_baseline_index(cols::COL_C, false).unwrap();
    (hermit, baseline)
}

/// Figs. 8 (Linear) and 9 (Sigmoid): range-lookup throughput vs
/// selectivity, both pointer schemes.
pub fn fig08_09_synth_range(scale: Scale, sigmoid: bool) {
    let id = if sigmoid { "fig09" } else { "fig08" };
    let label = if sigmoid { "Sigmoid" } else { "Linear" };
    harness::section(id, &format!("Synthetic-{label} range lookup throughput vs selectivity"));
    let cfg = synth_cfg(scale, sigmoid, 200_000);
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (hermit, baseline) = build_pair(&cfg, scheme);
        for &sel in SELECTIVITIES {
            let mut gen = QueryGen::new(cfg.target_domain(), 0xF1608);
            let queries = gen.ranges(sel, 512);
            let run = |db: &Database| {
                measure_ops(|i| {
                    let (lb, ub) = queries[i % queries.len()];
                    let r = db.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
                    std::hint::black_box(r.rows.len());
                })
            };
            let (h, b) = (run(&hermit), run(&baseline));
            harness::row(&[
                ("scheme", scheme.label().into()),
                ("selectivity", format!("{:.3}%", sel * 100.0)),
                ("hermit", harness::fmt_ops(h)),
                ("baseline", harness::fmt_ops(b)),
                ("hermit/baseline", format!("{:.2}", h / b)),
            ]);
        }
    }
}

fn print_breakdown(prefix: &str, scheme: TidScheme, key: String, b: &LookupBreakdown) {
    let (trs, host, primary, base) = b.shares();
    harness::row(&[
        ("scheme", scheme.label().into()),
        (prefix, key),
        ("trs_tree", format!("{:.1}%", trs * 100.0)),
        ("host_index", format!("{:.1}%", host * 100.0)),
        ("primary_index", format!("{:.1}%", primary * 100.0)),
        ("base_table", format!("{:.1}%", base * 100.0)),
    ]);
}

/// Figs. 10 (Hermit) and 11 (Baseline): range-lookup time breakdown,
/// Synthetic-Sigmoid.
pub fn fig10_11_range_breakdown(scale: Scale, hermit_side: bool) {
    let id = if hermit_side { "fig10" } else { "fig11" };
    let who = if hermit_side { "Hermit" } else { "Baseline" };
    harness::section(id, &format!("{who} range-lookup performance breakdown (Sigmoid)"));
    let cfg = synth_cfg(scale, true, 200_000);
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (hermit, baseline) = build_pair(&cfg, scheme);
        let db = if hermit_side { &hermit } else { &baseline };
        for &sel in SELECTIVITIES {
            let mut gen = QueryGen::new(cfg.target_domain(), 0xF1610);
            let mut acc = LookupBreakdown::default();
            for (lb, ub) in gen.ranges(sel, 64) {
                let r = db.lookup_range(RangePredicate::range(cols::COL_C, lb, ub), None);
                acc.merge(&r.breakdown);
            }
            print_breakdown("selectivity", scheme, format!("{:.3}%", sel * 100.0), &acc);
        }
    }
}

/// Figs. 12 (Linear) and 13 (Sigmoid): point-lookup throughput vs number
/// of tuples.
pub fn fig12_13_point_lookup(scale: Scale, sigmoid: bool) {
    let id = if sigmoid { "fig13" } else { "fig12" };
    let label = if sigmoid { "Sigmoid" } else { "Linear" };
    harness::section(id, &format!("Synthetic-{label} point lookup throughput vs tuples"));
    // Paper sweeps 1..20M; scaled to 1/20th of the range experiment's base.
    let base = scale.tuples(200_000);
    for factor in [1usize, 5, 10, 15, 20] {
        let tuples = base * factor / 20;
        let cfg = SyntheticConfig {
            tuples,
            correlation: if sigmoid { CorrelationKind::Sigmoid } else { CorrelationKind::Linear },
            ..Default::default()
        };
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let (hermit, baseline) = build_pair(&cfg, scheme);
            let mut gen = QueryGen::new(cfg.target_domain(), 0xF1612);
            let points = gen.points(1024);
            let run = |db: &Database| {
                measure_ops(|i| {
                    let r = db.lookup_range(
                        RangePredicate::point(cols::COL_C, points[i % points.len()]),
                        None,
                    );
                    std::hint::black_box(r.rows.len());
                })
            };
            let (h, b) = (run(&hermit), run(&baseline));
            harness::row(&[
                ("scheme", scheme.label().into()),
                ("tuples", tuples.to_string()),
                ("hermit", harness::fmt_ops(h)),
                ("baseline", harness::fmt_ops(b)),
                ("hermit/baseline", format!("{:.2}", h / b)),
            ]);
        }
    }
}

/// Figs. 14 (Hermit) and 15 (Baseline): point-lookup time breakdown vs
/// tuple count, Synthetic-Sigmoid.
pub fn fig14_15_point_breakdown(scale: Scale, hermit_side: bool) {
    let id = if hermit_side { "fig14" } else { "fig15" };
    let who = if hermit_side { "Hermit" } else { "Baseline" };
    harness::section(id, &format!("{who} point-lookup performance breakdown (Sigmoid)"));
    let base = scale.tuples(200_000);
    for factor in [1usize, 10, 20] {
        let tuples = base * factor / 20;
        let cfg =
            SyntheticConfig { tuples, correlation: CorrelationKind::Sigmoid, ..Default::default() };
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let (hermit, baseline) = build_pair(&cfg, scheme);
            let db = if hermit_side { &hermit } else { &baseline };
            let mut gen = QueryGen::new(cfg.target_domain(), 0xF1614);
            let mut acc = LookupBreakdown::default();
            for p in gen.points(512) {
                let r = db.lookup_range(RangePredicate::point(cols::COL_C, p), None);
                acc.merge(&r.breakdown);
            }
            print_breakdown("tuples", scheme, tuples.to_string(), &acc);
        }
    }
}
