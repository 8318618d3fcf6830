//! The cost-based planner: turn a declarative [`Query`] into an
//! inspectable [`QueryPlan`].
//!
//! This is the seam the paper's §3 architecture diagram puts *in front of*
//! Hermit: "the query optimizer decides, at plan time, whether a predicate
//! is served by a complete index or routed through a TRS-Tree". The
//! planner enumerates every access path the database's indexes support for
//! the query's conjuncts —
//!
//! * **Hermit route** — the conjunct's column carries a TRS-Tree whose
//!   host column has a baseline B+-tree (Fig. 3 phases 1–2);
//! * **index range scan** — the conjunct's column carries a complete
//!   baseline B+-tree;
//! * **composite box scan** — two conjuncts match a composite
//!   `(leading, value)` index (§3's multi-column case), baseline or
//!   Hermit-routed;
//! * **seq scan** — the always-available fallback: stream the heap and
//!   validate every conjunct (this is what makes queries over unindexed
//!   columns return rows instead of silently nothing);
//!
//! — estimates each path's cost from the table's incrementally-maintained
//! [`ColumnStats`] (value ranges → uniform-assumption selectivities, the
//! same "optimizer statistics" Algorithm 1 reads) plus per-structure
//! constants, and picks the cheapest. All conjuncts not answered exactly
//! by the chosen path are pushed into phase-4 base-table validation
//! ([`QueryPlan::recheck`]), generalizing the old single `extra`
//! predicate.
//!
//! [`QueryPlan`]'s `Display` is the stable EXPLAIN format asserted in the
//! test suite and shown by `examples/query_plans.rs`.

use crate::composite::CompositeIndex;
use crate::database::Database;
use crate::executor::RangePredicate;
use crate::index::SecondaryIndex;
use crate::query::Query;
use hermit_storage::{ColumnId, ColumnStats, TidScheme};
use std::fmt;

/// Cost of streaming one heap row in a sequential scan.
const COST_SEQ_ROW: f64 = 1.0;
/// Cost of one B+-tree descent.
const COST_PROBE: f64 = 12.0;
/// Cost per index entry walked during a range scan.
const COST_ENTRY: f64 = 0.5;
/// Cost per candidate resolved + fetched + validated (phases 3–4); the
/// dominant term, a buffer-pool access.
const COST_CANDIDATE: f64 = 4.0;
/// Cost of one TRS-Tree traversal (phase 1).
const COST_TRS: f64 = 8.0;

/// The structure that drives phases 1–2 of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Hermit route: TRS-Tree on the predicate's column translates it into
    /// ranges on `host`, whose baseline B+-tree serves the probes.
    Hermit {
        /// The driving conjunct (answered approximately).
        pred: RangePredicate,
        /// Host column whose complete index is probed.
        host: ColumnId,
    },
    /// Complete baseline B+-tree range scan on the predicate's column.
    Baseline {
        /// The driving conjunct (answered exactly).
        pred: RangePredicate,
    },
    /// Box scan on a composite `(leading, value)` baseline B+-tree.
    CompositeBaseline {
        /// Registry position of the composite index.
        index: usize,
        /// Conjunct on the leading column.
        leading: RangePredicate,
        /// Conjunct on the value column.
        value: RangePredicate,
    },
    /// Composite Hermit route: the value conjunct is translated through a
    /// TRS-Tree into host ranges, box-scanned on the companion
    /// `(leading, host)` composite baseline.
    CompositeHermit {
        /// Registry position of the composite Hermit index.
        index: usize,
        /// Conjunct on the leading column.
        leading: RangePredicate,
        /// Conjunct on the target (value) column.
        value: RangePredicate,
        /// Host column of the TRS-Tree.
        host: ColumnId,
    },
    /// Full heap scan; every conjunct is validated in-scan.
    SeqScan,
}

/// Coarse plan classification: the server's per-kind latency histograms
/// and the benchmark's plan counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// TRS-Tree route (single-column or composite).
    Hermit,
    /// Complete single-column baseline index.
    Baseline,
    /// Composite `(leading, value)` box scan.
    Composite,
    /// Full heap scan.
    Scan,
}

impl PlanKind {
    /// Stable lowercase label (EXPLAIN header).
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::Hermit => "hermit route",
            PlanKind::Baseline => "index range scan",
            PlanKind::Composite => "composite box scan",
            PlanKind::Scan => "seq scan",
        }
    }

    /// One-word stable key (JSON counters).
    pub fn key(&self) -> &'static str {
        match self {
            PlanKind::Hermit => "hermit",
            PlanKind::Baseline => "baseline",
            PlanKind::Composite => "composite",
            PlanKind::Scan => "scan",
        }
    }

    /// All kinds, in counter-emission order.
    pub const ALL: [PlanKind; 4] =
        [PlanKind::Hermit, PlanKind::Baseline, PlanKind::Composite, PlanKind::Scan];
}

/// An executable, inspectable query plan.
///
/// Produced by [`Database::plan`]; executed by [`Database::execute_plan`]
/// (a batch of one) or [`Database::execute_plans`]. The `Display` impl
/// renders the stable EXPLAIN format.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The chosen driving access path.
    pub access: AccessPath,
    /// Conjuncts re-checked at the base table in phase 4: the driving
    /// conjunct too when the path is approximate (Hermit), residual-only
    /// when it is exact (baseline).
    pub recheck: Vec<RangePredicate>,
    /// Row limit carried over from the query.
    pub limit: Option<usize>,
    /// Projection carried over from the query.
    pub projection: Option<Vec<ColumnId>>,
    /// Estimated total cost (abstract units).
    pub est_cost: f64,
    /// Estimated candidates fetched in phases 3–4.
    pub est_candidates: f64,
    /// Estimated qualifying rows.
    pub est_rows: f64,
    /// Live heap rows at plan time.
    pub heap_rows: usize,
    /// Tid scheme in force (shapes phase 3).
    pub scheme: TidScheme,
    /// `(column, name)` labels for every column the plan mentions.
    labels: Vec<(ColumnId, String)>,
}

impl QueryPlan {
    /// Coarse classification of the access path.
    pub fn kind(&self) -> PlanKind {
        match self.access {
            AccessPath::Hermit { .. } => PlanKind::Hermit,
            AccessPath::Baseline { .. } => PlanKind::Baseline,
            AccessPath::CompositeBaseline { .. } | AccessPath::CompositeHermit { .. } => {
                PlanKind::Composite
            }
            AccessPath::SeqScan => PlanKind::Scan,
        }
    }

    fn col_str(&self, cid: ColumnId) -> String {
        match self.labels.iter().find(|(c, _)| *c == cid) {
            Some((_, name)) => format!("{name}#{cid}"),
            None => format!("col#{cid}"),
        }
    }

    fn pred_str(&self, p: &RangePredicate) -> String {
        if p.lb == p.ub {
            format!("{} = {}", self.col_str(p.column), p.lb)
        } else {
            format!("{} in [{}, {}]", self.col_str(p.column), p.lb, p.ub)
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Query Plan [{}] (cost={:.1}, candidates~{:.0}, rows~{:.0}, heap_rows={})",
            self.kind().label(),
            self.est_cost,
            self.est_candidates,
            self.est_rows,
            self.heap_rows
        )?;
        match &self.access {
            AccessPath::Hermit { pred, host } => {
                writeln!(
                    f,
                    "  phase 1: TRS-Tree translate {} -> ranges on {}",
                    self.pred_str(pred),
                    self.col_str(*host)
                )?;
                writeln!(f, "  phase 2: probe baseline B+-tree on {}", self.col_str(*host))?;
            }
            AccessPath::Baseline { pred } => {
                writeln!(
                    f,
                    "  phase 2: range scan baseline B+-tree on {} (exact)",
                    self.pred_str(pred)
                )?;
            }
            AccessPath::CompositeBaseline { index, leading, value } => {
                writeln!(
                    f,
                    "  phase 2: box scan composite B+-tree #{index} on ({}, {})",
                    self.pred_str(leading),
                    self.pred_str(value)
                )?;
            }
            AccessPath::CompositeHermit { index, leading, value, host } => {
                writeln!(
                    f,
                    "  phase 1: TRS-Tree translate {} -> ranges on {}",
                    self.pred_str(value),
                    self.col_str(*host)
                )?;
                writeln!(
                    f,
                    "  phase 2: box scan composite B+-tree #{index} on ({}, {} ranges)",
                    self.pred_str(leading),
                    self.col_str(*host)
                )?;
            }
            AccessPath::SeqScan => {
                writeln!(f, "  phase 2: seq scan heap ({} rows)", self.heap_rows)?;
            }
        }
        if !matches!(self.access, AccessPath::SeqScan) {
            let hop = match self.scheme {
                TidScheme::Physical => "physical tids: direct",
                TidScheme::Logical => "logical tids: primary-index hop",
            };
            writeln!(f, "  phase 3: resolve tids ({hop})")?;
        }
        if self.recheck.is_empty() {
            writeln!(f, "  phase 4: validate (exact index hits; nothing to re-check)")?;
        } else {
            let checks: Vec<String> = self.recheck.iter().map(|p| self.pred_str(p)).collect();
            writeln!(f, "  phase 4: validate {}", checks.join(" AND "))?;
        }
        if let Some(n) = self.limit {
            writeln!(f, "  limit: {n}")?;
        }
        if let Some(cols) = &self.projection {
            let cols: Vec<String> = cols.iter().map(|&c| self.col_str(c)).collect();
            writeln!(f, "  project: [{}]", cols.join(", "))?;
        }
        Ok(())
    }
}

/// Estimated fraction of rows matching `pred`, from the column's
/// incrementally-maintained min/max range under a uniformity assumption.
///
/// The range stats are append-only, so every live value lies inside the
/// recorded range: a predicate entirely outside it genuinely matches
/// nothing, and an inverted predicate matches nothing by definition.
/// *Counts*, by contrast, are live (deletes decrement them): a column whose
/// non-null values were all deleted matches nothing even though its stale
/// range still overlaps the predicate, and the point-predicate floor is
/// `1/live_non_null`, not `1/observed` — after heavy deletion the old
/// append-only counts would overestimate table cardinality and make index
/// paths win when a scan of the shrunken heap is cheaper. Table cardinality
/// itself (`n_rows`, the scan cost and candidate scale) is always the live
/// `heap.len()`.
fn selectivity(pred: &RangePredicate, stats: Option<&ColumnStats>, n_rows: usize) -> f64 {
    if pred.lb > pred.ub {
        return 0.0;
    }
    let Some(stats) = stats else {
        return 0.0;
    };
    let Some((min, max)) = stats.range() else {
        return 0.0;
    };
    let live = stats.non_null_count().min(n_rows as u64);
    if live == 0 {
        return 0.0;
    }
    if pred.ub < min || pred.lb > max {
        return 0.0;
    }
    let width = max - min;
    let floor = 1.0 / live as f64;
    if width <= 0.0 {
        return 1.0;
    }
    let overlap = (pred.ub.min(max) - pred.lb.max(min)).max(0.0) / width;
    overlap.max(floor).min(1.0)
}

/// One enumerated access-path candidate during planning.
struct Candidate {
    access: AccessPath,
    recheck: Vec<RangePredicate>,
    cost: f64,
    candidates: f64,
}

impl Database {
    /// Plan a [`Query`]: enumerate the access paths the current indexes
    /// support, cost them from column statistics, and return the cheapest
    /// as an executable [`QueryPlan`].
    pub fn plan(&self, query: &Query) -> QueryPlan {
        self.plan_among(query, false).expect("seq scan is always a candidate")
    }

    /// The plan that forces `pred`'s own single-column index — the Hermit
    /// route or the baseline B+-tree, whichever its column carries — with
    /// `extra` as a residual conjunct: the plan behind
    /// [`lookup_range`](Database::lookup_range). `None` when the column has
    /// no routable index.
    pub(crate) fn index_plan(
        &self,
        pred: RangePredicate,
        extra: Option<RangePredicate>,
    ) -> Option<QueryPlan> {
        let query = extra.into_iter().fold(Query::filter(pred), Query::and);
        self.plan_among(&query, true)
    }

    /// Enumerate and cost `query`'s access paths and build the cheapest
    /// into a plan. With `forced_index` the only path enumerated is the
    /// first conjunct's single-column index, so the planner and
    /// [`index_plan`](Self::index_plan) share that branch — and its recheck
    /// rule: a Hermit route re-checks its driving conjunct, a baseline
    /// index only the residuals.
    fn plan_among(&self, query: &Query, forced_index: bool) -> Option<QueryPlan> {
        let n = self.len();
        let nf = n as f64;
        let conjuncts = query.conjuncts();
        let stats_of = |cid: ColumnId| self.heap().stats(cid).ok();

        // Per-conjunct selectivities, fetched once up front: `heap.stats`
        // locks + clones, and the composite loop below is
        // O(conjuncts² × composites) — it indexes into this table instead of
        // re-fetching.
        let sels: Vec<f64> =
            conjuncts.iter().map(|p| selectivity(p, stats_of(p.column).as_ref(), n)).collect();

        // Estimated qualifying rows: independence assumption across
        // conjuncts (textbook, and as wrong as it is everywhere else).
        let est_rows = sels.iter().product::<f64>() * nf;

        // Fraction of extra host-range width a TRS-Tree's error bound adds
        // on `host`, relative to the host column's full value range; host
        // widths are memoized per column.
        let mut host_widths: Vec<(ColumnId, Option<f64>)> = Vec::new();
        let mut trs_inflation = |error_bound: f64, host: ColumnId| -> f64 {
            let width = match host_widths.iter().find(|(c, _)| *c == host) {
                Some(&(_, w)) => w,
                None => {
                    let w = stats_of(host)
                        .and_then(|s| s.range())
                        .and_then(|(lo, hi)| (hi > lo).then_some(hi - lo));
                    host_widths.push((host, w));
                    w
                }
            };
            width.map_or(0.0, |w| 2.0 * error_bound / w)
        };

        let residual = |skip: &[usize]| -> Vec<RangePredicate> {
            conjuncts
                .iter()
                .enumerate()
                .filter(|(i, _)| !skip.contains(i))
                .map(|(_, p)| *p)
                .collect()
        };

        let mut paths: Vec<Candidate> = Vec::new();

        // Single-column index paths, one per conjunct whose column is
        // indexed.
        let driving = if forced_index { &conjuncts[..1] } else { conjuncts };
        for (i, pred) in driving.iter().enumerate() {
            match self.index(pred.column) {
                Some(SecondaryIndex::Baseline(_)) => {
                    let cand = sels[i] * nf;
                    paths.push(Candidate {
                        access: AccessPath::Baseline { pred: *pred },
                        recheck: residual(&[i]),
                        cost: COST_PROBE + cand * (COST_ENTRY + COST_CANDIDATE),
                        candidates: cand,
                    });
                }
                Some(SecondaryIndex::Hermit { trs, host }) => {
                    // Routable only while the host's complete index exists.
                    if matches!(self.index(*host), Some(SecondaryIndex::Baseline(_))) {
                        let sel =
                            (sels[i] + trs_inflation(trs.params().error_bound, *host)).min(1.0);
                        let cand = sel * nf;
                        let mut recheck = vec![*pred];
                        recheck.extend(residual(&[i]));
                        paths.push(Candidate {
                            access: AccessPath::Hermit { pred: *pred, host: *host },
                            recheck,
                            cost: COST_TRS + COST_PROBE + cand * (COST_ENTRY + COST_CANDIDATE),
                            candidates: cand,
                        });
                    }
                }
                None => {}
            }
        }

        // In a free choice, composite box paths and the scan compete too.
        // Composite paths are ordered conjunct pairs matching a registered
        // (leading, value) composite index.
        if !forced_index {
            let composites = &self.composites;
            for (i, lead) in conjuncts.iter().enumerate() {
                for (j, val) in conjuncts.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for (idx, ci) in composites.iter().enumerate() {
                        let lead_sel = sels[i];
                        match ci {
                            CompositeIndex::Baseline { leading, value, .. }
                                if *leading == lead.column && *value == val.column =>
                            {
                                let cand = lead_sel * sels[j] * nf;
                                paths.push(Candidate {
                                    access: AccessPath::CompositeBaseline {
                                        index: idx,
                                        leading: *lead,
                                        value: *val,
                                    },
                                    // The box scan filters both keys exactly
                                    // in-index, so only the residual conjuncts
                                    // need phase-4 validation.
                                    recheck: residual(&[i, j]),
                                    cost: COST_PROBE
                                        + lead_sel * nf * COST_ENTRY
                                        + cand * COST_CANDIDATE,
                                    candidates: cand,
                                });
                            }
                            CompositeIndex::Hermit { trs, leading, target, host }
                                if *leading == lead.column
                                    && *target == val.column
                                    && composites.companion_baseline(*leading, *host).is_some() =>
                            {
                                let vsel = (sels[j]
                                    + trs_inflation(trs.params().error_bound, *host))
                                .min(1.0);
                                let cand = lead_sel * vsel * nf;
                                // Both box conjuncts must be re-checked: the
                                // value conjunct was translated approximately,
                                // and the TRS-Tree's outlier tids join the
                                // candidate set *without* passing through the
                                // box scan, so even the leading conjunct can be
                                // violated by an outlier row.
                                let mut recheck = vec![*lead, *val];
                                recheck.extend(residual(&[i, j]));
                                paths.push(Candidate {
                                    access: AccessPath::CompositeHermit {
                                        index: idx,
                                        leading: *lead,
                                        value: *val,
                                        host: *host,
                                    },
                                    recheck,
                                    cost: COST_TRS
                                        + COST_PROBE
                                        + lead_sel * nf * COST_ENTRY
                                        + cand * COST_CANDIDATE,
                                    candidates: cand,
                                });
                            }
                            _ => {}
                        }
                    }
                }
            }

            // The fallback that is always available: scan the heap, validate
            // everything in-scan.
            paths.push(Candidate {
                access: AccessPath::SeqScan,
                recheck: conjuncts.to_vec(),
                cost: nf * COST_SEQ_ROW,
                candidates: nf,
            });
        }

        // Cheapest wins; earlier enumeration order breaks ties (indexes
        // before composites before the scan).
        let best = paths
            .into_iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.cost.total_cmp(&b.cost).then(ia.cmp(ib)))
            .map(|(_, c)| c)?;

        // Column labels for EXPLAIN: every column the plan mentions.
        let mut mentioned: Vec<ColumnId> = conjuncts.iter().map(|p| p.column).collect();
        match &best.access {
            AccessPath::Hermit { host, .. } | AccessPath::CompositeHermit { host, .. } => {
                mentioned.push(*host)
            }
            _ => {}
        }
        if let Some(cols) = query.projection() {
            mentioned.extend_from_slice(cols);
        }
        mentioned.sort_unstable();
        mentioned.dedup();
        let schema = self.heap().schema();
        let labels = mentioned
            .into_iter()
            .filter_map(|cid| schema.column(cid).ok().map(|def| (cid, def.name.clone())))
            .collect();

        Some(QueryPlan {
            access: best.access,
            recheck: best.recheck,
            limit: query.limit_rows(),
            projection: query.projection().map(<[ColumnId]>::to_vec),
            est_cost: best.cost,
            est_candidates: best.candidates,
            est_rows,
            heap_rows: n,
            scheme: self.scheme(),
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::Value;

    #[test]
    fn selectivity_uniform_and_edges() {
        let mut s = ColumnStats::default();
        for i in 0..=100 {
            s.observe(&Value::Float(i as f64));
        }
        let n = 101;
        let sel = |lb, ub| selectivity(&RangePredicate::range(0, lb, ub), Some(&s), n);
        assert!((sel(0.0, 100.0) - 1.0).abs() < 1e-12);
        assert!((sel(0.0, 49.0) - 0.49).abs() < 1e-12);
        assert_eq!(sel(200.0, 300.0), 0.0, "outside the observed range");
        assert_eq!(sel(60.0, 40.0), 0.0, "inverted");
        // Point predicate floors at 1/n.
        assert!((sel(50.0, 50.0) - 1.0 / n as f64).abs() < 1e-12);
        // No stats at all.
        assert_eq!(selectivity(&RangePredicate::point(0, 1.0), None, n), 0.0);
    }

    #[test]
    fn selectivity_degenerate_width() {
        let mut s = ColumnStats::default();
        s.observe(&Value::Float(7.0));
        assert_eq!(selectivity(&RangePredicate::range(0, 0.0, 10.0), Some(&s), 1), 1.0);
        assert_eq!(selectivity(&RangePredicate::range(0, 8.0, 10.0), Some(&s), 1), 0.0);
    }
}
