//! The cost-based planner: turn a declarative [`Query`] into an
//! inspectable [`QueryPlan`].
//!
//! This is the seam the paper's §3 architecture diagram puts *in front of*
//! Hermit: "the query optimizer decides, at plan time, whether a predicate
//! is served by a complete index or routed through a TRS-Tree". The
//! planner enumerates every access path the database's indexes support for
//! the query's conjuncts —
//!
//! * **index scan** — the conjunct's column carries a complete baseline
//!   B+-tree: a range scan on one column, or a *box scan* when a second
//!   conjunct matches the leading column of a composite `(leading, column)`
//!   index (§3's multi-column case);
//! * **Hermit route** — the conjunct's column carries a TRS-Tree whose host
//!   has a baseline B+-tree at the same leading column (Fig. 3 phases 1–2),
//!   with or without a leading conjunct;
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

use crate::database::Database;
use crate::executor::RangePredicate;
use crate::index::{IndexKey, SecondaryIndex};
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

/// The structure that drives phases 1–2 of a plan. An index path names its
/// index by the columns of its conjuncts: `leading` is set exactly when the
/// index is a composite one on `(leading.column, pred.column)`.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Complete baseline B+-tree: a range scan on `pred`'s column, or a box
    /// scan of the composite index behind `leading`. Exact on both.
    Index {
        /// Conjunct on the leading column of a composite index.
        leading: Option<RangePredicate>,
        /// The driving conjunct.
        pred: RangePredicate,
    },
    /// Hermit route: the TRS-Tree on `pred`'s column translates it into
    /// ranges on `host`, whose baseline B+-tree at the same leading column
    /// serves the probes.
    Hermit {
        /// Conjunct on the leading column of a composite index.
        leading: Option<RangePredicate>,
        /// The driving conjunct (answered approximately).
        pred: RangePredicate,
        /// Host column whose complete index is probed.
        host: ColumnId,
    },
    /// Full heap scan; every conjunct is validated in-scan.
    SeqScan,
}

/// Coarse plan classification: the server's per-kind latency histograms
/// and the benchmark's plan counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Single-column TRS-Tree route.
    Hermit,
    /// Complete single-column baseline index.
    Baseline,
    /// Composite `(leading, column)` box scan, baseline or Hermit-routed.
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
            AccessPath::Index { leading: Some(_), .. }
            | AccessPath::Hermit { leading: Some(_), .. } => PlanKind::Composite,
            AccessPath::Hermit { .. } => PlanKind::Hermit,
            AccessPath::Index { .. } => PlanKind::Baseline,
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
            AccessPath::Index { leading: None, pred } => writeln!(
                f,
                "  phase 2: range scan baseline B+-tree on {} (exact)",
                self.pred_str(pred)
            )?,
            AccessPath::Index { leading: Some(lead), pred } => writeln!(
                f,
                "  phase 2: box scan composite B+-tree on ({}, {})",
                self.pred_str(lead),
                self.pred_str(pred)
            )?,
            AccessPath::Hermit { leading, pred, host } => {
                writeln!(
                    f,
                    "  phase 1: TRS-Tree translate {} -> ranges on {}",
                    self.pred_str(pred),
                    self.col_str(*host)
                )?;
                match leading {
                    None => {
                        writeln!(f, "  phase 2: probe baseline B+-tree on {}", self.col_str(*host))?
                    }
                    Some(lead) => writeln!(
                        f,
                        "  phase 2: box scan composite B+-tree on ({}, {} ranges)",
                        self.pred_str(lead),
                        self.col_str(*host)
                    )?,
                }
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

/// The cheapest access-path candidate found so far during planning.
struct Candidate {
    access: AccessPath,
    /// Positions of the conjuncts the path drives: the leading one, if
    /// any, and the driving one. The rest are residuals.
    driven: (Option<usize>, usize),
    cost: f64,
    candidates: f64,
    /// Enumeration rank that breaks cost ties: single-column paths by
    /// driving conjunct, then composite paths by (leading, driving)
    /// conjunct, then the scan.
    rank: (u8, usize, usize),
}

impl Database {
    /// Plan a [`Query`]: enumerate the access paths the current indexes
    /// support, cost them from column statistics, and return the cheapest
    /// as an executable [`QueryPlan`].
    pub fn plan(&self, query: &Query) -> QueryPlan {
        self.plan_among(query, None).expect("seq scan is always a candidate")
    }

    /// The plan that forces the index at `key`, driven by `query`'s first
    /// conjunct (and, for a composite, a conjunct on its leading column),
    /// with every other conjunct as a residual: the plan behind
    /// [`lookup_range`](Database::lookup_range) and
    /// [`lookup_box`](Database::lookup_box). `None` when the index is
    /// missing, unroutable, or does not match the conjuncts' columns.
    pub(crate) fn index_plan(&self, key: IndexKey, query: &Query) -> Option<QueryPlan> {
        self.plan_among(query, Some(key))
    }

    /// Enumerate and cost `query`'s access paths — one pass over the index
    /// registry, then the scan — and build the cheapest into a plan. With
    /// `forced` the only path enumerated is that index driven by the first
    /// conjunct, so the planner and [`index_plan`](Self::index_plan) share
    /// one branch — and its recheck rule: a Hermit route re-checks the
    /// conjuncts it drives, an exact index only the residuals.
    fn plan_among(&self, query: &Query, forced: Option<IndexKey>) -> Option<QueryPlan> {
        let n = self.len();
        let nf = n as f64;
        let conjuncts = query.conjuncts();
        let stats_of = |cid: ColumnId| self.heap().stats(cid).ok();

        // Per-conjunct selectivities, fetched once up front: `heap.stats`
        // locks + clones, and a composite index is costed for every pair of
        // conjuncts on its columns.
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

        let mut best: Option<Candidate> = None;
        let mut offer = |c: Candidate| {
            let wins = best.as_ref().is_none_or(|b| {
                c.cost.total_cmp(&b.cost).then(c.rank.cmp(&b.rank)) == std::cmp::Ordering::Less
            });
            if wins {
                best = Some(c);
            }
        };

        let (entries, driving) = match forced {
            Some(key) => (self.indexes.range(key..=key), &conjuncts[..1]),
            None => (self.indexes.range(..), conjuncts),
        };
        for (key, index) in entries {
            // A Hermit index is routable only while its host's complete
            // index exists.
            let hermit = match index {
                SecondaryIndex::Hermit { trs, host } => match self.host_index(*key, *host) {
                    Some(_) => Some((trs, *host)),
                    None => continue,
                },
                SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
            };
            for (j, pred) in driving.iter().enumerate().filter(|(_, p)| p.column == key.column) {
                // The driving conjunct's selectivity as the index sees it:
                // a TRS-Tree widens it by its error bound.
                let (trs_cost, sel) = match hermit {
                    Some((trs, host)) => (
                        COST_TRS,
                        (sels[j] + trs_inflation(trs.params().error_bound, host)).min(1.0),
                    ),
                    None => (0.0, sels[j]),
                };
                let access = |leading| match hermit {
                    Some((_, host)) => AccessPath::Hermit { leading, pred: *pred, host },
                    None => AccessPath::Index { leading, pred: *pred },
                };
                let Some(leading_col) = key.leading else {
                    let cand = sel * nf;
                    offer(Candidate {
                        access: access(None),
                        driven: (None, j),
                        cost: trs_cost + COST_PROBE + cand * (COST_ENTRY + COST_CANDIDATE),
                        candidates: cand,
                        rank: (0, j, 0),
                    });
                    continue;
                };
                // A composite index: every other conjunct on its leading
                // column bounds the box. The scan walks the leading range
                // and filters the second dimension in-index.
                for (i, lead) in conjuncts.iter().enumerate() {
                    if i == j || lead.column != leading_col {
                        continue;
                    }
                    let cand = sels[i] * sel * nf;
                    offer(Candidate {
                        access: access(Some(*lead)),
                        driven: (Some(i), j),
                        cost: trs_cost
                            + COST_PROBE
                            + sels[i] * nf * COST_ENTRY
                            + cand * COST_CANDIDATE,
                        candidates: cand,
                        rank: (1, i, j),
                    });
                }
            }
        }

        // In a free choice the scan competes too: the fallback that is
        // always available, validating everything in-scan.
        if forced.is_none() {
            offer(Candidate {
                access: AccessPath::SeqScan,
                driven: (None, usize::MAX),
                cost: nf * COST_SEQ_ROW,
                candidates: nf,
                rank: (2, 0, 0),
            });
        }
        let best = best?;

        // Phase-4 re-checks: every conjunct the path does not answer
        // exactly. A Hermit route answers its driving conjunct only
        // approximately, and the TRS-Tree's outlier tids join the
        // candidates *without* passing through the box scan, so it re-checks
        // the leading conjunct too; an exact index re-checks the residuals
        // only, and the scan validates everything in-scan.
        let (lead, drive) = best.driven;
        let mut recheck = Vec::with_capacity(conjuncts.len());
        if matches!(best.access, AccessPath::Hermit { .. }) {
            recheck.extend(lead.map(|i| conjuncts[i]));
            recheck.push(conjuncts[drive]);
        }
        recheck.extend(
            conjuncts
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != drive && Some(k) != lead)
                .map(|(_, p)| *p),
        );

        // Column labels for EXPLAIN: every column the plan mentions.
        let mut mentioned: Vec<ColumnId> = conjuncts.iter().map(|p| p.column).collect();
        if let AccessPath::Hermit { host, .. } = &best.access {
            mentioned.push(*host);
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
            recheck,
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
