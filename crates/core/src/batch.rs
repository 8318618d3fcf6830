//! The query pipeline. Every plan — alone or in a batch — runs through one
//! per-plan function with reusable scratch buffers: a scalar query is a
//! batch of one. Each phase of §5.2 / Fig. 3 is written once:
//!
//! * **phases 1–2**, one candidate function per route: `gather_hermit`
//!   (TRS-Tree translation, then host-index probes unioned with the outlier
//!   tids) and `gather_index` (an exact index scan). Neither knows how many
//!   columns its index has: the one thing that differs by key is the
//!   probe, `Probe` — `for_each_eq` / `for_each_in_range` on one column,
//!   a box scan on two;
//! * **phases 3–4**, one tail, `batched_resolve_validate`: primary-index
//!   resolution under logical pointers, then validation in page order
//!   through [`hermit_storage::paged::PagedTable::for_each_row_batch`] —
//!   each heap page seen once per query, its candidates' records copied
//!   out, and each candidate validated and its projection written from that
//!   one copy. So an index plan's
//!   rows come back in ascending [`RowLoc`] order, the order the seq scan
//!   emits them in too.
//!
//! Across a batch the TRS traversal scratch, the candidate and location
//! vectors and the validation buffers are reused, not reallocated.

use crate::composite::{scan_box, CompositeKey};
use crate::database::Database;
use crate::executor::{QueryResult, RangePredicate};
use crate::index::{IndexKey, SecondaryIndex};
use crate::latches::{self, Held, Index, ReadGuard, Visibility};
use crate::plan::{AccessPath, QueryPlan};
use crate::query::Query;
use crate::rows::BlockWriter;
use hermit_btree::BPlusTree;
use hermit_storage::paged::BatchBuffers;
use hermit_storage::{ColumnId, F64Key, RowLoc, Tid, TidScheme};
use hermit_trs::{LookupScratch, TrsLookup};
use hermit_txn::ReadView;
use std::time::Instant;

/// Options of a batched execution. It has none: a batch runs on the calling
/// thread, one query after another, with one reused set of scratch buffers.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {}

/// Reusable buffers for the pipeline. One instance serves any number of
/// sequential queries.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// TRS-Tree BFS queue (phase 1).
    trs: LookupScratch,
    /// TRS approximate result: host ranges + outlier tids (phase 1).
    approx: TrsLookup,
    /// Candidate tuple ids (phase 2).
    pub(crate) candidates: Vec<Tid>,
    /// Resolved row locations (phase 3).
    locs: Vec<RowLoc>,
    /// Page-sort keys and record window of validation (phase 4).
    rows: BatchBuffers,
}

/// A baseline index read-latched for probing: one column, or a composite
/// one with the leading conjunct that bounds its box.
enum Probe<'t, 'l> {
    One(ReadGuard<'t, 'l, Index, BPlusTree<F64Key, Tid>>),
    Two(ReadGuard<'t, 'l, Index, BPlusTree<CompositeKey, Tid>>, RangePredicate),
}

impl Probe<'_, '_> {
    /// Every tid whose (second) key lies in `[lo, hi]`; a point takes the
    /// equality path of a one-column tree.
    fn for_each(&self, lo: f64, hi: f64, mut f: impl FnMut(Tid)) {
        match self {
            Probe::One(tree) if lo == hi => tree.for_each_eq(&F64Key(lo), |tid| f(*tid)),
            Probe::One(tree) => tree.for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| f(*tid)),
            Probe::Two(tree, leading) => scan_box(tree, leading, lo, hi, f),
        }
    }
}

impl Database {
    /// Plan every [`Query`] with the cost-based planner and execute the
    /// batch with one reused set of scratch buffers. Results come back in input
    /// order, each exactly what [`Database::execute`] returns for its query.
    pub fn execute_batch(&self, queries: &[Query], opts: &BatchOptions) -> Vec<QueryResult> {
        let plans: Vec<QueryPlan> = queries.iter().map(|q| self.plan(q)).collect();
        self.execute_plans(&plans, opts)
    }

    /// Execute pre-built plans with one reused set of scratch buffers (plan
    /// once, execute many). Each plan reads as an auto-commit reader, like
    /// [`Database::execute_plan`].
    pub fn execute_plans(&self, plans: &[QueryPlan], _opts: &BatchOptions) -> Vec<QueryResult> {
        let mut scratch = BatchScratch::default();
        plans.iter().map(|plan| self.run_plan(plan, None, &mut scratch)).collect()
    }

    /// One plan through the pipeline, reusing `scratch` — the per-plan
    /// function behind every entry point, where the latch chain starts.
    /// Reads as transaction `txn`, or as an auto-commit reader when `None`
    /// (see [`crate::txn`]).
    pub(crate) fn run_plan(
        &self,
        plan: &QueryPlan,
        txn: Option<u64>,
        scratch: &mut BatchScratch,
    ) -> QueryResult {
        // Shared visibility latch for the whole execution (see
        // `crate::txn`): the frozen view stays in lockstep with the heap
        // until the last row is validated.
        let mut root = Held::unlocked();
        let mut vis = latches::read_visibility(&self.txns, &mut root);
        let view = self.txns.read_view(txn);
        let mut result = QueryResult::default();
        let projection = plan.projection.as_deref();
        scratch.candidates.clear();
        let gathered = match &plan.access {
            AccessPath::Index { leading, pred } => {
                self.gather_index(*leading, *pred, scratch, &mut result, vis.held())
            }
            AccessPath::Hermit { leading, pred, host } => {
                self.gather_hermit(*leading, *pred, *host, scratch, &mut result, vis.held())
            }
            AccessPath::SeqScan => {
                self.run_scan_into(&plan.recheck, plan.limit, projection, &view, &mut result);
                return result;
            }
        };
        if gathered {
            self.batched_resolve_validate(
                scratch,
                &plan.recheck,
                projection,
                &view,
                &mut result,
                vis.held(),
            );
            // Rows are in heap order, so a limit keeps the lowest locations;
            // `rows` and the block are cut together and stay aligned.
            if let Some(n) = plan.limit {
                result.rows.truncate(n);
                if let Some(block) = &mut result.projected {
                    block.truncate(n);
                }
            }
        }
        result
    }

    /// Execute a box query — `leading ∈ [lb, ub] AND value ∈ [lb, ub]` —
    /// through the composite index at `key`, as an auto-commit reader: the
    /// forced composite route, as [`lookup_range`](Self::lookup_range) is
    /// the forced single-column one, planned by the same branch. Empty when
    /// `key` names no routable index on the two predicates' columns.
    pub fn lookup_box(
        &self,
        key: IndexKey,
        leading: RangePredicate,
        value: RangePredicate,
    ) -> QueryResult {
        self.index_plan(key, &Query::filter(value).and(leading))
            .map_or_else(QueryResult::default, |plan| self.execute_plan(&plan))
    }

    /// The baseline index at `(leading, column)` read-latched as a
    /// [`Probe`]; `None` when it is missing or not a baseline of that
    /// shape (dropped or replaced since planning).
    fn probe<'t>(
        &self,
        leading: Option<RangePredicate>,
        column: ColumnId,
        held: &'t mut Held<Visibility>,
    ) -> Option<Probe<'t, '_>> {
        let key = IndexKey { leading: leading.map(|l| l.column), column };
        match (self.indexes.get(&key)?, leading) {
            (SecondaryIndex::Baseline(tree), None) => Some(Probe::One(tree.read_at(held))),
            (SecondaryIndex::Composite(tree), Some(lead)) => {
                Some(Probe::Two(tree.read_at(held), lead))
            }
            _ => None,
        }
    }

    /// Phases 1–2 of the Hermit route into `scratch.candidates`: translate
    /// `pred` through the TRS-Tree, probe the host's baseline index (at
    /// the same leading column) with each range, and union the outlier
    /// tids. The candidates are approximate, so the plan re-checks `pred`
    /// (and `leading`) at the base table. Returns `false` when the TRS-Tree
    /// or its host index has dropped out since planning — no results.
    fn gather_hermit(
        &self,
        leading: Option<RangePredicate>,
        pred: RangePredicate,
        host: ColumnId,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
        held: &mut Held<Visibility>,
    ) -> bool {
        let key = IndexKey { leading: leading.map(|l| l.column), column: pred.column };
        let Some(SecondaryIndex::Hermit { trs, .. }) = self.indexes.get(&key) else {
            return false;
        };
        // Phase 1: TRS-Tree search into reused buffers (read latch).
        let t0 = Instant::now();
        trs.lookup_into(pred.lb, pred.ub, &mut scratch.trs, &mut scratch.approx);
        result.breakdown.trs_tree += t0.elapsed();

        // Phase 2: host-index probes over the translated ranges, unioned
        // with the outlier tids (which bypass the host index entirely,
        // §4.3).
        let t1 = Instant::now();
        let Some(probe) = self.probe(leading, host, held) else {
            return false;
        };
        let candidates = &mut scratch.candidates;
        candidates.extend_from_slice(&scratch.approx.tids);
        let had_outliers = !candidates.is_empty();
        for &(lo, hi) in &scratch.approx.ranges {
            probe.for_each(lo, hi, |tid| candidates.push(tid));
        }
        // Release the tree latch before resolution and validation.
        drop(probe);
        // The unioned ranges are disjoint, so duplicates only arise between
        // outlier tids and range results.
        if had_outliers {
            candidates.sort_unstable();
            candidates.dedup();
        }
        result.breakdown.host_index += t1.elapsed();
        true
    }

    /// Phase 2 of the exact index route into `scratch.candidates`: a range
    /// scan (or a box scan behind `leading`), charged to the host-index
    /// phase so the breakdown figures line up across methods. The hits are
    /// exact, so the plan re-checks only the residual conjuncts — but the
    /// tuples are fetched either way (a real query returns rows, not tids).
    /// Returns `false` when the index has dropped out since planning.
    fn gather_index(
        &self,
        leading: Option<RangePredicate>,
        pred: RangePredicate,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
        held: &mut Held<Visibility>,
    ) -> bool {
        let Some(probe) = self.probe(leading, pred.column, held) else {
            return false;
        };
        let t0 = Instant::now();
        let candidates = &mut scratch.candidates;
        probe.for_each(pred.lb, pred.ub, |tid| candidates.push(tid));
        drop(probe);
        result.breakdown.host_index += t0.elapsed();
        true
    }

    /// Phases 3–4, the one tail of every index route: resolve
    /// `scratch.candidates` (logical pointers only), then validate every
    /// `recheck` conjunct in page order, writing a match's `projection`
    /// cells under the same page visit. Rows land in ascending location
    /// order. A tid that no longer resolves, or a row that is gone, is
    /// `unresolved`; a row invisible to `view` is skipped silently (no
    /// match, no false positive, no cells); a page that cannot be read
    /// counts in `unreadable` and its candidates in nothing else.
    pub(crate) fn batched_resolve_validate(
        &self,
        scratch: &mut BatchScratch,
        recheck: &[RangePredicate],
        projection: Option<&[ColumnId]>,
        view: &ReadView,
        result: &mut QueryResult,
        held: &mut Held<Visibility>,
    ) {
        // Phase 3: primary-index resolution (logical scheme only).
        scratch.locs.clear();
        match self.scheme() {
            TidScheme::Physical => {
                scratch.locs.extend(scratch.candidates.iter().map(|t| t.as_loc()))
            }
            TidScheme::Logical => {
                let t2 = Instant::now();
                let primary = self.primary.read_at(held);
                for tid in &scratch.candidates {
                    match primary.get(tid.as_pk()) {
                        Some(loc) => scratch.locs.push(loc),
                        None => result.unresolved += 1,
                    }
                }
                result.breakdown.primary_index += t2.elapsed();
            }
        }

        // Phase 4: page-ordered base-table validation. Each heap page is
        // seen once; all of its candidates are validated from that one
        // visit, with every recheck column read from the same row view.
        let t3 = Instant::now();
        let locs = &scratch.locs;
        let filtering = view.is_filtering();
        let pk_col = self.pk_col();
        result.rows.reserve(locs.len());
        // Sized for every candidate before the pass. Matches land at
        // consecutive slots, in the order `rows` gets them in.
        let mut writer =
            projection.map(|cols| BlockWriter::new(cols, self.heap().schema().width(), locs.len()));
        result.unreadable +=
            self.heap().for_each_row_batch(locs, &mut scratch.rows, |i, row| match row {
                None => result.unresolved += 1,
                Some(row) => {
                    if filtering
                        && row.value(pk_col).as_i64().is_some_and(|pk| !view.visible_pk(pk))
                    {
                        // Invisible to this snapshot: skip silently.
                    } else if recheck.iter().all(|p| p.matches(row.f64(p.column))) {
                        if let Some(writer) = &mut writer {
                            writer.emit(result.rows.len(), &row);
                        }
                        result.rows.push(locs[i]);
                    } else {
                        result.false_positives += 1;
                    }
                }
            });
        result.projected = writer.map(|w| w.finish(result.rows.len()));
        result.breakdown.base_table += t3.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::{ColumnDef, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
            ColumnDef::float("other"),
        ])
    }

    fn hermit_db(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let mut db = Database::new(schema(), 0, scheme);
        for i in 0..n {
            let m = i as f64;
            let host = if noise_every > 0 && i % noise_every == 0 { -5.0e6 } else { 2.0 * m };
            db.insert(&[
                Value::Int(i as i64),
                Value::Float(host),
                Value::Float(m),
                Value::Float(m * 10.0),
            ])
            .unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        db
    }

    /// Brute-force reference: every live row matching all of `preds`, in
    /// heap order.
    fn reference(db: &Database, preds: &[RangePredicate]) -> Vec<RowLoc> {
        let mut rows = Vec::new();
        db.heap()
            .for_each_live_row(|loc, row| {
                if preds.iter().all(|p| row.f64(p.column).is_some_and(|v| v >= p.lb && v <= p.ub)) {
                    rows.push(loc);
                }
                true
            })
            .unwrap();
        rows
    }

    fn batch(db: &Database, queries: &[Query]) -> Vec<QueryResult> {
        db.execute_batch(queries, &BatchOptions::default())
    }

    fn assert_exact(db: &Database, r: &QueryResult, preds: &[RangePredicate], ctx: &str) {
        assert_eq!(r.rows, reference(db, preds), "{ctx}: rows, in heap order");
        assert_eq!((r.unresolved, r.unreadable), (0, 0), "{ctx}: counts");
    }

    #[test]
    fn batch_matches_scalar_on_hermit_ranges() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 97);
            let preds: Vec<RangePredicate> = [(0.0, 50.0), (500.5, 700.25), (9_990.0, 20_000.0)]
                .iter()
                .map(|&(lb, ub)| RangePredicate::range(2, lb, ub))
                .collect();
            let queries: Vec<Query> = preds.iter().map(|&p| Query::filter(p)).collect();
            let batched = batch(&db, &queries);
            assert_eq!(batched.len(), preds.len());
            for (pred, b) in preds.iter().zip(&batched) {
                assert_exact(&db, b, &[*pred], &format!("{scheme:?} [{}, {}]", pred.lb, pred.ub));
            }
        }
    }

    #[test]
    fn batch_point_probes_use_equality_path() {
        let db = hermit_db(TidScheme::Physical, 5_000, 50);
        let preds: Vec<RangePredicate> = [0.0, 50.0, 123.0, 4_950.0, 9_999.0]
            .iter()
            .map(|&v| RangePredicate::point(2, v))
            .collect();
        let queries: Vec<Query> = preds.iter().map(|&p| Query::filter(p)).collect();
        for (pred, b) in preds.iter().zip(batch(&db, &queries)) {
            assert_exact(&db, &b, &[*pred], &format!("point {}", pred.lb));
        }
    }

    #[test]
    fn batch_on_unindexed_column_is_empty() {
        let db = Database::new(schema(), 0, TidScheme::Physical);
        let results = batch(&db, &[Query::new().range(3, 0.0, 10.0)]);
        assert_eq!(results.len(), 1);
        assert!(results[0].rows.is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let db = hermit_db(TidScheme::Physical, 100, 0);
        assert!(batch(&db, &[]).is_empty());
    }

    /// The scratch-reuse contract: the same plans run a second time through
    /// one [`BatchScratch`] neither grow nor replace any of its buffers — after
    /// every plan of the second run each holds what the first run left — on
    /// the Hermit and the baseline routes, ranges and points, under both tid
    /// schemes.
    #[test]
    fn a_second_run_of_the_same_plans_grows_no_scratch_buffer() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 97);
            let plans: Vec<QueryPlan> = [
                RangePredicate::range(2, 500.5, 700.25),
                RangePredicate::point(2, 123.0),
                RangePredicate::range(1, 1_000.0, 1_600.0),
                RangePredicate::point(1, 246.0),
            ]
            .into_iter()
            .map(|pred| db.index_plan(IndexKey::single(pred.column), &Query::filter(pred)).unwrap())
            .collect();
            assert!(matches!(plans[0].access, AccessPath::Hermit { .. }));
            assert!(matches!(plans[2].access, AccessPath::Index { .. }));
            let capacities = |s: &BatchScratch| {
                [
                    s.approx.ranges.capacity(),
                    s.approx.tids.capacity(),
                    s.candidates.capacity(),
                    s.locs.capacity(),
                    s.rows.capacity_bytes(),
                ]
            };
            let mut scratch = BatchScratch::default();
            for plan in &plans {
                assert!(!db.run_plan(plan, None, &mut scratch).rows.is_empty());
            }
            let first = capacities(&scratch);
            assert!(first.iter().all(|&c| c > 0), "{scheme:?}: {first:?}");
            for plan in &plans {
                db.run_plan(plan, None, &mut scratch);
                assert_eq!(capacities(&scratch), first, "{scheme:?}: {:?}", plan.access);
            }
        }
    }

    #[test]
    fn batch_with_extra_conjunct() {
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        // other = 10 * target; constrain other ∈ [1500, 1590] → target ∈ [150, 159].
        let preds =
            [RangePredicate::range(2, 100.0, 199.0), RangePredicate::range(3, 1_500.0, 1_590.0)];
        let b = &batch(&db, &[Query::new().and(preds[0]).and(preds[1])])[0];
        assert_exact(&db, b, &preds, "extra conjunct");
        assert!(b.false_positives >= 90);
    }
}
