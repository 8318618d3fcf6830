//! Batched, page-locality-aware query execution.
//!
//! [`Database::lookup_batch`] runs many range/point predicates through the
//! same four-phase pipeline as [`Database::lookup_range`], but amortizes
//! everything the scalar path pays per query:
//!
//! * **TRS traversal scratch** — the BFS queue and the approximate-result
//!   buffers ([`hermit_trs::LookupScratch`] / [`hermit_trs::TrsLookup`])
//!   are reused across predicates instead of allocated per lookup.
//! * **Candidate buffers** — the tid and row-location vectors grow once and
//!   are recycled for every subsequent predicate.
//! * **Base-table locality** — validation fetches candidates *in page
//!   order* through [`crate::Heap::for_each_row_batch`]: each heap page is pinned
//!   once per query and every candidate on it is validated under that
//!   single buffer-pool access, instead of one pool lock + frame lookup per
//!   value.
//! * **Point probes** — exact-match predicates probe the B+-tree with the
//!   allocation-free [`hermit_btree::BPlusTree::for_each_eq`].
//!
//! With [`BatchOptions::threads`] > 1 the predicates are partitioned across
//! scoped worker threads (`crossbeam::thread::scope`), each with its own
//! scratch, and the per-thread [`QueryResult`] partials are stitched back
//! in input order — results are bit-identical to the sequential path.
//!
//! The scalar path stays as the oracle: `tests/batch_equivalence.rs` proves
//! both paths return identical rows, false-positive and unresolved counts
//! on every substrate and tid scheme.

use crate::database::Database;
use crate::executor::{finish_plan, QueryResult, RangePredicate};
use crate::index::SecondaryIndex;
use crate::plan::{AccessPath, QueryPlan};
use crate::query::Query;
use crate::rows::BlockWriter;
use hermit_storage::{ColumnId, F64Key, RowLoc, Tid, TidScheme};
use hermit_trs::{LookupScratch, TrsLookup};
use hermit_txn::ReadView;
use std::time::Instant;

/// Knobs for a batched lookup.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads validating predicates in parallel. `1` (the default)
    /// runs everything on the calling thread.
    pub threads: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { threads: 1 }
    }
}

impl BatchOptions {
    /// Options with `threads` parallel workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions { threads }
    }
}

/// Reusable per-worker buffers for the batched pipeline. One instance
/// serves any number of sequential [`Database::lookup_batch`] predicates;
/// parallel workers each own one.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// TRS-Tree BFS queue (phase 1).
    trs: LookupScratch,
    /// TRS approximate result: host ranges + outlier tids (phase 1).
    approx: TrsLookup,
    /// Candidate tuple ids (phase 2).
    candidates: Vec<Tid>,
    /// Resolved row locations (phase 3).
    locs: Vec<RowLoc>,
    /// Page-sort permutation for locality-aware validation (phase 4).
    order: Vec<u32>,
    /// Conjuncts re-checked at the base table (phase 4).
    recheck: Vec<RangePredicate>,
}

impl Database {
    /// Execute a batch of range predicates with reused scratch buffers and
    /// page-ordered base-table validation. Returns one [`QueryResult`] per
    /// predicate, in input order, with the same row *set* and
    /// false-positive/unresolved counts as running
    /// [`lookup_range`](Self::lookup_range) on each. Within one result the
    /// order of `rows` is unspecified: the paged substrate emits them in
    /// page order (that is the point), the scalar path in candidate order.
    pub fn lookup_batch(&self, preds: &[RangePredicate]) -> Vec<QueryResult> {
        self.lookup_batch_with(preds, None, &BatchOptions::default())
    }

    /// [`lookup_batch`](Self::lookup_batch) with an optional shared `extra`
    /// conjunct (validated at the base table, as in the Stock workload's
    /// `TIME BETWEEN ? AND ?`) and explicit [`BatchOptions`].
    pub fn lookup_batch_with(
        &self,
        preds: &[RangePredicate],
        extra: Option<RangePredicate>,
        opts: &BatchOptions,
    ) -> Vec<QueryResult> {
        self.run_partitioned(preds, opts, |p, scratch| self.lookup_one(*p, extra, scratch))
    }

    /// Plan every [`Query`] with the cost-based planner and execute the
    /// batch through the vectorized pipeline: per-worker scratch reuse,
    /// page-ordered base-table validation, optional thread partitioning —
    /// the batched counterpart of [`Database::execute`]. Results come back
    /// in input order with the same row *set* and false-positive/unresolved
    /// counts as executing each query's plan on the scalar path. The one
    /// caveat is `limit`: which qualifying rows survive truncation is
    /// path-dependent (the scalar pipeline validates in candidate order,
    /// this one in page order), exactly like an unordered SQL `LIMIT`.
    pub fn execute_batch(&self, queries: &[Query], opts: &BatchOptions) -> Vec<QueryResult> {
        let plans: Vec<QueryPlan> = queries.iter().map(|q| self.plan(q)).collect();
        self.execute_plans(&plans, opts)
    }

    /// Execute pre-built plans through the vectorized pipeline (plan once,
    /// execute many).
    pub fn execute_plans(&self, plans: &[QueryPlan], opts: &BatchOptions) -> Vec<QueryResult> {
        self.run_partitioned(plans, opts, |plan, scratch| self.execute_one_plan(plan, scratch))
    }

    /// Shared batch driver: run `one` over every item with reused
    /// per-worker scratch, partitioning contiguous chunks across scoped
    /// threads when [`BatchOptions::threads`] > 1. Chunk results
    /// concatenate back into input order.
    fn run_partitioned<T: Sync>(
        &self,
        items: &[T],
        opts: &BatchOptions,
        one: impl Fn(&T, &mut BatchScratch) -> QueryResult + Sync,
    ) -> Vec<QueryResult> {
        let threads = opts.threads.clamp(1, items.len().max(1));
        if threads == 1 {
            let mut scratch = BatchScratch::default();
            return items.iter().map(|item| one(item, &mut scratch)).collect();
        }
        let chunk = items.len().div_ceil(threads);
        let one = &one;
        let partials: Vec<Vec<QueryResult>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|chunk_items| {
                    scope.spawn(move |_| {
                        let mut scratch = BatchScratch::default();
                        chunk_items.iter().map(|item| one(item, &mut scratch)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
        })
        .expect("scoped batch execution");
        partials.into_iter().flatten().collect()
    }

    /// One plan through the batched pipeline, reusing `scratch`. Reads take
    /// an auto-commit snapshot view, like [`Database::execute_plan`] — with
    /// no open transactions the view is a lock-free no-op.
    fn execute_one_plan(&self, plan: &QueryPlan, scratch: &mut BatchScratch) -> QueryResult {
        // Shared visibility latch per plan, like `Database::execute_plan`.
        let _vis = self.txns.read_visibility();
        let view = self.txns.read_view(None);
        let mut result = QueryResult::default();
        let projection = plan.projection.as_deref();
        scratch.candidates.clear();
        scratch.recheck.clear();
        scratch.recheck.extend_from_slice(&plan.recheck);
        match &plan.access {
            AccessPath::Hermit { pred, host } => {
                let Some(SecondaryIndex::Hermit { trs, .. }) = self.index(pred.column) else {
                    return result; // index dropped since planning
                };
                if !self.gather_hermit(trs, *host, *pred, scratch, &mut result) {
                    return result;
                }
            }
            AccessPath::Baseline { pred } => {
                let Some(SecondaryIndex::Baseline(tree)) = self.index(pred.column) else {
                    return result;
                };
                self.gather_baseline(&tree.read(), *pred, scratch, &mut result);
            }
            AccessPath::CompositeBaseline { index, leading, value }
            | AccessPath::CompositeHermit { index, leading, value, .. } => {
                if !self.composites().gather_box_candidates(
                    *index,
                    *leading,
                    *value,
                    &mut result.breakdown,
                    &mut scratch.candidates,
                ) {
                    return result;
                }
            }
            AccessPath::SeqScan => {
                // The scan is already sequential in page order; the scalar
                // scan path *is* the batched scan path.
                self.run_scan_into(&scratch.recheck, plan.limit, projection, &view, &mut result);
                return result;
            }
        }
        self.batched_resolve_validate(scratch, projection, &view, &mut result);
        finish_plan(plan, &mut result);
        result
    }

    /// One predicate through the batched pipeline (legacy surface, index
    /// paths only), reusing `scratch`.
    fn lookup_one(
        &self,
        pred: RangePredicate,
        extra: Option<RangePredicate>,
        scratch: &mut BatchScratch,
    ) -> QueryResult {
        let mut result = QueryResult::default();
        scratch.candidates.clear();
        scratch.recheck.clear();
        match self.index(pred.column) {
            Some(SecondaryIndex::Hermit { trs, host }) => {
                scratch.recheck.push(pred);
                scratch.recheck.extend(extra);
                if !self.gather_hermit(trs, *host, pred, scratch, &mut result) {
                    return result;
                }
            }
            Some(SecondaryIndex::Baseline(tree)) => {
                scratch.recheck.extend(extra);
                self.gather_baseline(&tree.read(), pred, scratch, &mut result);
            }
            None => return result,
        }
        self.batched_resolve_validate(scratch, None, &ReadView::unfiltered(), &mut result);
        result
    }

    /// Phases 1–2 of the Hermit route into `scratch.candidates`. Returns
    /// `false` when the host index has dropped out from under the TRS-Tree.
    // hermit-lint: hot-path
    fn gather_hermit(
        &self,
        trs: &hermit_trs::ConcurrentTrsTree,
        host: hermit_storage::ColumnId,
        pred: RangePredicate,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
    ) -> bool {
        // Phase 1: TRS-Tree search into reused buffers (read latch).
        let t0 = Instant::now();
        trs.lookup_into(pred.lb, pred.ub, &mut scratch.trs, &mut scratch.approx);
        result.breakdown.trs_tree += t0.elapsed();

        // Phase 2: host-index probes over the translated ranges, unioned
        // with the outlier tids (which bypass the host index entirely,
        // §4.3).
        let t1 = Instant::now();
        let Some(SecondaryIndex::Baseline(host_tree)) = self.index(host) else {
            return false;
        };
        let host_tree = host_tree.read();
        let candidates = &mut scratch.candidates;
        candidates.extend_from_slice(&scratch.approx.tids);
        let had_outliers = !candidates.is_empty();
        for &(lo, hi) in &scratch.approx.ranges {
            if lo == hi {
                host_tree.for_each_eq(&F64Key(lo), |tid| candidates.push(*tid));
            } else {
                host_tree
                    .for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| candidates.push(*tid));
            }
        }
        drop(host_tree); // release before resolution/validation, like the scalar path
                         // The unioned ranges are disjoint, so duplicates only arise between
                         // outlier tids and range results.
        if had_outliers {
            candidates.sort_unstable();
            candidates.dedup();
        }
        result.breakdown.host_index += t1.elapsed();
        true
    }

    /// Phase 2 of the baseline path into `scratch.candidates`; point
    /// predicates take the allocation-free equality probe.
    // hermit-lint: hot-path
    fn gather_baseline(
        &self,
        tree: &hermit_btree::BPlusTree<F64Key, Tid>,
        pred: RangePredicate,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
    ) {
        let t0 = Instant::now();
        let candidates = &mut scratch.candidates;
        if pred.lb == pred.ub {
            tree.for_each_eq(&F64Key(pred.lb), |tid| candidates.push(*tid));
        } else {
            tree.for_each_in_range(&F64Key(pred.lb), &F64Key(pred.ub), |_, tid| {
                candidates.push(*tid)
            });
        }
        result.breakdown.host_index += t0.elapsed();
    }

    /// Phases 3–4 of the batched pipeline: primary-index resolution into
    /// `scratch.locs`, then page-ordered base-table validation of every
    /// `scratch.recheck` conjunct, writing a matching row's `projection`
    /// cells under the same page visit. Rows invisible to the snapshot
    /// `view` are skipped silently — neither matches nor false positives,
    /// and no cells — same as the scalar snapshot tail.
    // hermit-lint: hot-path
    fn batched_resolve_validate(
        &self,
        scratch: &mut BatchScratch,
        projection: Option<&[ColumnId]>,
        view: &ReadView,
        result: &mut QueryResult,
    ) {
        // Phase 3: primary-index resolution (logical scheme only).
        scratch.locs.clear();
        match self.scheme() {
            TidScheme::Physical => {
                scratch.locs.extend(scratch.candidates.iter().map(|t| t.as_loc()))
            }
            TidScheme::Logical => {
                let t2 = Instant::now();
                let primary = self.primary();
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
        // pinned once; all of its candidates are validated under that one
        // access, with every recheck column read from the same row view.
        let t3 = Instant::now();
        let locs = &scratch.locs;
        let recheck = &scratch.recheck;
        let filtering = view.is_filtering();
        let pk_col = self.pk_col();
        result.rows.reserve(locs.len());
        // Sized for every candidate before the pass: the visitor runs under
        // a pool shard lock. Matches land at consecutive slots, in the page
        // order `rows` gets them in.
        let mut writer =
            projection.map(|cols| BlockWriter::new(cols, self.heap().width(), locs.len()));
        result.unreadable +=
            self.heap().for_each_row_batch(locs, &mut scratch.order, |i, row| match row {
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

    fn sorted_rows(r: &QueryResult) -> Vec<RowLoc> {
        let mut rows = r.rows.clone();
        rows.sort_unstable();
        rows
    }

    fn assert_equivalent(scalar: &QueryResult, batched: &QueryResult, ctx: &str) {
        assert_eq!(sorted_rows(scalar), sorted_rows(batched), "{ctx}: rows");
        assert_eq!(scalar.false_positives, batched.false_positives, "{ctx}: false positives");
        assert_eq!(scalar.unresolved, batched.unresolved, "{ctx}: unresolved");
    }

    #[test]
    fn batch_matches_scalar_on_hermit_ranges() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 97);
            let preds: Vec<RangePredicate> = [(0.0, 50.0), (500.5, 700.25), (9_990.0, 20_000.0)]
                .iter()
                .map(|&(lb, ub)| RangePredicate::range(2, lb, ub))
                .collect();
            let batched = db.lookup_batch(&preds);
            assert_eq!(batched.len(), preds.len());
            for (pred, b) in preds.iter().zip(&batched) {
                let s = db.lookup_range(*pred, None);
                assert_equivalent(&s, b, &format!("{scheme:?} [{}, {}]", pred.lb, pred.ub));
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
        for (pred, b) in preds.iter().zip(db.lookup_batch(&preds)) {
            let s = db.lookup_range(*pred, None);
            assert_equivalent(&s, &b, &format!("point {}", pred.lb));
        }
    }

    #[test]
    fn parallel_batch_preserves_input_order() {
        let db = hermit_db(TidScheme::Logical, 8_000, 0);
        let preds: Vec<RangePredicate> = (0..64)
            .map(|i| RangePredicate::range(2, i as f64 * 100.0, i as f64 * 100.0 + 49.0))
            .collect();
        let sequential = db.lookup_batch(&preds);
        let parallel = db.lookup_batch_with(&preds, None, &BatchOptions::with_threads(4));
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_equivalent(s, p, &format!("pred {i}"));
        }
    }

    #[test]
    fn batch_on_unindexed_column_is_empty() {
        let db = Database::new(schema(), 0, TidScheme::Physical);
        let results = db.lookup_batch(&[RangePredicate::range(3, 0.0, 10.0)]);
        assert_eq!(results.len(), 1);
        assert!(results[0].rows.is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let db = hermit_db(TidScheme::Physical, 100, 0);
        assert!(db.lookup_batch(&[]).is_empty());
        assert!(db.lookup_batch_with(&[], None, &BatchOptions::with_threads(8)).is_empty());
    }

    #[test]
    fn batch_with_extra_conjunct() {
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        // other = 10 * target; constrain other ∈ [1500, 1590] → target ∈ [150, 159].
        let preds = [RangePredicate::range(2, 100.0, 199.0)];
        let extra = Some(RangePredicate::range(3, 1_500.0, 1_590.0));
        let b = &db.lookup_batch_with(&preds, extra, &BatchOptions::default())[0];
        let s = db.lookup_range(preds[0], extra);
        assert_equivalent(&s, b, "extra conjunct");
        assert!(b.false_positives >= 90);
    }
}
