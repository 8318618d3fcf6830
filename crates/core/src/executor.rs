//! Query execution entry points: the Hermit lookup and the baseline lookup
//! of §5.2 / Fig. 3, with per-phase timing.
//!
//! **Hermit route** (target column carries a TRS-Tree):
//!
//! 1. *TRS-Tree lookup* — translate the target predicate into host-column
//!    ranges plus outlier tids.
//! 2. *Host-index lookup* — probe the host column's baseline B+-tree with
//!    each range; union with the outlier tids.
//! 3. *Primary-index lookup* (logical pointers only) — resolve candidate
//!    tids to row locations.
//! 4. *Base-table validation* — fetch each candidate and re-check the
//!    original predicate, discarding false positives.
//!
//! **Baseline route** (target column carries a complete B+-tree): secondary
//! index → (primary index) → base table; the results are exact, but the
//! paper's harness still fetches the tuples, because that is what a real
//! query does and it is where the time goes at high selectivity.
//!
//! Every entry point — [`Database::execute`], [`Database::execute_plan`],
//! [`Database::execute_for_txn`], [`Database::lookup_range`] and
//! [`Database::execute_batch`] — runs the one pipeline of [`crate::batch`].
//!
//! **Projection is emitted during validation.** The tuple phase 4 fetches
//! to re-check the predicate *is* the answer, so a plan that carries a
//! projection has each matching row's cells written into a
//! [`RowBlock`] inside the validation visitor, from the same copy of the
//! row the predicate was checked on: one page visit per candidate page, and
//! no row can change between being validated and being returned. [`Database::fetch_rows`] is not on
//! the query path; it serves callers that hold only row locations.

use crate::batch::BatchScratch;
use crate::breakdown::LookupBreakdown;
use crate::database::Database;
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::rows::{BlockWriter, RowBlock};
use hermit_storage::paged::BatchBuffers;
use hermit_storage::{ColumnId, RowLoc, Value};
use hermit_txn::ReadView;
use std::time::Instant;

/// An inclusive range predicate on one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangePredicate {
    /// Column the predicate applies to.
    pub column: ColumnId,
    /// Lower bound (inclusive).
    pub lb: f64,
    /// Upper bound (inclusive).
    pub ub: f64,
}

impl RangePredicate {
    /// Range predicate.
    pub fn range(column: ColumnId, lb: f64, ub: f64) -> Self {
        RangePredicate { column, lb, ub }
    }

    /// Point predicate (`lb == ub`).
    pub fn point(column: ColumnId, v: f64) -> Self {
        RangePredicate { column, lb: v, ub: v }
    }

    /// Check the predicate against a fetched value.
    #[inline]
    pub fn matches(&self, v: Option<f64>) -> bool {
        v.is_some_and(|x| x >= self.lb && x <= self.ub)
    }
}

/// Result of a range/point lookup.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Row locations of qualifying tuples, in ascending order.
    pub rows: Vec<RowLoc>,
    /// Candidates fetched that failed validation (Hermit's approximation
    /// cost; always 0 for the baseline and the seq scan). Feeds Fig. 17.
    pub false_positives: usize,
    /// Candidates whose tid did not resolve (deleted tuples etc.).
    pub unresolved: usize,
    /// Heap pages that could not be read while validating (an I/O error,
    /// not a deleted row — their candidates are in none of the other
    /// counts). Non-zero means `rows` and `projected` may be missing
    /// matches: the result is an error to report, not an answer.
    pub unreadable: usize,
    /// Per-phase wall-clock time.
    pub breakdown: LookupBreakdown,
    /// Materialized projection, aligned with `rows` — present only when the
    /// executed [`Query`] carried a `select`. Written during validation,
    /// under the same page visit that matched the row.
    pub projected: Option<RowBlock>,
}

impl QueryResult {
    /// False-positive ratio among fetched candidates.
    pub fn false_positive_ratio(&self) -> f64 {
        let fetched = self.rows.len() + self.false_positives;
        if fetched == 0 {
            0.0
        } else {
            self.false_positives as f64 / fetched as f64
        }
    }
}

impl Database {
    /// Plan and execute a [`Query`].
    ///
    /// The planner picks the driving access path (Hermit route, baseline
    /// B+-tree, composite box, or seq scan); every other conjunct is
    /// validated at the base table. Unlike
    /// [`lookup_range`](Self::lookup_range), a query over an unindexed
    /// column returns its rows via the scan plan instead of nothing.
    pub fn execute(&self, query: &Query) -> QueryResult {
        let plan = self.plan(query);
        self.execute_plan(&plan)
    }

    /// Execute an already-built [`QueryPlan`] (plan once with
    /// [`plan`](Self::plan), execute many times) as a batch of one.
    ///
    /// Reads are snapshot-filtered as an auto-commit reader: another
    /// transaction's uncommitted inserts are invisible and its pending
    /// deletes still visible (see [`crate::txn`]). With no open
    /// transactions the view is a lock-free no-op.
    /// [`execute_plan_for_txn`](Self::execute_plan_for_txn) reads *as* a
    /// transaction instead.
    pub fn execute_plan(&self, plan: &QueryPlan) -> QueryResult {
        self.run_plan(plan, None, &mut BatchScratch::default())
    }

    /// Materialize the rows at `locs` — the columns in `cols`, or every
    /// column when `None` — visiting the heap grouped by page
    /// ([`hermit_storage::paged::PagedTable::for_each_row_batch`]): one page
    /// visit per distinct page instead of one lock + lookup + fetch per row.
    /// The output is aligned with `locs`; `None` marks a row that no longer
    /// exists (deleted since the caller validated it). The second value is the
    /// number of pages that could not be read — when non-zero some `None`s
    /// are I/O errors rather than deletions, and the caller must report an
    /// error instead of the rows.
    ///
    /// For callers that hold only row locations (a test oracle, a bench
    /// probe). A query's own rows come out of validation itself
    /// ([`QueryResult::projected`]), never through here.
    pub fn fetch_rows(
        &self,
        locs: &[RowLoc],
        cols: Option<&[ColumnId]>,
    ) -> (Vec<Option<Vec<Value>>>, usize) {
        let width = self.heap().schema().width();
        let mut fetched = vec![None; locs.len()];
        let mut buffers = BatchBuffers::default();
        let unreadable = self.heap().for_each_row_batch(locs, &mut buffers, |i, row| {
            fetched[i] = row.map(|row| match cols {
                Some(cols) => cols.iter().map(|&c| row.value(c)).collect(),
                None => (0..width).map(|c| row.value(c)).collect(),
            });
        });
        (fetched, unreadable)
    }

    /// Execute a range lookup through `pred`'s own index — the Hermit route
    /// or the baseline B+-tree, whichever the column carries — as an
    /// auto-commit reader, like [`execute_plan`](Self::execute_plan).
    ///
    /// The *forced-index* entry the paper's figures need (they compare
    /// Hermit with a complete B+-tree; the planner would send a wide range
    /// to a seq scan). A column without a routable index returns an empty
    /// result. `extra` is a second conjunct validated at the base table
    /// (the Stock workload's `TIME BETWEEN ? AND ?`).
    pub fn lookup_range(&self, pred: RangePredicate, extra: Option<RangePredicate>) -> QueryResult {
        self.index_plan(pred, extra)
            .map_or_else(QueryResult::default, |plan| self.execute_plan(&plan))
    }

    /// The scan fallback: stream every live heap row, validating all
    /// conjuncts in-scan and writing a matching row's `projection` cells
    /// under the same page visit. Exact (no false positives, nothing
    /// unresolved), and the only path that honors `limit` by stopping
    /// early. Rows the snapshot `view` cannot see are skipped before
    /// predicate evaluation and do not count toward the limit.
    pub(crate) fn run_scan_into(
        &self,
        checks: &[RangePredicate],
        limit: Option<usize>,
        projection: Option<&[ColumnId]>,
        view: &ReadView,
        result: &mut QueryResult,
    ) {
        let t = Instant::now();
        let limit = limit.unwrap_or(usize::MAX);
        let filtering = view.is_filtering();
        let pk_col = self.pk_col();
        // No more rows than the limit or the table; a row inserted while
        // the scan runs is the one case that grows the block.
        let mut writer = projection.map(|cols| {
            BlockWriter::new(cols, self.heap().schema().width(), limit.min(self.heap().len()))
        });
        let rows = &mut result.rows;
        if limit > 0 {
            let scanned = self.heap().for_each_live_row(|loc, row| {
                if filtering && row.value(pk_col).as_i64().is_some_and(|pk| !view.visible_pk(pk)) {
                    return true; // invisible to this snapshot; keep scanning
                }
                if checks.iter().all(|p| p.matches(row.f64(p.column))) {
                    if let Some(writer) = &mut writer {
                        writer.emit(rows.len(), &row);
                    }
                    rows.push(loc);
                }
                rows.len() < limit
            });
            // The scan stops at the first page it cannot read.
            result.unreadable += usize::from(scanned.is_err());
        }
        result.projected = writer.map(|w| w.finish(result.rows.len()));
        result.breakdown.base_table += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::{ColumnDef, Schema, TidScheme, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
            ColumnDef::float("other"),
        ])
    }

    /// Database with target = i, host = 2i (+ noise rows), both index kinds
    /// available on demand.
    fn populated(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let db = Database::new(schema(), 0, scheme);
        for i in 0..n {
            let m = i as f64;
            let host = if noise_every > 0 && i % noise_every == 0 {
                -5.0e6 // wild outlier host value
            } else {
                2.0 * m
            };
            db.insert(&[
                Value::Int(i as i64),
                Value::Float(host),
                Value::Float(m),
                Value::Float(m * 10.0),
            ])
            .unwrap();
        }
        db
    }

    fn hermit_db(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let mut db = populated(scheme, n, noise_every);
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        db
    }

    fn baseline_db(scheme: TidScheme, n: usize) -> Database {
        let mut db = populated(scheme, n, 0);
        db.create_baseline_index(2, false).unwrap();
        db
    }

    fn row_targets(db: &Database, result: &QueryResult) -> Vec<f64> {
        let mut v: Vec<f64> =
            result.rows.iter().map(|&loc| db.heap().value_f64(loc, 2).unwrap().unwrap()).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn hermit_range_lookup_exact_results() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 0);
            let result = db.lookup_range(RangePredicate::range(2, 100.0, 199.0), None);
            let targets = row_targets(&db, &result);
            assert_eq!(targets.len(), 100, "{scheme:?}");
            assert_eq!(targets[0], 100.0);
            assert_eq!(targets[99], 199.0);
        }
    }

    #[test]
    fn baseline_range_lookup_exact_results() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = baseline_db(scheme, 10_000);
            let result = db.lookup_range(RangePredicate::range(2, 100.0, 199.0), None);
            assert_eq!(result.rows.len(), 100, "{scheme:?}");
            assert_eq!(result.false_positives, 0);
        }
    }

    #[test]
    fn hermit_and_baseline_agree() {
        let hermit = hermit_db(TidScheme::Physical, 20_000, 97);
        let baseline = {
            let mut db = populated(TidScheme::Physical, 20_000, 97);
            db.create_baseline_index(2, false).unwrap();
            db
        };
        for (lb, ub) in [(0.0, 50.0), (500.5, 700.25), (19_990.0, 30_000.0), (7.0, 7.0)] {
            let h = hermit.lookup_range(RangePredicate::range(2, lb, ub), None);
            let b = baseline.lookup_range(RangePredicate::range(2, lb, ub), None);
            assert_eq!(
                row_targets(&hermit, &h),
                row_targets(&baseline, &b),
                "mismatch on [{lb}, {ub}]"
            );
        }
    }

    #[test]
    fn point_lookup_with_outlier_rows() {
        // Rows where i % 50 == 0 have wild host values; the TRS-Tree must
        // find them via its outlier buffers.
        let db = hermit_db(TidScheme::Physical, 10_000, 50);
        for probe in [0.0, 50.0, 4_950.0] {
            let r = db.lookup_range(RangePredicate::point(2, probe), None);
            assert_eq!(r.rows.len(), 1, "outlier row at target={probe} must be found");
        }
        // Normal rows still work.
        let r = db.lookup_range(RangePredicate::point(2, 123.0), None);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn false_positives_counted_and_validated_away() {
        // Inflate error_bound so the host ranges are wide → false positives
        // get fetched but filtered.
        let mut db = populated(TidScheme::Physical, 10_000, 0);
        db.set_trs_params(hermit_trs::TrsParams::with_error_bound(5_000.0));
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        let r = db.lookup_range(RangePredicate::range(2, 1_000.0, 1_009.0), None);
        assert_eq!(row_targets(&db, &r), (1_000..=1_009).map(|i| i as f64).collect::<Vec<_>>());
        assert!(
            r.false_positives > 0,
            "huge error_bound must produce false positives to validate away"
        );
        assert!(r.false_positive_ratio() > 0.0 && r.false_positive_ratio() < 1.0);
    }

    #[test]
    fn extra_predicate_validated_at_base_table() {
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        // other = 10 * target; constrain other ∈ [1500, 1590] → target ∈ [150, 159].
        let r = db.lookup_range(
            RangePredicate::range(2, 100.0, 199.0),
            Some(RangePredicate::range(3, 1_500.0, 1_590.0)),
        );
        let targets = row_targets(&db, &r);
        assert_eq!(targets, (150..=159).map(|i| i as f64).collect::<Vec<_>>());
        assert!(r.false_positives >= 90, "rows failing the extra conjunct count as FPs");
    }

    #[test]
    fn logical_scheme_records_primary_time() {
        let db = hermit_db(TidScheme::Logical, 10_000, 0);
        let r = db.lookup_range(RangePredicate::range(2, 0.0, 999.0), None);
        assert_eq!(r.rows.len(), 1_000);
        assert!(r.breakdown.primary_index.as_nanos() > 0, "logical scheme must pay the hop");
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        let r = db.lookup_range(RangePredicate::range(2, 0.0, 999.0), None);
        assert_eq!(r.breakdown.primary_index.as_nanos(), 0, "physical scheme skips the hop");
    }

    #[test]
    fn deleted_rows_do_not_resurface() {
        let db = hermit_db(TidScheme::Logical, 1_000, 0);
        db.delete_by_pk(500).unwrap();
        let r = db.lookup_range(RangePredicate::range(2, 499.0, 501.0), None);
        let targets = row_targets(&db, &r);
        assert_eq!(targets, vec![499.0, 501.0]);
    }

    #[test]
    fn unindexed_column_returns_empty() {
        let db = populated(TidScheme::Physical, 100, 0);
        let r = db.lookup_range(RangePredicate::range(2, 0.0, 10.0), None);
        assert!(r.rows.is_empty());
    }

    #[test]
    fn empty_predicate_range() {
        let db = hermit_db(TidScheme::Physical, 1_000, 0);
        let r = db.lookup_range(RangePredicate::range(2, 900.0, 100.0), None);
        assert!(r.rows.is_empty(), "inverted range matches nothing");
        let r = db.lookup_range(RangePredicate::range(2, 5_000.0, 6_000.0), None);
        assert!(r.rows.is_empty(), "out-of-domain range matches nothing");
    }
}
