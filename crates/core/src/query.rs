//! The unified declarative query surface: [`Query`] values describe *what*
//! to find; [`crate::Database::plan`] decides *how*.
//!
//! A [`Query`] is a conjunction of inclusive [`RangePredicate`]s over any
//! columns, plus an optional projection and row limit — the shape of every
//! lookup in the paper (`SELECT ... WHERE a BETWEEN ? AND ? AND b BETWEEN
//! ? AND ?`). [`crate::Database::execute`] plans it with the cost-based
//! planner ([`crate::plan`]) and runs the chosen access path through the
//! query pipeline ([`crate::batch`]) as a batch of one;
//! [`crate::Database::execute_batch`] runs many through the same pipeline.
//! Both return the same [`crate::QueryResult`] for the same query.
//!
//! # Plan nodes vs the paper's Fig. 3 phases
//!
//! Every plan the planner can emit maps onto the paper's four-phase lookup
//! pipeline (§5.2, Fig. 3); the plan node only changes *which* structures
//! serve phases 1–2:
//!
//! | plan node (EXPLAIN)   | phase 1 (TRS-Tree)      | phase 2 (index probe)       | phase 3 (tid resolve) | phase 4 (validate)     |
//! |-----------------------|-------------------------|-----------------------------|-----------------------|------------------------|
//! | `hermit route`        | translate target→host   | host column's B+-tree       | logical tids only     | driving + residual     |
//! | `index range scan`    | —                       | target column's B+-tree     | logical tids only     | residual only (exact)  |
//! | `composite box scan`  | translate (Hermit only) | composite `(leading, ...)`  | logical tids only     | box + residual         |
//! | `seq scan`            | —                       | —                           | —                     | every conjunct, in-scan|
//!
//! The *driving* conjunct is the one phases 1–2 answer approximately (Hermit)
//! or exactly (baseline); every other conjunct is *residual* and is pushed
//! into phase-4 base-table validation, generalizing the old single `extra`
//! predicate. The `seq scan` node is the fallback that makes queries over
//! unindexed columns return correct rows instead of silently nothing.
//!
//! A projection is emitted during phase 4 as well: the row that passes
//! validation has its selected cells written into the result's
//! [`crate::RowBlock`] under the same page visit (see [`crate::rows`]), on
//! every plan node above. There is no separate materialization pass, and
//! [`crate::Database::fetch_rows`] is no longer on the query path.

use crate::executor::RangePredicate;
use hermit_storage::ColumnId;

/// A declarative conjunctive query: predicates, optional projection,
/// optional limit.
///
/// Built fluently:
///
/// ```
/// use hermit_core::Query;
/// let q = Query::new().range(2, 100.0, 199.0).range(3, 0.0, 10.0).limit(16);
/// assert_eq!(q.conjuncts().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    conjuncts: Vec<RangePredicate>,
    projection: Option<Vec<ColumnId>>,
    limit: Option<usize>,
}

impl Query {
    /// An empty query (matches every row until predicates are added).
    pub fn new() -> Self {
        Query::default()
    }

    /// A query with a single range conjunct — the common case.
    pub fn filter(pred: RangePredicate) -> Self {
        Query { conjuncts: vec![pred], projection: None, limit: None }
    }

    /// Add an inclusive range conjunct `column ∈ [lb, ub]`.
    pub fn range(mut self, column: ColumnId, lb: f64, ub: f64) -> Self {
        self.conjuncts.push(RangePredicate::range(column, lb, ub));
        self
    }

    /// Add a point conjunct `column = v`.
    pub fn point(mut self, column: ColumnId, v: f64) -> Self {
        self.conjuncts.push(RangePredicate::point(column, v));
        self
    }

    /// Add an already-built conjunct.
    pub fn and(mut self, pred: RangePredicate) -> Self {
        self.conjuncts.push(pred);
        self
    }

    /// Project the result to these columns: `execute` writes each
    /// qualifying row's cells, in this order, into
    /// [`crate::QueryResult::projected`] while validating the row. A column
    /// the table does not have reads as NULL.
    pub fn select(mut self, columns: impl IntoIterator<Item = ColumnId>) -> Self {
        self.projection = Some(columns.into_iter().collect());
        self
    }

    /// Return at most `n` rows: the `n` lowest row locations of the
    /// unlimited answer. Every plan emits its rows in ascending location
    /// (heap) order, so which rows survive does not depend on the plan or
    /// the entry point.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// The conjuncts, in insertion order.
    pub fn conjuncts(&self) -> &[RangePredicate] {
        &self.conjuncts
    }

    /// The projection, if one was requested.
    pub fn projection(&self) -> Option<&[ColumnId]> {
        self.projection.as_deref()
    }

    /// The row limit, if one was requested.
    pub fn limit_rows(&self) -> Option<usize> {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let q = Query::new().range(1, 0.0, 5.0).point(2, 7.0).select([0, 2]).limit(3);
        assert_eq!(q.conjuncts().len(), 2);
        assert_eq!(q.conjuncts()[1], RangePredicate::point(2, 7.0));
        assert_eq!(q.projection(), Some(&[0usize, 2][..]));
        assert_eq!(q.limit_rows(), Some(3));
    }

    #[test]
    fn filter_shorthand() {
        let p = RangePredicate::range(4, 1.0, 2.0);
        assert_eq!(Query::filter(p), Query::new().and(p));
    }
}
