//! Multi-column secondary indexes (§3 of the paper).
//!
//! > "Suppose that two columns A and M on a table are queried together
//! > frequently, so an index on (A, M) is desirable. Hermit can utilize a
//! > host index on (A, N) and the correlation between M and N, to answer
//! > queries on A and M."
//!
//! This module adds that capability: composite B+-tree indexes keyed on a
//! *(leading, value)* column pair, and composite Hermit indexes where the
//! value column routes through a correlated host column that shares the
//! same leading column. A *box* query — a conjunction of a leading-column
//! range and a value-column range — then runs either directly on the
//! composite baseline index or through the TRS-Tree + composite host
//! pipeline.
//!
//! Key layout: lexicographic `(leading, value)` pairs. A box query scans
//! the leading range and filters the second dimension in-index, which is
//! exactly what a conventional RDBMS does with a composite B+-tree when
//! the leading predicate is the more selective one.

use crate::batch::BatchScratch;
use crate::breakdown::LookupBreakdown;
use crate::database::Database;
use crate::executor::{QueryResult, RangePredicate};
use crate::latches::{self, Held};
use hermit_btree::BPlusTree;
use hermit_storage::paged::PagedTable;
use hermit_storage::{ColumnId, F64Key, Tid, TidScheme};
use hermit_trs::{TrsParams, TrsTree};
use std::time::Instant;

/// A composite key: (leading column value, second column value), ordered
/// lexicographically (derived `Ord` on the tuple).
pub type CompositeKey = (F64Key, F64Key);

/// A two-column secondary index.
pub enum CompositeIndex {
    /// Complete composite B+-tree on `(leading, value)`.
    Baseline {
        /// The tree, keyed lexicographically.
        tree: BPlusTree<CompositeKey, Tid>,
        /// Leading column id.
        leading: ColumnId,
        /// Second (value) column id.
        value: ColumnId,
    },
    /// Hermit composite index: a TRS-Tree on `target → host` plus the name
    /// of a composite baseline index on `(leading, host)` that serves the
    /// translated probes.
    Hermit {
        /// Correlation structure from the target column to the host column.
        trs: TrsTree,
        /// Leading column id (shared with the host index).
        leading: ColumnId,
        /// Target (indexed) column id.
        target: ColumnId,
        /// Host column id.
        host: ColumnId,
    },
}

impl CompositeIndex {
    /// Heap bytes held by the index structure.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CompositeIndex::Baseline { tree, .. } => tree.memory_bytes(),
            CompositeIndex::Hermit { trs, .. } => trs.memory_bytes(),
        }
    }

    /// True for the Hermit variant.
    pub fn is_hermit(&self) -> bool {
        matches!(self, CompositeIndex::Hermit { .. })
    }
}

/// Composite-index registry and executor, layered over [`Database`].
///
/// Kept separate from the single-column path so the core executor stays
/// exactly the paper's Fig. 3 pipeline; a composite database wraps the two.
pub struct CompositeIndexes {
    indexes: Vec<CompositeIndex>,
}

impl Default for CompositeIndexes {
    fn default() -> Self {
        Self::new()
    }
}

impl CompositeIndexes {
    /// Empty registry.
    pub fn new() -> Self {
        CompositeIndexes { indexes: Vec::new() }
    }

    /// Number of composite indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True if no composite indexes exist.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Borrow an index by position.
    pub fn get(&self, i: usize) -> Option<&CompositeIndex> {
        self.indexes.get(i)
    }

    /// Mutable access for background maintenance (composite Hermit
    /// reorganization under the registry write latch).
    pub(crate) fn get_mut_for_maintenance(&mut self, i: usize) -> Option<&mut CompositeIndex> {
        self.indexes.get_mut(i)
    }

    /// Registry position of the composite baseline index on
    /// `(leading, host)`, if one exists — the companion a composite Hermit
    /// index routes its translated probes through.
    pub fn companion_baseline(&self, leading: ColumnId, host: ColumnId) -> Option<usize> {
        self.indexes.iter().position(|idx| {
            matches!(
                idx,
                CompositeIndex::Baseline { leading: l, value: v, .. }
                    if *l == leading && *v == host
            )
        })
    }

    /// Build a composite baseline index on `(leading, value)` over the
    /// current contents of `db`. Returns its registry position.
    pub fn create_baseline(
        &mut self,
        db: &Database,
        leading: ColumnId,
        value: ColumnId,
    ) -> hermit_storage::Result<usize> {
        let tree = build_composite_tree(db.heap(), db.scheme(), db.pk_col(), leading, value)?;
        Ok(self.push_baseline(tree, leading, value))
    }

    /// Register a built composite baseline tree; returns its position.
    pub(crate) fn push_baseline(
        &mut self,
        tree: BPlusTree<CompositeKey, Tid>,
        leading: ColumnId,
        value: ColumnId,
    ) -> usize {
        self.indexes.push(CompositeIndex::Baseline { tree, leading, value });
        self.indexes.len() - 1
    }

    /// Register a built composite Hermit index; returns its position.
    pub(crate) fn push_hermit(
        &mut self,
        trs: TrsTree,
        leading: ColumnId,
        target: ColumnId,
        host: ColumnId,
    ) -> usize {
        self.indexes.push(CompositeIndex::Hermit { trs, leading, target, host });
        self.indexes.len() - 1
    }

    /// Build a composite Hermit index on `(leading, target)` routed through
    /// the host column: requires that a composite baseline on
    /// `(leading, host)` already exists in this registry (the paper's
    /// precondition, composite form). Returns its registry position.
    pub fn create_hermit(
        &mut self,
        db: &Database,
        leading: ColumnId,
        target: ColumnId,
        host: ColumnId,
        params: TrsParams,
    ) -> hermit_storage::Result<usize> {
        assert!(
            self.companion_baseline(leading, host).is_some(),
            "a composite baseline index on (leading={leading}, host={host}) must exist first"
        );
        let trs = build_composite_trs(db.heap(), db.scheme(), db.pk_col(), target, host, params)?;
        Ok(self.push_hermit(trs, leading, target, host))
    }

    /// Maintain all composite indexes for a newly-inserted row.
    pub fn insert_row(&mut self, db: &Database, row: &[hermit_storage::Value], tid: Tid) {
        let _ = db;
        self.maintain_insert(row, tid);
    }

    /// Maintain all composite indexes for a newly-inserted row (the
    /// database-agnostic core of [`insert_row`](Self::insert_row); called
    /// by [`Database::insert_timed`] for the registry the database owns).
    pub fn maintain_insert(&mut self, row: &[hermit_storage::Value], tid: Tid) {
        for index in &mut self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.insert((F64Key(l), F64Key(v)), tid);
                    }
                }
                CompositeIndex::Hermit { trs, target, host, .. } => {
                    if let (Some(m), Some(n)) = (row[*target].as_f64(), row[*host].as_f64()) {
                        trs.insert(m, n, tid);
                    }
                }
            }
        }
    }

    /// Maintain all composite indexes for a row being deleted: exact key
    /// removal on baselines, TRS-Tree tombstoning on Hermit indexes (the
    /// same contract as the single-column indexes in
    /// [`Database::delete_by_pk`]).
    pub fn maintain_delete(&mut self, row: &[hermit_storage::Value], tid: Tid) {
        for index in &mut self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.remove(&(F64Key(l), F64Key(v)), &tid);
                    }
                }
                CompositeIndex::Hermit { trs, target, .. } => {
                    if let Some(m) = row[*target].as_f64() {
                        trs.delete(m, tid);
                    }
                }
            }
        }
    }

    /// Phases 1–2 of a box query against the index at `idx`: gather
    /// candidate tids into `candidates`, recording per-phase time in
    /// `breakdown`. Baseline indexes box-scan directly; Hermit indexes
    /// translate the value predicate through the TRS-Tree and box-scan the
    /// companion `(leading, host)` baseline with each translated range.
    ///
    /// Returns `false` when `idx` does not exist or a Hermit index's
    /// companion baseline is missing — the caller treats that as an empty
    /// candidate set. This is the composite route's one candidate phase:
    /// planned box queries and [`lookup_box`](Self::lookup_box) both
    /// gather through it.
    pub(crate) fn gather_box_candidates(
        &self,
        idx: usize,
        leading_pred: RangePredicate,
        value_pred: RangePredicate,
        breakdown: &mut LookupBreakdown,
        candidates: &mut Vec<Tid>,
    ) -> bool {
        let Some(index) = self.indexes.get(idx) else { return false };
        match index {
            CompositeIndex::Baseline { tree, .. } => {
                let t0 = Instant::now();
                scan_box(tree, &leading_pred, &value_pred, |tid| candidates.push(tid));
                breakdown.host_index += t0.elapsed();
            }
            CompositeIndex::Hermit { trs, leading, host, .. } => {
                // Phase 1: TRS-Tree translation of the value predicate.
                let t0 = Instant::now();
                let approx = trs.lookup(value_pred.lb, value_pred.ub);
                breakdown.trs_tree += t0.elapsed();

                // Phase 2: box probes on the (leading, host) baseline.
                let t1 = Instant::now();
                let Some(companion) = self.companion_baseline(*leading, *host) else {
                    return false;
                };
                let Some(CompositeIndex::Baseline { tree, .. }) = self.indexes.get(companion)
                else {
                    return false;
                };
                candidates.extend_from_slice(&approx.tids);
                let had_outliers = !candidates.is_empty();
                for (lo, hi) in &approx.ranges {
                    let host_pred = RangePredicate { column: *host, lb: *lo, ub: *hi };
                    scan_box(tree, &leading_pred, &host_pred, |tid| candidates.push(tid));
                }
                if had_outliers {
                    candidates.sort_unstable();
                    candidates.dedup();
                }
                breakdown.host_index += t1.elapsed();
            }
        }
        true
    }

    /// Execute a box query — `leading ∈ [l.lb, l.ub] AND value ∈ [v.lb,
    /// v.ub]` — against the composite index at `idx`, over `db`'s heap.
    ///
    /// The baseline path answers from the composite tree directly; the
    /// Hermit path translates the value predicate through the TRS-Tree,
    /// probes the companion `(leading, host)` baseline with the box, and
    /// re-checks both conjuncts at the base table. Either way the
    /// candidates go through the executor's one validation tail, reading as
    /// an auto-commit reader of `db`. An entry point: the caller holds no
    /// latch of `db`'s.
    pub fn lookup_box(
        &self,
        db: &Database,
        idx: usize,
        leading_pred: RangePredicate,
        value_pred: RangePredicate,
    ) -> QueryResult {
        let mut result = QueryResult::default();
        let mut scratch = BatchScratch::default();
        if !self.gather_box_candidates(
            idx,
            leading_pred,
            value_pred,
            &mut result.breakdown,
            &mut scratch.candidates,
        ) {
            return result;
        }
        // The same recheck rule as the planner's composite paths: a box
        // scan is exact, a translated one is not.
        let both = [leading_pred, value_pred];
        let recheck: &[RangePredicate] =
            if self.indexes.get(idx).is_some_and(CompositeIndex::is_hermit) { &both } else { &[] };
        let mut root = Held::unlocked();
        let mut vis = latches::read_visibility(&db.txns, &mut root);
        let view = db.txns.read_view(None);
        db.batched_resolve_validate(&mut scratch, recheck, None, &view, &mut result, vis.held());
        result
    }

    /// Total heap bytes across all composite indexes.
    pub fn memory_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.memory_bytes()).sum()
    }
}

/// Scan the composite tree over the leading range, filtering the second
/// dimension, yielding tids.
fn scan_box(
    tree: &BPlusTree<CompositeKey, Tid>,
    leading: &RangePredicate,
    value: &RangePredicate,
    mut f: impl FnMut(Tid),
) {
    let lo = (F64Key(leading.lb), F64Key(f64::NEG_INFINITY));
    let hi = (F64Key(leading.ub), F64Key(f64::INFINITY));
    tree.for_each_in_range(&lo, &hi, |key, tid| {
        if key.1 .0 >= value.lb && key.1 .0 <= value.ub {
            f(*tid);
        }
    });
}

/// Bulk-load a composite `(leading, value)` B+-tree from a heap. Shared by
/// the standalone registry's [`CompositeIndexes::create_baseline`] and the
/// database-owned [`Database::create_composite_baseline`].
pub(crate) fn build_composite_tree(
    heap: &PagedTable,
    scheme: TidScheme,
    pk_col: ColumnId,
    leading: ColumnId,
    value: ColumnId,
) -> hermit_storage::Result<BPlusTree<CompositeKey, Tid>> {
    let mut entries: Vec<(CompositeKey, Tid)> = Vec::with_capacity(heap.len());
    for_each_heap_pair(heap, scheme, pk_col, leading, value, |lead, val, tid| {
        entries.push(((F64Key(lead), F64Key(val)), tid));
    })?;
    entries.sort_by_key(|e| e.0);
    Ok(BPlusTree::bulk_load(entries))
}

/// Build the TRS-Tree of a composite Hermit index over `target → host`
/// pairs (the leading column plays no role in the correlation itself).
/// Shared by [`CompositeIndexes::create_hermit`] and
/// [`Database::create_composite_hermit`].
pub(crate) fn build_composite_trs(
    heap: &PagedTable,
    scheme: TidScheme,
    pk_col: ColumnId,
    target: ColumnId,
    host: ColumnId,
    params: TrsParams,
) -> hermit_storage::Result<TrsTree> {
    let mut pairs: Vec<(f64, f64, Tid)> = Vec::with_capacity(heap.len());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for_each_heap_pair(heap, scheme, pk_col, target, host, |t, h, tid| {
        lo = lo.min(t);
        hi = hi.max(t);
        pairs.push((t, h, tid));
    })?;
    if pairs.is_empty() {
        lo = 0.0;
        hi = 0.0;
    }
    Ok(TrsTree::build(params, (lo, hi), pairs))
}

/// Visit `(a, b, tid)` for every live row, skipping NULLs — one pass over
/// the heap. Split out at heap level so [`Database`]-owned composite
/// creation can run while the database is mutably borrowed.
pub(crate) fn for_each_heap_pair(
    heap: &PagedTable,
    scheme: TidScheme,
    pk_col: ColumnId,
    a: ColumnId,
    b: ColumnId,
    mut f: impl FnMut(f64, f64, Tid),
) -> hermit_storage::Result<()> {
    let schema = heap.schema();
    schema.column(a)?;
    schema.column(b)?;
    heap.for_each_live_row(|loc, row| {
        if let (Some(x), Some(y)) = (row.f64(a), row.f64(b)) {
            let tid = match scheme {
                TidScheme::Physical => Tid::from_loc(loc),
                TidScheme::Logical => Tid::from_pk(row.value(pk_col).as_i64().unwrap_or(0)),
            };
            f(x, y, tid);
        }
        true
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::{ColumnDef, Schema, Value};

    /// Stock-like table: time (pk), dj (host), sp (target, ≈ dj/8).
    fn stock_db(scheme: TidScheme, n: usize) -> Database {
        let schema = Schema::new(vec![
            ColumnDef::int("time"),
            ColumnDef::float("dj"),
            ColumnDef::float("sp"),
        ]);
        let db = Database::new(schema, 0, scheme);
        for t in 0..n {
            // Slow upward drift with deterministic wiggle.
            let dj = 3_000.0 + t as f64 * 0.5 + ((t % 97) as f64 - 48.0);
            let sp = dj / 8.0 + ((t % 13) as f64 - 6.0) * 0.05;
            db.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp)]).unwrap();
        }
        db
    }

    fn ground_truth(db: &Database, tl: f64, tu: f64, sl: f64, su: f64) -> usize {
        let mut n = 0;
        db.heap()
            .for_each_live_row(|_, row| {
                let inside = |cid, lb, ub| row.f64(cid).is_some_and(|v| v >= lb && v <= ub);
                n += usize::from(inside(0, tl, tu) && inside(2, sl, su));
                true
            })
            .unwrap();
        n
    }

    #[test]
    fn composite_baseline_box_query_exact() {
        let db = stock_db(TidScheme::Physical, 20_000);
        let mut comp = CompositeIndexes::new();
        let idx = comp.create_baseline(&db, 0, 2).unwrap();
        let r = comp.lookup_box(
            &db,
            idx,
            RangePredicate::range(0, 5_000.0, 10_000.0),
            RangePredicate::range(2, 700.0, 800.0),
        );
        assert_eq!(r.rows.len(), ground_truth(&db, 5_000.0, 10_000.0, 700.0, 800.0));
        assert!(r.rows.len() > 100, "box should be non-trivial: {}", r.rows.len());
    }

    #[test]
    fn composite_hermit_matches_composite_baseline() {
        for scheme in [TidScheme::Physical, TidScheme::Logical] {
            let db = stock_db(scheme, 20_000);
            let mut comp = CompositeIndexes::new();
            // Host: (time, dj). Direct: (time, sp). Hermit: sp → dj via host.
            comp.create_baseline(&db, 0, 1).unwrap();
            let direct = comp.create_baseline(&db, 0, 2).unwrap();
            let hermit = comp.create_hermit(&db, 0, 2, 1, TrsParams::default()).unwrap();

            for (tl, tu, sl, su) in [
                (1_000.0, 4_000.0, 500.0, 600.0),
                (0.0, 20_000.0, 800.0, 820.0),
                (15_000.0, 16_000.0, 0.0, 10_000.0),
                (7.0, 7.0, 0.0, 10_000.0),
            ] {
                let a = comp.lookup_box(
                    &db,
                    direct,
                    RangePredicate::range(0, tl, tu),
                    RangePredicate::range(2, sl, su),
                );
                let b = comp.lookup_box(
                    &db,
                    hermit,
                    RangePredicate::range(0, tl, tu),
                    RangePredicate::range(2, sl, su),
                );
                let mut ra = a.rows.clone();
                let mut rb = b.rows.clone();
                ra.sort();
                rb.sort();
                assert_eq!(ra, rb, "{scheme:?} box ([{tl},{tu}] × [{sl},{su}])");
            }
        }
    }

    #[test]
    fn composite_hermit_is_succinct() {
        let db = stock_db(TidScheme::Physical, 20_000);
        let mut comp = CompositeIndexes::new();
        comp.create_baseline(&db, 0, 1).unwrap();
        let direct = comp.create_baseline(&db, 0, 2).unwrap();
        let hermit = comp.create_hermit(&db, 0, 2, 1, TrsParams::default()).unwrap();
        let direct_bytes = comp.get(direct).unwrap().memory_bytes();
        let hermit_bytes = comp.get(hermit).unwrap().memory_bytes();
        assert!(
            hermit_bytes * 5 < direct_bytes,
            "composite TRS-Tree ({hermit_bytes}) must be ≪ composite B+-tree ({direct_bytes})"
        );
    }

    #[test]
    fn composite_insert_maintenance() {
        let db = stock_db(TidScheme::Physical, 5_000);
        let mut comp = CompositeIndexes::new();
        comp.create_baseline(&db, 0, 1).unwrap();
        let hermit = comp.create_hermit(&db, 0, 2, 1, TrsParams::default()).unwrap();
        // Insert a fresh row with an off-model sp (outlier).
        let row = vec![Value::Int(5_000), Value::Float(6_000.0), Value::Float(123_456.0)];
        let tid = db.insert(&row).unwrap();
        comp.insert_row(&db, &row, tid);
        let r = comp.lookup_box(
            &db,
            hermit,
            RangePredicate::range(0, 4_999.0, 5_001.0),
            RangePredicate::range(2, 123_000.0, 124_000.0),
        );
        assert_eq!(r.rows.len(), 1, "outlier insert must be reachable through the box path");
    }

    #[test]
    fn hermit_requires_matching_host() {
        let db = stock_db(TidScheme::Physical, 100);
        let mut comp = CompositeIndexes::new();
        // No composite baseline on (0, 1) yet → must panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comp.create_hermit(&db, 0, 2, 1, TrsParams::default()).unwrap();
        }));
        assert!(result.is_err());
    }
}
