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
//! Composite indexes are ordinary indexes of the [`crate::Database`]: it
//! creates them (`create_composite_baseline` / `create_composite_hermit`),
//! maintains them on insert and delete, plans box queries onto them, and
//! its maintenance worker reorganizes their TRS-Trees through the same
//! Appendix-B protocol as single-column ones.
//!
//! Key layout: lexicographic `(leading, value)` pairs. A box query scans
//! the leading range and filters the second dimension in-index, which is
//! exactly what a conventional RDBMS does with a composite B+-tree when
//! the leading predicate is the more selective one.

use crate::breakdown::LookupBreakdown;
use crate::executor::RangePredicate;
use crate::latches::{Held, Index, LatchedRwLock, Visibility};
use hermit_btree::BPlusTree;
use hermit_storage::{ColumnId, F64Key, Tid, Value};
use hermit_trs::ConcurrentTrsTree;
use std::time::Instant;

/// A composite key: (leading column value, second column value), ordered
/// lexicographically (derived `Ord` on the tuple).
pub type CompositeKey = (F64Key, F64Key);

/// A two-column secondary index. Each carries its own latch, as a
/// single-column [`crate::SecondaryIndex`] does.
pub enum CompositeIndex {
    /// Complete composite B+-tree on `(leading, value)`.
    Baseline {
        /// The tree, keyed lexicographically, behind its per-index latch.
        tree: LatchedRwLock<Index, BPlusTree<CompositeKey, Tid>>,
        /// Leading column id.
        leading: ColumnId,
        /// Second (value) column id.
        value: ColumnId,
    },
    /// Hermit composite index: a TRS-Tree on `target → host`, routed
    /// through the composite baseline index on `(leading, host)` that
    /// serves the translated probes.
    Hermit {
        /// Correlation structure from the target column to the host column,
        /// with its Appendix-B latch and side buffer.
        trs: ConcurrentTrsTree,
        /// Leading column id (shared with the host index).
        leading: ColumnId,
        /// Target (indexed) column id.
        target: ColumnId,
        /// Host column id.
        host: ColumnId,
    },
}

impl CompositeIndex {
    /// Heap bytes held by the index structure (takes the read latch).
    pub fn memory_bytes(&self) -> usize {
        match self {
            CompositeIndex::Baseline { tree, .. } => {
                tree.read_at(&mut Held::unlocked()).memory_bytes()
            }
            CompositeIndex::Hermit { trs, .. } => trs.memory_bytes(),
        }
    }

    /// True for the Hermit variant.
    pub fn is_hermit(&self) -> bool {
        matches!(self, CompositeIndex::Hermit { .. })
    }
}

/// The composite indexes of a [`crate::Database`], by registry position.
/// Like the database's single-column map, the registry itself changes only
/// under `&mut Database` (DDL); each index latches itself, so DML and
/// queries share the registry latch-free.
#[derive(Default)]
pub struct CompositeIndexes {
    indexes: Vec<CompositeIndex>,
}

impl CompositeIndexes {
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

    /// The composite indexes in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &CompositeIndex> {
        self.indexes.iter()
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

    /// Register a built index; returns its position.
    pub(crate) fn push(&mut self, index: CompositeIndex) -> usize {
        self.indexes.push(index);
        self.indexes.len() - 1
    }

    /// Maintain every composite index for a newly inserted row, latching
    /// one tree at a time.
    pub(crate) fn maintain_insert(&self, row: &[Value], tid: Tid, held: &mut Held<Visibility>) {
        for index in &self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.write_at(held).insert((F64Key(l), F64Key(v)), tid);
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

    /// Maintain every composite index for a deleted row: exact key removal
    /// on baselines, TRS-Tree tombstoning on Hermit indexes (the same
    /// contract as the single-column indexes in
    /// [`crate::Database::delete_by_pk`]).
    pub(crate) fn maintain_delete(&self, row: &[Value], tid: Tid, held: &mut Held<Visibility>) {
        for index in &self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.write_at(held).remove(&(F64Key(l), F64Key(v)), &tid);
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
    /// planned box queries and [`crate::Database::lookup_box`] both gather
    /// through it.
    pub(crate) fn gather_box_candidates(
        &self,
        idx: usize,
        leading_pred: RangePredicate,
        value_pred: RangePredicate,
        breakdown: &mut LookupBreakdown,
        candidates: &mut Vec<Tid>,
        held: &mut Held<Visibility>,
    ) -> bool {
        let Some(index) = self.indexes.get(idx) else { return false };
        match index {
            CompositeIndex::Baseline { tree, .. } => {
                let t0 = Instant::now();
                let tree = tree.read_at(held);
                scan_box(&tree, &leading_pred, &value_pred, |tid| candidates.push(tid));
                breakdown.host_index += t0.elapsed();
            }
            CompositeIndex::Hermit { trs, leading, host, .. } => {
                // Phase 1: TRS-Tree translation of the value predicate.
                let t0 = Instant::now();
                let approx = trs.lookup(value_pred.lb, value_pred.ub);
                breakdown.trs_tree += t0.elapsed();

                // Phase 2: box probes on the (leading, host) baseline.
                let t1 = Instant::now();
                let companion = self.companion_baseline(*leading, *host);
                let Some(CompositeIndex::Baseline { tree, .. }) =
                    companion.and_then(|c| self.indexes.get(c))
                else {
                    return false;
                };
                candidates.extend_from_slice(&approx.tids);
                let had_outliers = !candidates.is_empty();
                let tree = tree.read_at(held);
                for (lo, hi) in &approx.ranges {
                    let host_pred = RangePredicate { column: *host, lb: *lo, ub: *hi };
                    scan_box(&tree, &leading_pred, &host_pred, |tid| candidates.push(tid));
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

    /// Total heap bytes across all composite indexes.
    pub fn memory_bytes(&self) -> usize {
        self.indexes.iter().map(CompositeIndex::memory_bytes).sum()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, Database};
    use hermit_storage::{ColumnDef, Schema, TidScheme};

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
        let mut db = stock_db(TidScheme::Physical, 20_000);
        let idx = db.create_composite_baseline(0, 2).unwrap();
        let r = db.lookup_box(
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
            let mut db = stock_db(scheme, 20_000);
            // Host: (time, dj). Direct: (time, sp). Hermit: sp → dj via host.
            db.create_composite_baseline(0, 1).unwrap();
            let direct = db.create_composite_baseline(0, 2).unwrap();
            let hermit = db.create_composite_hermit(0, 2, 1).unwrap();

            for (tl, tu, sl, su) in [
                (1_000.0, 4_000.0, 500.0, 600.0),
                (0.0, 20_000.0, 800.0, 820.0),
                (15_000.0, 16_000.0, 0.0, 10_000.0),
                (7.0, 7.0, 0.0, 10_000.0),
            ] {
                let leading = RangePredicate::range(0, tl, tu);
                let value = RangePredicate::range(2, sl, su);
                let mut ra = db.lookup_box(direct, leading, value).rows;
                let mut rb = db.lookup_box(hermit, leading, value).rows;
                ra.sort();
                rb.sort();
                assert_eq!(ra, rb, "{scheme:?} box ([{tl},{tu}] × [{sl},{su}])");
            }
        }
    }

    #[test]
    fn composite_hermit_is_succinct() {
        let mut db = stock_db(TidScheme::Physical, 20_000);
        db.create_composite_baseline(0, 1).unwrap();
        let direct = db.create_composite_baseline(0, 2).unwrap();
        let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
        let direct_bytes = db.composites().get(direct).unwrap().memory_bytes();
        let hermit_bytes = db.composites().get(hermit).unwrap().memory_bytes();
        assert!(
            hermit_bytes * 5 < direct_bytes,
            "composite TRS-Tree ({hermit_bytes}) must be ≪ composite B+-tree ({direct_bytes})"
        );
    }

    #[test]
    fn composite_insert_maintenance() {
        let mut db = stock_db(TidScheme::Physical, 5_000);
        db.create_composite_baseline(0, 1).unwrap();
        let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
        // Insert a fresh row with an off-model sp (outlier): the database
        // maintains its composite indexes on insert.
        db.insert(&[Value::Int(5_000), Value::Float(6_000.0), Value::Float(123_456.0)]).unwrap();
        let r = db.lookup_box(
            hermit,
            RangePredicate::range(0, 4_999.0, 5_001.0),
            RangePredicate::range(2, 123_000.0, 124_000.0),
        );
        assert_eq!(r.rows.len(), 1, "outlier insert must be reachable through the box path");
    }

    #[test]
    fn hermit_requires_matching_host() {
        let mut db = stock_db(TidScheme::Physical, 100);
        // No composite baseline on (0, 1) yet: a typed error, nothing built.
        assert_eq!(
            db.create_composite_hermit(0, 2, 1),
            Err(CoreError::MissingCompositeHost { leading: 0, host: 1 })
        );
        assert!(db.composites().is_empty());
    }
}
