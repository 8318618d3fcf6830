//! Multi-column secondary indexes (§3 of the paper).
//!
//! > "Suppose that two columns A and M on a table are queried together
//! > frequently, so an index on (A, M) is desirable. Hermit can utilize a
//! > host index on (A, N) and the correlation between M and N, to answer
//! > queries on A and M."
//!
//! A composite index is an ordinary entry of the [`crate::Database`]'s one
//! index registry, named by an [`IndexKey`](crate::IndexKey) whose
//! `leading` column is set: a complete B+-tree on `(leading, column)`
//! ([`SecondaryIndex::Composite`](crate::SecondaryIndex::Composite)), or a
//! Hermit index on `(leading, target)` whose TRS-Tree routes through the
//! baseline at `(leading, host)` — the same rule that routes a
//! single-column Hermit index through the baseline at `(None, host)`. DML,
//! the planner, the maintenance worker and the checkpoint catalog treat
//! both shapes alike. A *box* query — a conjunction of a leading-column
//! range and a column range — runs on either.
//!
//! What is left here is the two-column key and its one probe, `scan_box`:
//! lexicographic `(leading, value)` pairs, scanned over the leading range
//! with the second dimension filtered in-index — exactly what a
//! conventional RDBMS does with a composite B+-tree when the leading
//! predicate is the more selective one.

use crate::executor::RangePredicate;
use hermit_btree::BPlusTree;
use hermit_storage::{F64Key, Tid};

/// A composite key: (leading column value, second column value), ordered
/// lexicographically (derived `Ord` on the tuple).
pub type CompositeKey = (F64Key, F64Key);

/// Scan the composite tree over the leading range, keeping the entries
/// whose second value lies in `[lb, ub]`, yielding their tids.
pub(crate) fn scan_box(
    tree: &BPlusTree<CompositeKey, Tid>,
    leading: &RangePredicate,
    lb: f64,
    ub: f64,
    mut f: impl FnMut(Tid),
) {
    let lo = (F64Key(leading.lb), F64Key(f64::NEG_INFINITY));
    let hi = (F64Key(leading.ub), F64Key(f64::INFINITY));
    tree.for_each_in_range(&lo, &hi, |key, tid| {
        if key.1 .0 >= lb && key.1 .0 <= ub {
            f(*tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::{CoreError, Database, IndexKey, RangePredicate};
    use hermit_storage::{ColumnDef, Schema, TidScheme, Value};

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
            // One key names one index, so the direct (time, sp) baseline
            // lives in a twin database over the same rows.
            let mut direct_db = stock_db(scheme, 20_000);
            let direct = direct_db.create_composite_baseline(0, 2).unwrap();
            // Host: (time, dj). Hermit: sp → dj via host.
            let mut db = stock_db(scheme, 20_000);
            db.create_composite_baseline(0, 1).unwrap();
            let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
            assert_eq!(direct, hermit, "both name (time, sp)");

            for (tl, tu, sl, su) in [
                (1_000.0, 4_000.0, 500.0, 600.0),
                (0.0, 20_000.0, 800.0, 820.0),
                (15_000.0, 16_000.0, 0.0, 10_000.0),
                (7.0, 7.0, 0.0, 10_000.0),
            ] {
                let leading = RangePredicate::range(0, tl, tu);
                let value = RangePredicate::range(2, sl, su);
                let mut ra = direct_db.lookup_box(direct, leading, value).rows;
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
        let direct_bytes = db.index_at(direct).unwrap().memory_bytes();
        // The Hermit index takes the direct baseline's place at (time, sp).
        let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
        let hermit_bytes = db.index_at(hermit).unwrap().memory_bytes();
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
        // No composite baseline on (0, 1) yet: a typed error naming the
        // leading column and the host, and nothing built.
        assert_eq!(
            db.create_composite_hermit(0, 2, 1),
            Err(CoreError::MissingHostIndex { leading: Some(0), target: 2, host: 1 })
        );
        assert_eq!(db.indexes().count(), 0);
        // A single-column baseline on the host does not serve it either.
        db.create_baseline_index(1, true).unwrap();
        assert_eq!(
            db.create_composite_hermit(0, 2, 1),
            Err(CoreError::MissingHostIndex { leading: Some(0), target: 2, host: 1 })
        );
        assert_eq!(db.index_at(IndexKey::composite(0, 2)).map(|_| ()), None);
    }
}
