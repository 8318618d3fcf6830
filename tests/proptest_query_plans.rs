//! Property-based planner equivalence: for random multi-conjunct queries
//! over every substrate/tid-scheme combination, the planner-executed
//! results must equal a full-scan oracle computed from the generator
//! formulas — whatever access path the planner picks — and the batched
//! executor must agree with the scalar executor bit-for-bit on rows,
//! false-positive and unresolved counts. Includes the unindexed-column
//! case that, pre-planner, silently returned an empty result.

use hermit::core::{BatchOptions, Database, PlanKind, Query, RangePredicate};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, RowLoc, Schema, TidScheme, Value};
use proptest::prelude::*;
use std::sync::Arc;

const PK: usize = 0;
const HOST: usize = 1;
const TARGET: usize = 2;
const OTHER: usize = 3;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// Row generator shared by the builder and the oracle. `host` correlates
/// with `target` except for periodic wild outliers; `other` is
/// deterministic hash noise and stays unindexed.
fn row_values(i: usize) -> [f64; 4] {
    let target = i as f64;
    let host = if i.is_multiple_of(53) { -4.0e6 } else { 2.0 * target + 10.0 };
    let other = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 16.0;
    [i as f64, host, target, other]
}

/// Substrate/tid-scheme combinations under test (the paged substrate is
/// physical-pointer only, like PostgreSQL).
fn build_db(kind: u8, n: usize, delete_every: usize) -> Database {
    let mut db = match kind % 3 {
        0 => Database::new(schema(), PK, TidScheme::Logical),
        1 => Database::new(schema(), PK, TidScheme::Physical),
        _ => {
            let pages = (n / 200 + 8).next_power_of_two();
            let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pages));
            Database::new_paged(PagedTable::new(schema(), pool), PK)
        }
    };
    for i in 0..n {
        let v = row_values(i);
        db.insert(&[
            Value::Int(i as i64),
            Value::Float(v[1]),
            Value::Float(v[2]),
            Value::Float(v[3]),
        ])
        .unwrap();
    }
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    if delete_every > 0 {
        for pk in (0..n).step_by(delete_every) {
            db.delete_by_pk(pk as i64).unwrap();
        }
    }
    db
}

fn is_deleted(i: usize, delete_every: usize) -> bool {
    delete_every > 0 && i.is_multiple_of(delete_every)
}

/// Full-scan oracle from the generator formulas (independent of every
/// index and executor under test).
fn oracle(db: &Database, n: usize, delete_every: usize, preds: &[RangePredicate]) -> Vec<RowLoc> {
    let mut out: Vec<RowLoc> = (0..n)
        .filter(|&i| !is_deleted(i, delete_every))
        .filter(|&i| {
            let v = row_values(i);
            preds.iter().all(|p| v[p.column] >= p.lb && v[p.column] <= p.ub)
        })
        .map(|i| db.primary().get(i as i64).expect("live row resolves"))
        .collect();
    out.sort_unstable();
    out
}

fn sorted(rows: &[RowLoc]) -> Vec<RowLoc> {
    let mut v = rows.to_vec();
    v.sort_unstable();
    v
}

/// `(column, lb, width, invert-roll)` → predicate; one roll in eight
/// inverts the bounds to exercise the definitionally-empty case.
type PredSpec = (usize, f64, f64, u8);

fn pred_of(spec: PredSpec) -> RangePredicate {
    let (col, lb, width, invert) = spec;
    if invert % 8 == 0 {
        RangePredicate::range(col, lb + width, lb)
    } else {
        RangePredicate::range(col, lb, lb + width)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Rows from `execute` match the oracle exactly; `execute_batch`
    /// matches `execute` on rows, in order, *and* false-positive/unresolved
    /// counts, for every substrate and scheme.
    #[test]
    fn planner_execution_matches_full_scan_oracle(
        kind in 0u8..3,
        n in 300usize..700,
        delete_every in prop_oneof![Just(0usize), 11usize..40],
        specs in proptest::collection::vec(
            (0usize..4, -100.0f64..1500.0, 0.0f64..400.0, 0u8..8),
            1..4,
        ),
    ) {
        let db = build_db(kind, n, delete_every);
        let preds: Vec<RangePredicate> = specs.into_iter().map(pred_of).collect();
        let mut q = Query::new();
        for &p in &preds {
            q = q.and(p);
        }

        let expect = oracle(&db, n, delete_every, &preds);
        let scalar = db.execute(&q);
        prop_assert_eq!(
            sorted(&scalar.rows),
            expect.clone(),
            "scalar execute vs oracle (kind={}, plan={:?})",
            kind,
            db.plan(&q).kind()
        );

        let batched = &db.execute_batch(std::slice::from_ref(&q), &BatchOptions::default())[0];
        prop_assert_eq!(&batched.rows, &scalar.rows, "batched rows");
        prop_assert_eq!(batched.false_positives, scalar.false_positives, "false positives");
        prop_assert_eq!(batched.unresolved, scalar.unresolved, "unresolved");
    }

    /// Queries touching only the unindexed column take the scan plan and
    /// return the oracle rows — never the old silent empty result.
    #[test]
    fn unindexed_queries_scan_and_match_oracle(
        kind in 0u8..3,
        n in 300usize..700,
        lb in 0.0f64..900.0,
        width in 10.0f64..500.0,
    ) {
        let db = build_db(kind, n, 0);
        let pred = RangePredicate::range(OTHER, lb, lb + width);
        let plan = db.plan(&Query::filter(pred));
        prop_assert_eq!(plan.kind(), PlanKind::Scan);
        let expect = oracle(&db, n, 0, &[pred]);
        let r = db.execute_plan(&plan);
        prop_assert_eq!(sorted(&r.rows), expect.clone());
        prop_assert_eq!(r.false_positives, 0);
        // And the forced-index entry returns nothing — that contract
        // belongs to `lookup_range` alone.
        prop_assert!(db.lookup_range(pred, None).rows.is_empty());
        if !expect.is_empty() {
            prop_assert!(!r.rows.is_empty(), "scan fallback must surface the rows");
        }
    }
}
