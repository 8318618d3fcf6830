//! Property-based planner equivalence: for random multi-conjunct queries
//! over every substrate/tid-scheme combination, the planner-executed
//! results must equal the reference model's (`hermit_fault::model`) —
//! whatever access path the planner picks — and the batched
//! executor must agree with the scalar executor bit-for-bit on rows,
//! false-positive and unresolved counts. Includes the unindexed-column
//! case that, pre-planner, silently returned an empty result.

use hermit::core::{BatchOptions, Database, PlanKind, Query, RangePredicate};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
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

/// Row generator. `host` correlates with `target` except for periodic wild
/// outliers; `other` is deterministic hash noise and stays unindexed.
fn row_values(i: usize) -> [f64; 4] {
    let target = i as f64;
    let host = if i.is_multiple_of(53) { -4.0e6 } else { 2.0 * target + 10.0 };
    let other = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 16.0;
    [i as f64, host, target, other]
}

/// Substrate/tid-scheme combinations under test (the paged substrate is
/// physical-pointer only, like PostgreSQL), and the model of the rows.
fn build_db(kind: u8, n: usize, delete_every: usize) -> (Database, Model) {
    let mut db = match kind % 3 {
        0 => Database::new(schema(), PK, TidScheme::Logical),
        1 => Database::new(schema(), PK, TidScheme::Physical),
        _ => {
            let pages = (n / 200 + 8).next_power_of_two();
            let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pages));
            Database::new_paged(PagedTable::new(schema(), pool), PK)
        }
    };
    let mut model = Model::new(PK);
    let mut m = Mirror::new(&db, &mut model);
    for i in 0..n {
        let v = row_values(i);
        m.insert(&[
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
        let mut m = Mirror::new(&db, &mut model);
        for pk in (0..n).step_by(delete_every) {
            m.delete(pk as i64).unwrap();
        }
    }
    (db, model)
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

    /// Rows from `execute` match the model exactly; `execute_batch`
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
        let (db, model) = build_db(kind, n, delete_every);
        let q = specs.into_iter().map(pred_of).fold(Query::new(), Query::and);
        let scalar = db.execute(&q);
        let plan = db.plan(&q).kind();
        model
            .check_result(&db, &q, &scalar, None)
            .map_err(|e| TestCaseError::fail(format!("kind {kind}, {plan:?} plan: {e}")))?;

        let batched = &db.execute_batch(std::slice::from_ref(&q), &BatchOptions::default())[0];
        prop_assert_eq!(&batched.rows, &scalar.rows, "batched rows");
        prop_assert_eq!(batched.false_positives, scalar.false_positives, "false positives");
        prop_assert_eq!(batched.unresolved, scalar.unresolved, "unresolved");
    }

    /// Queries touching only the unindexed column take the scan plan and
    /// return the model's rows — never the old silent empty result.
    #[test]
    fn unindexed_queries_scan_and_match_oracle(
        kind in 0u8..3,
        n in 300usize..700,
        lb in 0.0f64..900.0,
        width in 10.0f64..500.0,
    ) {
        let (db, model) = build_db(kind, n, 0);
        let pred = RangePredicate::range(OTHER, lb, lb + width);
        let q = Query::filter(pred);
        let plan = db.plan(&q);
        prop_assert_eq!(plan.kind(), PlanKind::Scan);
        let r = db.execute_plan(&plan);
        model.check_result(&db, &q, &r, None).map_err(TestCaseError::fail)?;
        prop_assert_eq!(r.false_positives, 0);
        // And the forced-index entry returns nothing — that contract
        // belongs to `lookup_range` alone.
        prop_assert!(db.lookup_range(pred, None).rows.is_empty());
    }
}
