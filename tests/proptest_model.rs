//! The reference model checks itself against the engine: random histories
//! of auto-commit inserts and deletes and of transactions that commit or
//! roll back — two open at once, so first-writer-wins conflicts happen —
//! run through a `Mirror` on logical, physical and paged databases, with
//! the target column under a baseline or a Hermit index. Every statement's
//! outcome (success or refusal) must agree, and after every step the
//! engine must answer the query panel like the model: as an auto-commit
//! reader, one query at a time and as one batch, and as each open
//! transaction.

use hermit::core::{Database, Query};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Keys 0..48; the seed holds 0..32.
const KEYS: i64 = 48;
const SEED: i64 = 32;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// `host` follows `target` except above 90, where it is a wild outlier.
fn row(pk: i64, target: f64) -> Vec<Value> {
    let host = if target > 90.0 { -4.0e6 } else { 2.0 * target + 10.0 };
    vec![Value::Int(pk), Value::Float(host), Value::Float(target), Value::Float(1.5 * pk as f64)]
}

/// One plan kind each: Hermit route or index range on the target, a point
/// probe, the host index, a seq scan, a residual conjunct, every row, and
/// a projection under a limit.
fn panel() -> Vec<Query> {
    vec![
        Query::new().range(2, 20.0, 60.0),
        Query::new().point(2, 50.0),
        Query::new().range(1, 30.0, 150.0),
        Query::new().range(3, 10.0, 40.0),
        Query::new().range(2, 0.0, 80.0).range(3, 0.0, 30.0),
        Query::new().range(0, -1.0, 1.0e3),
        Query::new().range(2, 0.0, 100.0).select([0, 2]).limit(5),
    ]
}

/// `kind % 3`: logical, physical or paged; `hermit`: the target column's
/// index is a Hermit one routed through the host's, else a baseline.
fn seeded(kind: u8, hermit: bool) -> (Database, Model) {
    let mut db = match kind % 3 {
        0 => Database::new(schema(), 0, TidScheme::Logical),
        1 => Database::new(schema(), 0, TidScheme::Physical),
        _ => {
            let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), 8));
            Database::new_paged(PagedTable::new(schema(), pool), 0)
        }
    };
    let mut model = Model::new(0);
    let mut m = Mirror::new(&db, &mut model);
    for pk in 0..SEED {
        m.insert(&row(pk, pk as f64 * 3.0)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    if hermit {
        db.create_hermit_index(2, 1).unwrap();
    } else {
        db.create_baseline_index(2, false).unwrap();
    }
    (db, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each step is `(op, slot, pk, target)`: an auto-commit insert or
    /// delete, or a begin, insert, delete, commit or rollback in one of two
    /// transaction slots.
    #[test]
    fn engine_and_model_agree_on_every_step_of_a_history(
        kind in 0u8..3,
        hermit in prop_oneof![Just(false), Just(true)],
        steps in proptest::collection::vec((0u8..7, 0usize..2, 0i64..KEYS, 0.0f64..100.0), 1..48),
    ) {
        let (db, mut model) = seeded(kind, hermit);
        let panel = panel();
        let mut open: [Option<u64>; 2] = [None, None];
        for (i, &(op, slot, pk, target)) in steps.iter().enumerate() {
            // The engine does not refuse an auto-commit duplicate, so a live
            // key is deleted instead.
            let live = model.rows().contains_key(&pk);
            let mut m = Mirror::new(&db, &mut model);
            // The outcomes themselves are checked by the mirror.
            let _refused = match (op, open[slot]) {
                (0, _) if live => m.delete(pk),
                (0, _) => m.insert(&row(pk, target)),
                (1, _) => m.delete(pk),
                (2, None) => {
                    open[slot] = Some(m.begin());
                    Ok(())
                }
                (3, Some(t)) => m.insert_txn(t, &row(pk, target)),
                (4, Some(t)) => m.delete_txn(t, pk),
                (5 | 6, Some(t)) => {
                    if op == 5 { m.commit(t) } else { m.rollback(t) }
                    open[slot] = None;
                    Ok(())
                }
                _ => Ok(()),
            };
            for reader in std::iter::once(None).chain(open.iter().flatten().map(|&t| Some(t))) {
                model.verify(&db, &panel, reader).map_err(|e| {
                    TestCaseError::fail(format!("step {i} {:?}, reader {reader:?}: {e}", steps[i]))
                })?;
            }
        }
    }
}
