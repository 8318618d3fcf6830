//! Property-based tests on the storage substrate: the paged heap must agree
//! with a reference model under arbitrary insert/delete/read sequences,
//! whatever the pool size, and pages must round-trip through the buffer pool
//! under arbitrary access orders.

use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, RowLoc, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float_null("a")])
}

#[derive(Debug, Clone)]
enum Op {
    Insert { pk: i64, a: Option<f64> },
    Delete { victim: usize },
    Read { probe: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>(), proptest::option::of(-1.0e6f64..1.0e6))
            .prop_map(|(pk, a)| Op::Insert { pk, a }),
        (0usize..64).prop_map(|victim| Op::Delete { victim }),
        (0usize..64).prop_map(|probe| Op::Read { probe }),
    ]
}

fn paged(pool_pages: usize) -> PagedTable {
    let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pool_pages));
    PagedTable::new(schema(), pool)
}

/// Apply an op sequence to the paged heap and to a plain model — one
/// `Option<row>` per insert, `None` once deleted — which must agree at
/// every read and in the final census.
fn run_against_model(ops: Vec<Op>, pool_pages: usize) -> Result<(), TestCaseError> {
    let heap = paged(pool_pages);
    let mut model: Vec<Option<Vec<Value>>> = Vec::new();
    let mut locs: Vec<RowLoc> = Vec::new();

    for op in ops {
        match op {
            Op::Insert { pk, a } => {
                let row = vec![Value::Int(pk), a.map_or(Value::Null, Value::Float)];
                locs.push(heap.insert(&row).unwrap());
                model.push(Some(row));
            }
            Op::Delete { victim } => {
                if model.is_empty() {
                    continue;
                }
                let idx = victim % model.len();
                match model[idx].take() {
                    Some(row) => prop_assert_eq!(heap.delete_returning(locs[idx]).unwrap(), row),
                    None => prop_assert!(heap.delete(locs[idx]).is_err()),
                }
            }
            Op::Read { probe } => {
                if model.is_empty() {
                    continue;
                }
                let idx = probe % model.len();
                match &model[idx] {
                    Some(row) => {
                        prop_assert_eq!(&heap.get(locs[idx]).unwrap(), row);
                        prop_assert_eq!(heap.value_f64(locs[idx], 1).unwrap(), row[1].as_f64());
                    }
                    None => prop_assert!(heap.get(locs[idx]).is_err()),
                }
            }
        }
    }

    // Final census: the scan returns exactly the model's live rows, at
    // the locations their inserts returned.
    let mut want: Vec<(RowLoc, Vec<Value>)> =
        locs.into_iter().zip(model).filter_map(|(loc, row)| Some((loc, row?))).collect();
    want.sort_by_key(|(loc, _)| *loc);
    let mut got = Vec::new();
    heap.for_each_live_row(|loc, row| {
        got.push((loc, vec![row.value(0), row.value(1)]));
        true
    })
    .unwrap();
    got.sort_by_key(|(loc, _)| *loc);
    prop_assert_eq!(heap.len(), want.len());
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heaps_agree_with_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        pool_pages in 1usize..8,
    ) {
        run_against_model(ops, pool_pages)?;
    }

    #[test]
    fn scans_agree_between_heaps(
        rows in proptest::collection::vec(
            (any::<i64>(), proptest::option::of(-1.0e3f64..1.0e3)),
            1..200,
        ),
    ) {
        // A one-frame pool evicts on every new page; a large one never does.
        let (cold, warm) = (paged(1), paged(64));
        let mut want = Vec::new();
        for (pk, a) in &rows {
            let row = vec![Value::Int(*pk), a.map_or(Value::Null, Value::Float)];
            cold.insert(&row).unwrap();
            warm.insert(&row).unwrap();
            if let Some(a) = a {
                want.push((*pk as f64, *a));
            }
        }
        let pairs = |t: &PagedTable| -> Vec<(f64, f64)> {
            let mut pairs = Vec::new();
            t.for_each_live_row(|_, row| {
                if let (Some(m), Some(n)) = (row.f64(0), row.f64(1)) {
                    pairs.push((m, n));
                }
                true
            })
            .unwrap();
            pairs
        };
        // Heap order is insertion order: no sort needed.
        prop_assert_eq!(pairs(&cold), want.clone());
        prop_assert_eq!(pairs(&warm), want);
    }

    #[test]
    fn stats_track_true_min_max(
        values in proptest::collection::vec(-1.0e9f64..1.0e9, 1..500),
    ) {
        let schema = Schema::new(vec![ColumnDef::float("v")]);
        let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), 4));
        let t = PagedTable::new(schema, pool);
        for &v in &values {
            t.insert(&[Value::Float(v)]).unwrap();
        }
        let (lo, hi) = t.stats(0).unwrap().range().unwrap();
        let true_lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let true_hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, true_lo);
        prop_assert_eq!(hi, true_hi);
    }
}
