//! Property test hardening the paged layer the integration suites depend
//! on: arbitrary rows inserted through a deliberately tiny `BufferPool`
//! must survive eviction and re-read bit-identically, interleaved deletes
//! included, and the clock replacer must actually evict (not silently grow
//! past capacity).

use hermit_storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit_storage::{ColumnDef, RowLoc, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float_null("x"), ColumnDef::float("y")])
}

fn row(pk: i64, x: Option<f64>, y: f64) -> Vec<Value> {
    vec![Value::Int(pk), x.map_or(Value::Null, Value::Float), Value::Float(y)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// insert → (implicit evictions under a tiny pool) → reread.
    #[test]
    fn rows_survive_eviction_roundtrip(
        rows in proptest::collection::vec(
            (any::<i64>(), proptest::option::of(-1.0e9f64..1.0e9), -1.0e9f64..1.0e9),
            700..1400,
        ),
        pool_pages in 1usize..3,
        delete_stride in 2usize..7,
    ) {
        let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pool_pages));
        let table = PagedTable::new(schema(), Arc::clone(&pool));

        // Insert everything; an 8 KiB page holds a few hundred of these
        // rows, so 700+ rows against a ≤3-page pool must overflow it and
        // force evictions.
        let locs: Vec<RowLoc> = rows
            .iter()
            .map(|&(pk, x, y)| table.insert(&row(pk, x, y)).unwrap())
            .collect();
        prop_assert!(
            table.page_count() > pool_pages,
            "test must oversubscribe the pool ({} pages vs capacity {})",
            table.page_count(),
            pool_pages
        );
        prop_assert!(pool.stats().evictions() > 0, "expected evictions under a tiny pool");

        // Delete a stride of rows, then walk everything twice (the second
        // pass rereads pages that the first pass just evicted).
        for (i, loc) in locs.iter().enumerate() {
            if i % delete_stride == 0 {
                table.delete(*loc).unwrap();
            }
        }
        for _pass in 0..2 {
            for (i, loc) in locs.iter().enumerate() {
                let (pk, x, y) = rows[i];
                if i % delete_stride == 0 {
                    prop_assert!(table.get(*loc).is_err(), "deleted row {i} came back");
                } else {
                    prop_assert_eq!(table.get(*loc).unwrap(), row(pk, x, y), "row {} diverged", i);
                    prop_assert_eq!(table.value_f64(*loc, 1).unwrap(), x);
                    prop_assert_eq!(table.value_f64(*loc, 2).unwrap(), Some(y));
                }
            }
        }

        // The heap-level census agrees after all that paging traffic.
        let live = locs.len() - locs.len().div_ceil(delete_stride);
        prop_assert_eq!(table.len(), live);
        let mut scanned = 0;
        table.for_each_live_row(|_, _| {
            scanned += 1;
            true
        }).unwrap();
        prop_assert_eq!(scanned, live);
    }

    /// A flush + pool clear wipes the cache, so every page must round-trip
    /// through the backing store, not the in-memory frames.
    #[test]
    fn rows_survive_full_cache_wipe(
        rows in proptest::collection::vec(
            (any::<i64>(), -1.0e6f64..1.0e6),
            1..128,
        ),
    ) {
        let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), 64));
        let table = PagedTable::new(schema(), Arc::clone(&pool));
        let locs: Vec<RowLoc> = rows
            .iter()
            .map(|&(pk, y)| table.insert(&row(pk, None, y)).unwrap())
            .collect();

        pool.flush().unwrap();
        pool.clear().unwrap();
        let misses_before = pool.stats().misses();

        for (i, loc) in locs.iter().enumerate() {
            let (pk, y) = rows[i];
            prop_assert_eq!(table.get(*loc).unwrap(), row(pk, None, y));
        }
        prop_assert!(
            pool.stats().misses() > misses_before,
            "rereads after a cache wipe must hit the backing store"
        );
    }
}
