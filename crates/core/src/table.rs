//! Tests of a database's base table: the contract its heap owes callers —
//! row checks on insert, tombstoning deletes, live-row scans, per-column
//! statistics and the (target, host) projections TRS-Tree rebuilds read.

mod tests {
    use crate::database::{Database, TablePairSource};
    use hermit_storage::{ColumnDef, Schema, StorageError, TidScheme, Value};
    use hermit_trs::PairSource;

    fn table() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("a"),
            ColumnDef::float_null("b"),
        ]);
        Database::new(schema, 0, TidScheme::Physical)
    }

    fn row(pk: i64, a: f64, b: Option<f64>) -> Vec<Value> {
        vec![Value::Int(pk), Value::Float(a), b.map_or(Value::Null, Value::Float)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let db = table();
        let t = db.heap();
        let l0 = t.insert(&row(1, 1.5, Some(2.5))).unwrap();
        let l1 = t.insert(&row(2, -1.0, None)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(l0).unwrap(), row(1, 1.5, Some(2.5)));
        assert_eq!(t.get(l1).unwrap()[2], Value::Null);
    }

    #[test]
    fn arity_and_type_checks() {
        let db = table();
        assert!(matches!(
            db.insert(&[Value::Int(1)]),
            Err(StorageError::ArityMismatch { got: 1, expected: 3 })
        ));
        assert!(matches!(
            db.insert(&[Value::Float(1.0), Value::Float(1.0), Value::Null]),
            Err(StorageError::TypeMismatch { column: 0, .. })
        ));
        assert!(matches!(
            db.insert(&[Value::Int(1), Value::Null, Value::Null]),
            Err(StorageError::UnexpectedNull { column: 1 })
        ));
        assert_eq!(db.heap().len(), 0, "a refused row leaves nothing behind");
    }

    /// The heap refuses a float in an integer column, on an in-memory and
    /// a durable database alike: `1.5` or NaN as a primary key would
    /// otherwise be stored as given and indexed under its truncation. An
    /// integer in a float column is accepted.
    #[test]
    fn a_float_in_an_int_column_is_refused_on_every_database() {
        let dir = std::env::temp_dir().join(format!("hermit-table-types-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = table().heap().schema().clone();
        let config = crate::DurabilityConfig::default();
        let durable = Database::create_durable(schema, 0, &dir, &config).unwrap();
        for db in [table(), durable] {
            for pk in [Value::Float(1.5), Value::Float(f64::NAN)] {
                assert!(matches!(
                    db.insert(&[pk, Value::Float(1.0), Value::Null]),
                    Err(StorageError::TypeMismatch { column: 0, expected: "Int" })
                ));
            }
            assert_eq!(db.len(), 0, "a refused row leaves nothing behind");
            let tid = db.insert(&[Value::Int(1), Value::Float(1.0), Value::Int(3)]).unwrap();
            let loc = db.resolve(tid).unwrap();
            assert_eq!(db.heap().get(loc).unwrap()[2].as_f64(), Some(3.0));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_tombstones_row() {
        let db = table();
        let t = db.heap();
        let l = t.insert(&row(1, 1.0, None)).unwrap();
        t.delete(l).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get(l).is_err());
        assert!(t.delete(l).is_err());
        // Inserting after delete appends a fresh row.
        let l2 = t.insert(&row(2, 2.0, None)).unwrap();
        assert_ne!(l, l2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stats_track_range() {
        let db = table();
        let t = db.heap();
        t.insert(&row(1, 5.0, Some(1.0))).unwrap();
        t.insert(&row(2, -3.0, None)).unwrap();
        t.insert(&row(3, 8.0, Some(7.0))).unwrap();
        assert_eq!(t.stats(1).unwrap().range(), Some((-3.0, 8.0)));
        assert_eq!(t.stats(2).unwrap().null_count(), 1);
    }

    /// The projection reorganization rebuilds from: rows with a NULL on
    /// either side and deleted rows stay out.
    #[test]
    fn project_pairs_skips_nulls_and_deleted() {
        let db = table();
        let t = db.heap();
        t.insert(&row(1, 1.0, Some(10.0))).unwrap();
        t.insert(&row(2, 2.0, None)).unwrap(); // NULL host → skipped
        let l3 = t.insert(&row(3, 3.0, Some(30.0))).unwrap();
        t.delete(l3).unwrap();
        let pairs = TablePairSource { db: &db, target: 1, host: 2 }
            .scan_range(f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (1.0, 10.0));
    }

    #[test]
    fn project_pairs_in_range_filters_target() {
        let db = table();
        for i in 0..10 {
            db.insert(&row(i, i as f64, Some(i as f64 * 2.0))).unwrap();
        }
        let pairs = TablePairSource { db: &db, target: 1, host: 2 }.scan_range(3.0, 6.0).unwrap();
        let targets: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(targets, vec![3.0, 4.0, 5.0, 6.0]);
        assert!(pairs.iter().all(|(m, n, _)| *n == 2.0 * *m));
    }

    #[test]
    fn scan_yields_live_rows_in_order() {
        let db = table();
        let t = db.heap();
        let locs: Vec<_> = (0..5).map(|i| t.insert(&row(i, i as f64, None)).unwrap()).collect();
        t.delete(locs[2]).unwrap();
        let mut scanned = Vec::new();
        t.for_each_live_row(|loc, _| {
            scanned.push(loc);
            true
        })
        .unwrap();
        let live: Vec<_> = locs.iter().copied().filter(|l| *l != locs[2]).collect();
        assert_eq!(scanned, live, "live rows come back in insertion order");
    }

    #[test]
    fn for_each_live_row_streams_and_stops() {
        let db = table();
        let t = db.heap();
        let locs: Vec<_> = (0..6).map(|i| t.insert(&row(i, i as f64, None)).unwrap()).collect();
        t.delete(locs[1]).unwrap();
        let mut seen = Vec::new();
        let complete = t
            .for_each_live_row(|loc, r| {
                seen.push((loc, r.f64(1).unwrap()));
                true
            })
            .unwrap();
        assert!(complete);
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|(loc, _)| *loc != locs[1]));
        // Early stop after 2 rows.
        let mut n = 0;
        let complete = t
            .for_each_live_row(|_, _| {
                n += 1;
                n < 2
            })
            .unwrap();
        assert!(!complete);
        assert_eq!(n, 2);
    }
}
