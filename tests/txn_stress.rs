//! Concurrent multi-statement transaction stress suite, checked against
//! oracles.
//!
//! The properties under test are the transaction subsystem's contract
//! (see `hermit_core::txn`):
//!
//! * **No dirty reads, atomic publication** — a snapshot reader never
//!   observes an uncommitted row or a partially committed/rolled-back
//!   transaction, even with writers running full tilt (the visibility
//!   latch keeps the frozen overlay in lockstep with the heap).
//! * **No lost updates** — contended writes are first-writer-wins; every
//!   contested row is consumed exactly once and every winner's write
//!   survives.
//! * **Abort restores the exact pre-transaction state** across the heap,
//!   the primary index, baseline B+-trees, Hermit TRS-trees, and composite
//!   indexes, on both storage substrates and both tid schemes.
//! * **Loser rollback on recovery** — a transaction still open when the
//!   process dies is undone by `Database::open`, while committed
//!   transactions survive.
//! * **Abort on disconnect** — a server connection dropped mid-transaction
//!   leaves no trace.

use hermit::core::shared::SharedDatabase;
use hermit::core::{BatchOptions, CoreError, Database, DurabilityConfig, Query, QueryResult};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, StorageError, TidScheme, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// Deterministic row shape: everything derives from the pk (every 17th row
/// is an off-model outlier, so the Hermit index's outlier buffer is under
/// test too).
fn row_for(pk: i64) -> Vec<Value> {
    let m = pk as f64;
    let host = if pk % 17 == 0 { -5.0e7 } else { 2.0 * m };
    vec![Value::Int(pk), Value::Float(host), Value::Float(m), Value::Float(10.0 * m)]
}

fn seed_db(rows: i64) -> Database {
    let mut db = Database::new(schema(), 0, TidScheme::Logical);
    for pk in 0..rows {
        db.insert(&row_for(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db
}

/// Sorted pks of a result, fetched from the heap the result came from.
fn result_pks(db: &Database, r: &QueryResult) -> Vec<i64> {
    let mut pks: Vec<i64> =
        r.rows.iter().map(|&loc| db.heap().value_f64(loc, 0).unwrap().unwrap() as i64).collect();
    pks.sort_unstable();
    pks
}

/// Join the writers, raise `done` for the readers that spin on it, and only
/// then look at the writers' outcomes: a writer that panicked must fail the
/// test, not leave the readers waiting for a flag nobody will set.
fn release_readers_then_unwrap(
    writers: Vec<crossbeam::thread::ScopedJoinHandle<'_, ()>>,
    done: &AtomicBool,
) {
    let outcomes: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
    done.store(true, Ordering::Relaxed);
    for outcome in outcomes {
        outcome.expect("writer panicked");
    }
}

/// Writers commit or roll back whole 8-row transactions in a sentinel
/// target band while readers count the band: every snapshot must contain a
/// whole number of transactions (8·k rows), and the final state must be
/// exactly the committed transactions.
#[test]
fn committed_transactions_publish_atomically_to_readers() {
    const WRITERS: i64 = 3;
    const TXNS_PER_WRITER: i64 = 40;
    const ROWS_PER_TXN: i64 = 8;
    const BAND: f64 = 100_000.0;

    let shared = SharedDatabase::new(seed_db(4_000));
    let done = AtomicBool::new(false);
    let band_query = Query::new().range(2, BAND, BAND + 100_000.0);

    crossbeam::thread::scope(|s| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let shared = shared.clone();
            writers.push(s.spawn(move |_| {
                for j in 0..TXNS_PER_WRITER {
                    let txn = shared.begin().unwrap();
                    let base = (w * TXNS_PER_WRITER + j) * ROWS_PER_TXN;
                    for k in 0..ROWS_PER_TXN {
                        let m = BAND + (base + k) as f64;
                        shared
                            .insert_txn(
                                txn,
                                &[
                                    Value::Int(1_000_000 + base + k),
                                    Value::Float(2.0 * m),
                                    Value::Float(m),
                                    Value::Float(10.0 * m),
                                ],
                            )
                            .unwrap();
                    }
                    if j % 2 == 0 {
                        shared.commit(txn).unwrap();
                    } else {
                        shared.rollback(txn).unwrap();
                    }
                }
            }));
        }
        for r in 0..2 {
            let shared = shared.clone();
            let (done, band_query) = (&done, &band_query);
            s.spawn(move |_| {
                let mut observations = 0u64;
                while !done.load(Ordering::Relaxed) || observations < 50 {
                    let n = shared.execute(band_query).rows.len() as i64;
                    assert_eq!(
                        n % ROWS_PER_TXN,
                        0,
                        "reader {r} observed a partial transaction: {n} band rows"
                    );
                    observations += 1;
                }
            });
        }
        release_readers_then_unwrap(writers, &done);
    })
    .unwrap();

    // Final state: exactly the committed transactions' rows.
    let mut expected = Vec::new();
    for w in 0..WRITERS {
        for j in (0..TXNS_PER_WRITER).step_by(2) {
            let base = (w * TXNS_PER_WRITER + j) * ROWS_PER_TXN;
            expected.extend((0..ROWS_PER_TXN).map(|k| 1_000_000 + base + k));
        }
    }
    expected.sort_unstable();
    let got = result_pks(shared.db(), &shared.execute(&band_query));
    assert_eq!(got, expected, "final band contents diverged from the committed-txn oracle");
    let batched =
        &shared.execute_batch(std::slice::from_ref(&band_query), &BatchOptions::default())[0];
    assert_eq!(result_pks(shared.db(), batched), expected, "batched executor diverged");

    let c = shared.txn_counters();
    assert_eq!(c.begins, (WRITERS * TXNS_PER_WRITER) as u64);
    assert_eq!(c.commits, (WRITERS * TXNS_PER_WRITER / 2) as u64);
    assert_eq!(c.aborts, (WRITERS * TXNS_PER_WRITER / 2) as u64);
    assert_eq!(c.conflicts, 0, "disjoint pk ranges must not conflict");
    assert_eq!(c.active, 0);
}

/// Four threads race to consume 256 contested rows (delete + insert a
/// replacement in one transaction). First-writer-wins must hand each row to
/// exactly one winner, concurrent snapshots must always see exactly one of
/// (original, replacement) per contested pk, and no winner's write may be
/// lost.
#[test]
fn contended_read_modify_write_loses_no_updates() {
    const CONTESTED: i64 = 256;
    const REPL_BAND: f64 = 500_000.0;

    let shared = SharedDatabase::new(seed_db(CONTESTED));
    let winners: Mutex<HashMap<i64, usize>> = Mutex::new(HashMap::new());
    let done = AtomicBool::new(false);
    // One query spanning originals and replacements: each snapshot must see
    // exactly one row per contested pk, whatever the interleaving.
    let span_query = Query::new().range(2, 0.0, REPL_BAND + CONTESTED as f64);

    crossbeam::thread::scope(|s| {
        let mut writers = Vec::new();
        for t in 0..4usize {
            let shared = shared.clone();
            let winners = &winners;
            writers.push(s.spawn(move |_| {
                for i in 0..CONTESTED {
                    let pk = (i + t as i64 * 64) % CONTESTED;
                    let txn = shared.begin().unwrap();
                    match shared.delete_by_pk_txn(txn, pk) {
                        Ok(()) => {
                            let m = REPL_BAND + pk as f64;
                            shared
                                .insert_txn(
                                    txn,
                                    &[
                                        Value::Int(1_000_000 + pk),
                                        Value::Float(2.0 * m),
                                        Value::Float(m),
                                        Value::Float(10.0 * m),
                                    ],
                                )
                                .unwrap();
                            shared.commit(txn).unwrap();
                            let prev = winners.lock().insert(pk, t);
                            assert_eq!(prev, None, "pk {pk} consumed twice (by {prev:?} and {t})");
                        }
                        Err(CoreError::Storage(
                            StorageError::WriteConflict { .. } | StorageError::PkNotFound { .. },
                        )) => {
                            // Lost the race (open-txn lock, or already
                            // consumed): walk away empty-handed.
                            shared.rollback(txn).unwrap();
                        }
                        Err(e) => panic!("unexpected delete error: {e}"),
                    }
                }
            }));
        }
        {
            let shared = shared.clone();
            let (done, span_query) = (&done, &span_query);
            s.spawn(move |_| {
                let mut observations = 0u64;
                while !done.load(Ordering::Relaxed) || observations < 50 {
                    let n = shared.execute(span_query).rows.len() as i64;
                    assert_eq!(
                        n, CONTESTED,
                        "snapshot saw {n} rows — an original/replacement swap was not atomic"
                    );
                    observations += 1;
                }
            });
        }
        release_readers_then_unwrap(writers, &done);
    })
    .unwrap();

    let winners = winners.into_inner();
    assert_eq!(winners.len() as i64, CONTESTED, "every contested pk must be consumed once");
    // No lost updates: every winner's replacement row is present, every
    // original is gone.
    for pk in 0..CONTESTED {
        let orig = shared.execute(&Query::new().point(2, pk as f64));
        assert!(orig.rows.is_empty(), "original row {pk} survived its committed delete");
        let repl = shared.execute(&Query::new().point(2, REPL_BAND + pk as f64));
        assert_eq!(repl.rows.len(), 1, "replacement row for pk {pk} was lost");
    }
    let c = shared.txn_counters();
    assert_eq!(c.commits, CONTESTED as u64);
    assert_eq!(c.begins, c.commits + c.aborts);
    assert_eq!(c.active, 0);
    assert_eq!(shared.len(), CONTESTED as usize);
}

enum Substrate {
    Mem,
    Paged,
}

fn build_substrate(substrate: &Substrate, rows: i64) -> Database {
    let mut db = match substrate {
        Substrate::Mem => Database::new(schema(), 0, TidScheme::Logical),
        Substrate::Paged => {
            let pool =
                Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), 512, 8));
            Database::new_paged(PagedTable::new(schema(), pool), 0)
        }
    };
    for pk in 0..rows {
        db.insert(&row_for(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    if matches!(substrate, Substrate::Mem) {
        db.create_composite_baseline(0, 2).unwrap();
    }
    db
}

/// One query per plan kind the database supports.
fn query_panel(with_composite: bool) -> Vec<Query> {
    let mut panel = vec![
        Query::new().range(2, 100.0, 400.0),     // Hermit route
        Query::new().point(2, 777.0),            // Hermit point probe
        Query::new().range(1, 1_000.0, 1_500.0), // baseline index scan
        Query::new().range(2, 200.0, 900.0).range(3, 2_500.0, 6_000.0), // residual conjunct
        Query::new().range(3, 5_000.0, 6_000.0), // unindexed: seq scan
    ];
    if with_composite {
        panel.push(Query::new().range(0, 300.0, 600.0).range(2, 310.0, 590.0));
    }
    panel
}

fn panel_snapshot(db: &Database, panel: &[Query]) -> Vec<Vec<i64>> {
    panel.iter().map(|q| result_pks(db, &db.execute(q))).collect()
}

/// Abort must restore the exact pre-transaction state across every index
/// kind (baseline, Hermit, composite, primary) and the heap — scalar and
/// batched executors, both substrates.
#[test]
fn abort_restores_exact_state_across_all_index_kinds() {
    for substrate in [Substrate::Mem, Substrate::Paged] {
        let with_composite = matches!(substrate, Substrate::Mem);
        let db = build_substrate(&substrate, 1_000);
        let panel = query_panel(with_composite);
        let before = panel_snapshot(&db, &panel);
        let len_before = db.len();

        let txn = db.begin().unwrap();
        // On-model inserts, an off-model outlier insert, deferred deletes of
        // seed rows (one an outlier row), and a delete of the txn's own
        // insert.
        db.insert_txn(txn, &row_for(5_000)).unwrap();
        db.insert_txn(
            txn,
            &[Value::Int(5_001), Value::Float(-9.0e8), Value::Float(350.5), Value::Float(1.0)],
        )
        .unwrap();
        db.delete_by_pk_txn(txn, 123).unwrap();
        db.delete_by_pk_txn(txn, 170).unwrap(); // 170 % 17 == 0: outlier row
        db.delete_by_pk_txn(txn, 777).unwrap();
        db.insert_txn(txn, &row_for(5_002)).unwrap();
        db.delete_by_pk_txn(txn, 5_002).unwrap(); // own insert, applied immediately

        // Mid-transaction, auto-commit readers still see the pre-state.
        assert_eq!(
            panel_snapshot(&db, &panel),
            before,
            "{}: open transaction leaked into auto-commit snapshots",
            if with_composite { "mem" } else { "paged" }
        );

        db.rollback(txn).unwrap();

        assert_eq!(db.len(), len_before);
        assert_eq!(
            panel_snapshot(&db, &panel),
            before,
            "{}: abort failed to restore the panel state",
            if with_composite { "mem" } else { "paged" }
        );
        let batched = db.execute_batch(&panel, &BatchOptions::default());
        for (i, r) in batched.iter().enumerate() {
            assert_eq!(
                result_pks(&db, r),
                before[i],
                "batched executor diverged after abort on panel query {i}"
            );
        }
        assert_eq!(db.txn_counters().active, 0);
    }
}

/// A transaction still open when the process dies is a loser: reopening the
/// directory must roll it back from the WAL, while committed transactions
/// (and the seed) survive. Checkpoints are refused while it is open.
#[test]
fn loser_transaction_rolls_back_on_reopen() {
    let dir = std::env::temp_dir().join(format!("hermit-txn-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let highest_id;
    {
        let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
        for pk in 0..300 {
            db.insert(&row_for(pk)).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();

        // A committed transaction: survives.
        let t1 = db.begin().unwrap();
        db.insert_txn(t1, &row_for(1_000)).unwrap();
        db.insert_txn(t1, &row_for(1_001)).unwrap();
        db.delete_by_pk_txn(t1, 5).unwrap();
        db.commit(t1).unwrap();

        // An explicitly rolled-back transaction: no trace.
        let t2 = db.begin().unwrap();
        db.insert_txn(t2, &row_for(2_000)).unwrap();
        db.rollback(t2).unwrap();

        // The loser: still open at "crash" time.
        let t3 = db.begin().unwrap();
        db.insert_txn(t3, &row_for(3_000)).unwrap();
        db.insert_txn(t3, &row_for(3_001)).unwrap();
        db.delete_by_pk_txn(t3, 7).unwrap(); // deferred, never applied
        db.delete_by_pk_txn(t3, 3_000).unwrap(); // own insert, applied + logged
        highest_id = t3;

        // Checkpointing around an open transaction would bake its applied
        // writes into the new epoch while discarding their undo records.
        assert!(matches!(db.checkpoint(&dir), Err(CoreError::OpenTransactions { active: 1 })));
        // Drop without commit/rollback: the kill -9 model (every WAL record
        // was fsynced via wal_sync_every=1).
    }

    let db = Database::open(&dir, &config).unwrap();
    // Seed 300 − committed delete of 5 + committed inserts 1000/1001; the
    // loser's 3000/3001 and its deferred delete of 7 are rolled back.
    assert_eq!(db.len(), 301);
    let present = |pk: i64| !db.execute(&Query::new().point(2, pk as f64)).rows.is_empty();
    assert!(!present(5), "committed delete must survive recovery");
    assert!(present(1_000) && present(1_001), "committed inserts must survive recovery");
    assert!(!present(2_000), "rolled-back insert resurrected");
    assert!(!present(3_000) && !present(3_001), "loser inserts must be undone");
    assert!(present(7), "loser's deferred delete must leave the row alone");
    assert_eq!(db.txn_active(), 0);
    // Ids never rewind past ids in the replayed log.
    assert!(db.begin().unwrap() > highest_id, "txn ids must be reseeded past the WAL's maximum");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection dropped mid-transaction must be rolled back by the server:
/// no trace in the data, and the abort shows up in the exported counters.
#[test]
fn server_disconnect_mid_transaction_leaves_no_trace() {
    use hermit::server::{HermitClient, HermitServer, ServerConfig};

    let shared = SharedDatabase::new(seed_db(500));
    let server = HermitServer::start(shared.clone(), None, ServerConfig::default(), "127.0.0.1:0")
        .expect("bind loopback server");
    let addr = server.local_addr();

    {
        let mut doomed = HermitClient::connect(addr).unwrap();
        let txn = doomed.begin().unwrap();
        assert!(txn > 0);
        doomed
            .insert(vec![
                Value::Int(9_000),
                Value::Float(2.0 * 123_456.5),
                Value::Float(123_456.5),
                Value::Float(1.0),
            ])
            .unwrap();
        doomed.delete(3).unwrap(); // deferred under the open txn
                                   // Drop without commit: the server must roll the transaction back.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.txn_active() > 0 {
        assert!(Instant::now() < deadline, "server never reaped the disconnected transaction");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut client = HermitClient::connect(addr).unwrap();
    let ghost = client.query(&Query::new().point(2, 123_456.5)).unwrap();
    assert!(ghost.is_empty(), "disconnected transaction's insert leaked");
    let survivor = client.query(&Query::new().point(2, 3.0)).unwrap();
    assert_eq!(survivor.len(), 1, "disconnected transaction's deferred delete was applied");
    let stats = client.stats().unwrap();
    assert!(
        stats.lines().any(|l| l == "hermit_txn_aborts 1"),
        "abort-on-disconnect missing from the exporter:\n{stats}"
    );
    assert!(stats.lines().any(|l| l == "hermit_txn_active 0"), "active gauge stuck:\n{stats}");
    server.stop();
}
