//! Concurrent multi-statement transaction stress suite, checked against
//! the reference model (`hermit_fault::model`).
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
//!   survives. Writers replay each committed transaction into one shared
//!   model, in commit order, and the database must end up matching it.
//! * **Abort restores the exact pre-transaction state** across the heap,
//!   the primary index, baseline B+-trees, Hermit TRS-trees, and composite
//!   indexes, on both storage substrates and both tid schemes.
//! * **Loser rollback on recovery** — a transaction still open when the
//!   process dies is undone by `Database::open`, while committed
//!   transactions survive.
//! * **Abort on disconnect** — a server connection dropped mid-transaction
//!   leaves no trace.

use hermit::core::shared::SharedDatabase;
use hermit::core::{CoreError, Database, DurabilityConfig, Query};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, StorageError, TidScheme, Value};
use parking_lot::Mutex;
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

/// The row `[pk, 2m, m, 10m]`: on the model, in the target band `m`.
fn band_row(pk: i64, m: f64) -> Vec<Value> {
    vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m), Value::Float(10.0 * m)]
}

fn seed_db(rows: i64) -> (SharedDatabase, Mutex<Model>) {
    let (db, model) = build_substrate(&Substrate::Mem, rows);
    (SharedDatabase::new(db), Mutex::new(model))
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

    let (shared, model) = seed_db(4_000);
    let done = AtomicBool::new(false);
    let band_query = Query::new().range(2, BAND, BAND + 100_000.0);

    crossbeam::thread::scope(|s| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let (shared, model) = (shared.clone(), &model);
            writers.push(s.spawn(move |_| {
                for j in 0..TXNS_PER_WRITER {
                    let txn = shared.begin().unwrap();
                    let base = (w * TXNS_PER_WRITER + j) * ROWS_PER_TXN;
                    let rows: Vec<Vec<Value>> = (base..base + ROWS_PER_TXN)
                        .map(|k| band_row(1_000_000 + k, BAND + k as f64))
                        .collect();
                    for row in &rows {
                        shared.insert_txn(txn, row).unwrap();
                    }
                    if j % 2 == 0 {
                        shared.commit(txn).unwrap();
                        let mut model = model.lock();
                        rows.iter().for_each(|row| model.insert(row).unwrap());
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
    model.into_inner().check(&shared, &[band_query]);

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

    let (shared, model) = seed_db(CONTESTED);
    let done = AtomicBool::new(false);
    // One query spanning originals and replacements: each snapshot must see
    // exactly one row per contested pk, whatever the interleaving.
    let span_query = Query::new().range(2, 0.0, REPL_BAND + CONTESTED as f64);

    crossbeam::thread::scope(|s| {
        let mut writers = Vec::new();
        for t in 0..4i64 {
            let (shared, model) = (shared.clone(), &model);
            writers.push(s.spawn(move |_| {
                for i in 0..CONTESTED {
                    let pk = (i + t * 64) % CONTESTED;
                    let txn = shared.begin().unwrap();
                    match shared.delete_by_pk_txn(txn, pk) {
                        Ok(()) => {
                            let replacement = band_row(1_000_000 + pk, REPL_BAND + pk as f64);
                            shared.insert_txn(txn, &replacement).unwrap();
                            shared.commit(txn).unwrap();
                            let mut model = model.lock();
                            assert_eq!(model.delete(pk), Ok(()), "pk {pk} consumed twice");
                            model.insert(&replacement).unwrap();
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

    // Every contested pk was consumed once, and no winner's write is lost:
    // each replacement row is present, each original gone.
    model.into_inner().check(&shared, &[span_query]);
    let c = shared.txn_counters();
    assert_eq!(c.commits, CONTESTED as u64);
    assert_eq!(c.begins, c.commits + c.aborts);
    assert_eq!(c.active, 0);
}

enum Substrate {
    Mem,
    Paged,
}

/// An indexed database over `rows` seed rows, and the model of them.
fn build_substrate(substrate: &Substrate, rows: i64) -> (Database, Model) {
    let mut db = match substrate {
        Substrate::Mem => Database::new(schema(), 0, TidScheme::Logical),
        Substrate::Paged => {
            let pool =
                Arc::new(BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), 512, 8));
            Database::new_paged(PagedTable::new(schema(), pool), 0)
        }
    };
    let mut model = Model::new(0);
    let mut m = Mirror::new(&db, &mut model);
    for pk in 0..rows {
        m.insert(&row_for(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    if matches!(substrate, Substrate::Mem) {
        db.create_composite_baseline(0, 2).unwrap();
    }
    (db, model)
}

/// One query per plan kind the database supports.
fn query_panel(with_composite: bool) -> Vec<Query> {
    let mut panel = vec![
        Query::new().range(2, 100.0, 400.0),     // Hermit route
        Query::new().point(2, 777.0),            // Hermit point probe
        Query::new().range(1, 1_000.0, 1_500.0), // baseline index scan
        Query::new().range(2, 200.0, 900.0).range(3, 2_500.0, 6_000.0), // residual conjunct
        Query::new().range(3, 5_000.0, 6_000.0), // unindexed: seq scan
        Query::new().range(0, -1.0e9, 1.0e9),    // every row
    ];
    if with_composite {
        panel.push(Query::new().range(0, 300.0, 600.0).range(2, 310.0, 590.0));
    }
    panel
}

/// Abort must restore the exact pre-transaction state across every index
/// kind (baseline, Hermit, composite, primary) and the heap — scalar and
/// batched executors, both substrates.
#[test]
fn abort_restores_exact_state_across_all_index_kinds() {
    for substrate in [Substrate::Mem, Substrate::Paged] {
        let (db, mut model) = build_substrate(&substrate, 1_000);
        let panel = query_panel(matches!(substrate, Substrate::Mem));
        let mut m = Mirror::new(&db, &mut model);

        let txn = m.begin();
        // On-model inserts, an off-model outlier insert, deferred deletes of
        // seed rows (one an outlier row), and a delete of the txn's own
        // insert.
        m.insert_txn(txn, &row_for(5_000)).unwrap();
        m.insert_txn(
            txn,
            &[Value::Int(5_001), Value::Float(-9.0e8), Value::Float(350.5), Value::Float(1.0)],
        )
        .unwrap();
        m.delete_txn(txn, 123).unwrap();
        m.delete_txn(txn, 170).unwrap(); // 170 % 17 == 0: outlier row
        m.delete_txn(txn, 777).unwrap();
        m.insert_txn(txn, &row_for(5_002)).unwrap();
        m.delete_txn(txn, 5_002).unwrap(); // own insert, applied immediately

        // Mid-transaction, auto-commit readers still see the pre-state, and
        // the transaction sees its own writes.
        model.check(&db, &panel);
        model.verify(&db, &panel, Some(txn)).unwrap();

        // Abort restores it: scalar and batched, row count included.
        Mirror::new(&db, &mut model).rollback(txn);
        model.check(&db, &panel);
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
    let mut model = Model::new(0);
    let loser;
    {
        let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
        let mut m = Mirror::new(&db, &mut model);
        for pk in 0..300 {
            m.insert(&row_for(pk)).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        let mut m = Mirror::new(&db, &mut model);

        // A committed transaction: survives.
        let t1 = m.begin();
        m.insert_txn(t1, &row_for(1_000)).unwrap();
        m.insert_txn(t1, &row_for(1_001)).unwrap();
        m.delete_txn(t1, 5).unwrap();
        m.commit(t1);

        // An explicitly rolled-back transaction: no trace.
        let t2 = m.begin();
        m.insert_txn(t2, &row_for(2_000)).unwrap();
        m.rollback(t2);

        // The loser: still open at "crash" time.
        loser = m.begin();
        m.insert_txn(loser, &row_for(3_000)).unwrap();
        m.insert_txn(loser, &row_for(3_001)).unwrap();
        m.delete_txn(loser, 7).unwrap(); // deferred, never applied
        m.delete_txn(loser, 3_000).unwrap(); // own insert, applied + logged

        // Checkpointing around an open transaction would bake its applied
        // writes into the new epoch while discarding their undo records.
        assert!(matches!(db.checkpoint(&dir), Err(CoreError::OpenTransactions { active: 1 })));
        // Drop without commit/rollback: the kill -9 model (every WAL record
        // was fsynced via wal_sync_every=1).
    }

    // Committed transactions survive recovery; the loser is rolled back.
    let db = Database::open(&dir, &config).unwrap();
    model.rollback(loser);
    model.check(&db, &query_panel(false));
    assert_eq!(db.txn_active(), 0);
    // Ids never rewind past ids in the replayed log.
    assert!(db.begin().unwrap() > loser, "txn ids must be reseeded past the WAL's maximum");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection dropped mid-transaction must be rolled back by the server:
/// no trace in the data, and the abort shows up in the exported counters.
#[test]
fn server_disconnect_mid_transaction_leaves_no_trace() {
    use hermit::server::{HermitClient, HermitServer, ServerConfig};

    let (shared, model) = seed_db(500);
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

    // Neither the insert nor the deferred delete left a trace.
    model.into_inner().check(&shared, &query_panel(true));
    let stats = HermitClient::connect(addr).unwrap().stats().unwrap();
    assert!(
        stats.lines().any(|l| l == "hermit_txn_aborts 1"),
        "abort-on-disconnect missing from the exporter:\n{stats}"
    );
    assert!(stats.lines().any(|l| l == "hermit_txn_active 0"), "active gauge stuck:\n{stats}");
    server.stop();
}
