//! Crash-consistency suite for the checkpoint/WAL/recovery subsystem.
//!
//! The contract under test (see `hermit_core::recovery`):
//!
//! * **Checkpoint-only**: a checkpointed database, dropped and reopened,
//!   answers every query-API shape (Hermit route, baseline range, seq
//!   scan, multi-conjunct, projection/limit; scalar and batched) exactly
//!   like the pre-crash database did.
//! * **Checkpoint + WAL replay**: DML after the last checkpoint survives a
//!   crash as long as it was WAL-committed.
//! * **Torn WAL tail**: a crash mid-append recovers to the last complete
//!   record — silently, never an error.
//! * **Fault injection**: a device that starts failing writes makes the
//!   checkpoint fail cleanly (recovery then lands on the *previous*
//!   durable state); a device that *lies* (accepts writes and fsync but
//!   drops the data) is detected at open and reported as corruption rather
//!   than serving wrong rows, and so is a checkpoint page write torn
//!   part-way through the page.
//! * **Typed rejection**: the in-memory substrate cannot checkpoint.
//! * **Composites and old catalogs**: composite indexes come back from a
//!   crash (their Hermit snapshot, or a rebuild without it), and a
//!   version-1 catalog still opens.
//! * **Force at commit**: the log is fsynced once per auto-commit statement
//!   batch and once per transaction commit, and nowhere else — counted
//!   exactly.
//! * **WAL before data**: a page carrying an open transaction's rows is
//!   never on the device ahead of the records that undo them, so a
//!   `kill -9` taken at any instant of a steal recovers without the loser.
//! * **No leak**: pages a crashed run allocated behind the catalog's
//!   watermark are given back at open.
//! * **A commit waits with nothing held**: with one committer inside its
//!   fsync, other statements append and readers read; committers share
//!   fsyncs; a failed fsync acknowledges nobody; the log file's reserve is
//!   invisible to recovery.

use hermit::core::recovery::{DurabilityConfig, CATALOG_FILE, PAGES_FILE, WAL_FILE};
use hermit::core::shared::SharedDatabase;
use hermit::core::{BatchOptions, CoreError, Database, IndexKey, PlanKind, Query, RangePredicate};
use hermit::fault::{FaultKind, FaultOp, FaultPlan, FaultyPageStore, PlannedFault};
use hermit::storage::paged::{BufferPool, FilePageStore, PageId, PageStore, PagedTable, PAGE_SIZE};
use hermit::storage::recovery::crc32;
use hermit::storage::wal::read_wal;
use hermit::storage::{
    install_fault_hook, Catalog, ColumnDef, ColumnType, FaultAction, FaultHookGuard, RowLoc,
    Schema, Site, TidScheme, Value,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

fn row(pk: i64, m: f64) -> Vec<Value> {
    vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermit-dur-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Snapshot the durable state of a database directory — what a `kill -9`
/// would leave behind — *before* the in-process database is dropped (the
/// buffer pool's drop-flush would otherwise persist in-memory state the
/// simulated crash is supposed to lose).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The query shapes the acceptance contract enumerates. With data on
/// pk/host/target and indexes host=baseline, target=Hermit, these exercise
/// every single-column plan kind (composites have their own test below).
fn queries() -> Vec<Query> {
    vec![
        Query::filter(RangePredicate::range(2, 100.0, 180.0)), // Hermit route
        Query::filter(RangePredicate::point(2, 250.0)),        // Hermit point
        Query::filter(RangePredicate::range(1, 300.0, 700.0)), // baseline index range
        Query::filter(RangePredicate::range(0, 50.0, 120.0)),  // seq scan (pk unindexed)
        Query::new().range(2, 0.0, 400.0).range(1, 100.0, 500.0), // multi-conjunct
        Query::filter(RangePredicate::range(2, 0.0, 1.0e9)),   // wide → scan fallback
        Query::filter(RangePredicate::range(2, 600.0, 650.0)).select([0, 2]).limit(10),
    ]
}

/// Materialize a query result as full rows keyed by pk (row locations are
/// an implementation detail; contents are the contract).
fn rows_of(db: &Database, result: &hermit::core::QueryResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> =
        result.rows.iter().map(|&loc| db.heap().get(loc).unwrap()).collect();
    rows.sort_by_key(|r| r[0].as_i64());
    rows
}

fn snapshot_results(db: &Database) -> Vec<Vec<Vec<Value>>> {
    queries().iter().map(|q| rows_of(db, &db.execute(q))).collect()
}

/// Assert `db` answers every query shape — one at a time and as one batch —
/// exactly as `expected` (captured pre-crash).
fn assert_matches_oracle(db: &Database, expected: &[Vec<Vec<Value>>], ctx: &str) {
    let qs = queries();
    for (q, want) in qs.iter().zip(expected) {
        let got = rows_of(db, &db.execute(q));
        assert_eq!(&got, want, "{ctx}: scalar result diverged for {q:?}");
    }
    let batched = db.execute_batch(&qs, &BatchOptions::default());
    for ((q, want), r) in qs.iter().zip(expected).zip(&batched) {
        let got = rows_of(db, r);
        assert_eq!(&got, want, "{ctx}: batched result diverged for {q:?}");
    }
}

/// 4000 rows, host baseline + target Hermit, a few deletes and outliers.
fn build(dir: &Path, config: &DurabilityConfig) -> Database {
    let mut db = Database::create_durable(schema(), 0, dir, config).unwrap();
    for i in 0..4_000i64 {
        db.insert(&row(i, i as f64)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    for pk in (0..4_000i64).step_by(17) {
        db.delete_by_pk(pk).unwrap();
    }
    // Off-model outliers land in the TRS outlier buffers.
    for i in 0..50i64 {
        db.insert(&[Value::Int(100_000 + i), Value::Float(9.0e8), Value::Float(150.0 + i as f64)])
            .unwrap();
    }
    db
}

#[test]
fn mem_substrate_rejected_with_typed_error() {
    let dir = fresh_dir("mem");
    let db = Database::new(schema(), 0, TidScheme::Physical);
    assert!(matches!(db.checkpoint(&dir), Err(CoreError::NotDurable { .. })));
    db.wal_commit().unwrap(); // no-op, not an error
}

/// A database hand-built over a file store has no WAL, so a checkpoint
/// could never be recovered from: it is refused before anything is
/// written, even with the page file where a durable database keeps it.
#[test]
fn a_checkpoint_needs_an_attached_durability() {
    let dir = fresh_dir("unattached");
    std::fs::create_dir_all(&dir).unwrap();
    let store = Arc::new(FilePageStore::create(&dir.join(PAGES_FILE)).unwrap());
    let table = PagedTable::new(schema(), Arc::new(BufferPool::new(store, 64)));
    let db = Database::new_paged(table, 0);
    for i in 0..100i64 {
        db.insert(&row(i, i as f64)).unwrap();
    }
    assert!(matches!(db.checkpoint(&dir), Err(CoreError::NotDurable { .. })));
    assert!(!dir.join(CATALOG_FILE).exists(), "a refused checkpoint wrote a catalog");
    assert!(!dir.join(WAL_FILE).exists(), "a refused checkpoint created a log");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable insert encodes its row once, into its log record, and the
/// schema check comes with the encoding: a row the schema refuses is
/// refused before anything is applied, locked or logged, on the auto-commit
/// and the transactional path alike. (A transactional insert used to log
/// its record first; the refused row's record then made replay fail, and
/// the database could not reopen.)
#[test]
fn a_refused_row_is_neither_applied_nor_logged_and_the_database_reopens() {
    let dir = fresh_dir("refused");
    let config = DurabilityConfig::default();
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    db.insert(&row(1, 1.0)).unwrap();
    let records = db.wal_tail().unwrap().records();
    refuse_then_insert(&db);
    // Begin, two inserts, commit: nothing for the refused rows.
    assert_eq!(db.wal_tail().unwrap().records(), records + 4);
    let expected = all_rows(&db);
    assert_eq!(expected.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
    drop(db);
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(all_rows(&back), expected);
    std::fs::remove_dir_all(&dir).ok();

    // A database without a log refuses the same rows before locking them.
    let mem = Database::new(schema(), 0, TidScheme::Logical);
    mem.insert(&row(1, 1.0)).unwrap();
    refuse_then_insert(&mem);
    assert_eq!(all_rows(&mem).keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
}

/// Offer rows the schema refuses — a NULL in a non-nullable column, a row
/// one cell short — on the auto-commit and the transactional path, then
/// insert and commit keys 2 and 3 in the same transaction.
fn refuse_then_insert(db: &Database) {
    let refused = [
        vec![Value::Int(2), Value::Null, Value::Float(2.0)],
        vec![Value::Int(3), Value::Float(6.0)],
    ];
    for bad in &refused {
        assert!(db.insert(bad).is_err(), "{bad:?}");
    }
    let txn = db.begin().unwrap();
    for bad in &refused {
        assert!(db.insert_txn(txn, bad).is_err(), "{bad:?}");
    }
    // The refused rows' keys were never locked.
    db.insert_txn(txn, &row(2, 2.0)).unwrap();
    db.insert_txn(txn, &row(3, 3.0)).unwrap();
    db.commit(txn).unwrap();
}

#[test]
fn checkpoint_only_restart_matches_oracle() {
    let dir = fresh_dir("ckpt");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    let expected = snapshot_results(&db);
    let len = db.len();

    // All plan kinds reachable on the paged substrate must actually be
    // exercised by the oracle set, or "identical results" proves little.
    let kinds: BTreeSet<&'static str> =
        queries().iter().map(|q| db.plan(q).kind().label()).collect();
    for kind in [PlanKind::Hermit, PlanKind::Baseline, PlanKind::Scan] {
        assert!(kinds.contains(kind.label()), "oracle set misses plan kind {kind:?}: {kinds:?}");
    }

    drop(db); // process "restart": everything in memory is gone
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len);
    assert_matches_oracle(&back, &expected, "checkpoint-only");

    // The recovered database keeps serving writes (and stays recoverable).
    back.insert(&row(500_000, 77.5)).unwrap();
    back.wal_commit().unwrap();
    let r = back.execute(&Query::filter(RangePredicate::point(2, 77.5)));
    assert_eq!(r.rows.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_replay_recovers_post_checkpoint_dml() {
    let dir = fresh_dir("wal");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();

    // Post-checkpoint churn: inserts (some off-model), deletes of both old
    // and new rows. Only the WAL can carry these across the "crash".
    for i in 0..600i64 {
        db.insert(&row(200_000 + i, 4_100.0 + i as f64)).unwrap();
    }
    db.insert(&[Value::Int(300_000), Value::Float(-5.0e8), Value::Float(123.25)]).unwrap();
    for pk in (200_000..200_600i64).step_by(7) {
        db.delete_by_pk(pk).unwrap();
    }
    db.delete_by_pk(1_001).unwrap();
    db.wal_commit().unwrap();
    let expected = snapshot_results(&db);
    let len = db.len();

    drop(db);
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len, "WAL replay must restore the exact live row count");
    assert_matches_oracle(&back, &expected, "checkpoint+wal");
    // The off-model insert must be reachable through the Hermit route.
    let r = back.execute(&Query::filter(RangePredicate::point(2, 123.25)));
    assert_eq!(r.rows.len(), 1, "outlier inserted after the checkpoint lost in recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_to_last_complete_record() {
    let dir = fresh_dir("torn");
    // Commit batch of 1: every append is fsynced, so every frame boundary
    // is a valid crash point.
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    // The log's logical end after each insert (the file itself is reserved
    // ahead of it).
    let mut wal_len_after = Vec::new();
    for i in 0..10i64 {
        db.insert(&row(400_000 + i, 5_000.0 + i as f64)).unwrap();
        wal_len_after.push(read_wal(&dir.join(WAL_FILE)).unwrap().valid_len);
    }
    let base_len = db.len();
    // `kill -9` now: capture the durable state before drop can flush the
    // dirty heap pages, then tear the copy's WAL mid-append of record #10
    // (keep 9 complete frames plus a few bytes of the tenth).
    let crash = fresh_dir("torn-crash");
    copy_dir(&dir, &crash);
    drop(db);
    let dir = crash;
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    std::fs::write(dir.join(WAL_FILE), &bytes[..wal_len_after[8] as usize + 5]).unwrap();

    // Recovery must land on exactly the 9 committed records, without error.
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), base_len - 1, "exactly the torn record must be missing");
    for i in 0..9i64 {
        let r = back.execute(&Query::filter(RangePredicate::point(2, 5_000.0 + i as f64)));
        assert_eq!(r.rows.len(), 1, "committed record {i} lost");
    }
    let r = back.execute(&Query::filter(RangePredicate::point(2, 5_009.0)));
    assert!(r.rows.is_empty(), "torn record must not resurface");

    // Appends continue cleanly after the truncated tear.
    back.insert(&row(400_009, 5_009.0)).unwrap();
    back.wal_commit().unwrap();
    let len = back.len();
    drop(back);
    let again = Database::open(&dir, &config).unwrap();
    assert_eq!(again.len(), len);
    assert_eq!(
        again.execute(&Query::filter(RangePredicate::point(2, 5_009.0))).rows.len(),
        1,
        "append after tear must survive the next restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// Device failure modes (dying / lying / page-granular drops) come from the
// shared `hermit_fault::FaultyPageStore` wrapper — the same double the
// crash-schedule explorer and the fault-injection suite use.

#[test]
fn dying_device_fails_checkpoint_and_recovery_lands_on_previous_state() {
    let dir = fresh_dir("dying");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    drop(db);

    // Reopen through a store that will start failing after N more ops.
    let store = Arc::new(FaultyPageStore::open(&dir.join(PAGES_FILE)).unwrap());
    let db =
        Database::open_with_store(&dir, Arc::clone(&store) as Arc<dyn PageStore>, &config).unwrap();
    for i in 0..200i64 {
        db.insert(&row(600_000 + i, 7_000.0 + i as f64)).unwrap();
    }
    db.wal_commit().unwrap();
    let expected = snapshot_results(&db);
    let len = db.len();

    // Device dies; the checkpoint must fail cleanly, leaving the previous
    // catalog + committed WAL as the durable truth.
    store.set_dying(true);
    assert!(db.checkpoint(&dir).is_err(), "flush through a dead device cannot succeed");
    drop(db); // Drop-flush also fails; it is best-effort by design.

    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len, "previous checkpoint + committed WAL must fully recover");
    assert_matches_oracle(&back, &expected, "dying-device");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lying_device_is_detected_at_open_instead_of_serving_wrong_rows() {
    let dir = fresh_dir("lying");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    drop(db);

    let store = Arc::new(FaultyPageStore::open(&dir.join(PAGES_FILE)).unwrap());
    let db =
        Database::open_with_store(&dir, Arc::clone(&store) as Arc<dyn PageStore>, &config).unwrap();
    // Mutate a checkpointed page (tombstone), then checkpoint through the
    // now-lying device: every write "succeeds" but nothing reaches disk,
    // so the new catalog's live counts disagree with the durable pages.
    store.set_lying(true);
    db.delete_by_pk(2).unwrap();
    db.checkpoint(&dir).expect("a lying device cannot be observed at checkpoint time");
    drop(db);

    let err = Database::open(&dir, &config);
    assert!(
        matches!(err, Err(CoreError::Recovery(_)) | Err(CoreError::Storage(_))),
        "torn checkpoint must be reported, got {:?}",
        err.map(|db| db.len())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Same lying device, but with a *count-neutral* content change: one
/// delete plus one insert on the same (last) page keeps the live count
/// identical, so only the catalog's per-page CRC can expose the dropped
/// write.
#[test]
fn lying_device_detected_even_when_live_counts_are_unchanged() {
    let dir = fresh_dir("lying-crc");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    drop(db);

    let store = Arc::new(FaultyPageStore::open(&dir.join(PAGES_FILE)).unwrap());
    let db =
        Database::open_with_store(&dir, Arc::clone(&store) as Arc<dyn PageStore>, &config).unwrap();
    // pk 100_049 is the last-inserted outlier: it lives on the last page,
    // where the replacement insert will also land.
    let victim_page = db.primary().get(100_049).expect("outlier row is live").block;
    store.set_lying(true);
    db.delete_by_pk(100_049).unwrap();
    db.insert(&row(900_000, 42.25)).unwrap();
    let new_page = db.primary().get(900_000).unwrap().block;
    assert_eq!(victim_page, new_page, "scenario needs a count-neutral same-page change");
    db.checkpoint(&dir).expect("a lying device cannot be observed at checkpoint time");
    drop(db);

    let err = Database::open(&dir, &config);
    assert!(
        matches!(err, Err(CoreError::Recovery(_)) | Err(CoreError::Storage(_))),
        "count-neutral dropped write must still be reported, got {:?}",
        err.map(|db| db.len())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn page write — only the first `keep` bytes of the new image reach
/// the device, the rest keeps the old one — in the middle of a checkpoint.
/// The checkpoint cannot see it (the write "succeeded"); `open` must report
/// it as corruption or, where the tear happened to keep every changed byte,
/// serve exactly the checkpointed rows — never other ones. Tears at the
/// head, the middle and the tail of the page.
#[test]
fn torn_checkpoint_page_is_reported_at_open() {
    for keep in [8, PAGE_SIZE / 2, PAGE_SIZE - 8] {
        let dir = fresh_dir(&format!("torn-page-{keep}"));
        let config = DurabilityConfig::default();
        let db = build(&dir, &config);
        db.checkpoint(&dir).unwrap();
        drop(db);

        // The next page write after the reopen tears.
        let tear = PlannedFault { op: FaultOp::Write, nth: 0, kind: FaultKind::Torn { keep } };
        let file = FilePageStore::open(&dir.join(PAGES_FILE)).unwrap();
        let store =
            Arc::new(FaultyPageStore::with_plan(Arc::new(file), FaultPlan::explicit(vec![tear])));
        let db = Database::open_with_store(&dir, Arc::clone(&store) as Arc<dyn PageStore>, &config)
            .unwrap();
        assert_eq!(store.injected(), 0, "open writes no page");
        // Dirty a checkpointed page, then checkpoint: its write is the torn one.
        db.delete_by_pk(2).unwrap();
        let expected = snapshot_results(&db);
        let len = db.len();
        db.checkpoint(&dir).expect("a torn write cannot be observed at checkpoint time");
        assert_eq!(store.injected(), 1, "keep {keep}: the checkpoint's page write tore");
        drop(db);

        match Database::open(&dir, &config) {
            Err(CoreError::Recovery(_)) | Err(CoreError::Storage(_)) => {}
            Err(other) => panic!("keep {keep}: untyped failure {other:?}"),
            Ok(back) => {
                assert_eq!(back.len(), len, "keep {keep}");
                assert_matches_oracle(&back, &expected, &format!("torn page, keep {keep}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The pool steals at page granularity, so a crash can persist a
/// re-insert's page while losing the page holding the original row's
/// tombstone: two live heap rows for one pk. Recovery must tombstone the
/// older ghost before idempotent replay, or it survives forever (seq scans
/// return it, `len()` is off by one).
#[test]
fn lost_tombstone_page_plus_flushed_reinsert_leaves_no_ghost_row() {
    let dir = fresh_dir("ghost");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    drop(db);

    let store = Arc::new(FaultyPageStore::open(&dir.join(PAGES_FILE)).unwrap());
    let db =
        Database::open_with_store(&dir, Arc::clone(&store) as Arc<dyn PageStore>, &config).unwrap();
    let victim_page = db.primary().get(5).expect("pk 5 is live").block as PageId;
    db.delete_by_pk(5).unwrap(); // tombstone dirties the victim page
    db.insert(&row(5, 777.5)).unwrap(); // re-insert lands on the last page
    let reinsert_page = db.primary().get(5).unwrap().block as PageId;
    assert_ne!(victim_page, reinsert_page, "scenario needs the copies on different pages");
    db.wal_commit().unwrap();
    let expected = snapshot_results(&db);
    let len = db.len();

    // Crash: the re-insert's page reaches the device, the tombstone's
    // page does not.
    store.drop_page(victim_page);
    drop(db);

    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len, "ghost duplicate row survived recovery");
    let r = back.execute(&Query::filter(RangePredicate::point(0, 5.0)));
    assert_eq!(r.rows.len(), 1, "exactly one live row for pk 5");
    assert_eq!(back.heap().get(r.rows[0]).unwrap(), row(5, 777.5), "the newer version wins");
    let old = back.execute(&Query::filter(RangePredicate::point(2, 5.0)));
    assert!(old.rows.is_empty(), "the pre-delete version must not resurface");
    assert_matches_oracle(&back, &expected, "ghost-dedup");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_checkpoint_under_concurrent_writers_loses_nothing() {
    let dir = fresh_dir("live");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    let shared = SharedDatabase::new(db);

    let writers = 4;
    let per_writer = 400i64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let shared = shared.clone();
            s.spawn(move || {
                for i in 0..per_writer {
                    let pk = 700_000 + w as i64 * per_writer + i;
                    shared.insert(&row(pk, 8_000.0 + pk as f64 / 100.0)).unwrap();
                    if i % 5 == 4 {
                        shared.delete_by_pk(pk).unwrap();
                    }
                }
            });
        }
        // Live checkpoints racing the writers: each briefly quiesces them.
        let shared = shared.clone();
        let dir = dir.as_path();
        s.spawn(move || {
            for _ in 0..5 {
                shared.checkpoint(dir).unwrap();
                std::thread::yield_now();
            }
        });
    });
    shared.wal_commit().unwrap();
    let db = shared.into_inner().ok().expect("all clones dropped");
    let expected = snapshot_results(&db);
    let len = db.len();
    let dir2 = db.durability_dir().unwrap().to_path_buf();
    assert_eq!(dir2, dir);
    drop(db);

    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len, "row lost or duplicated across live checkpoint + restart");
    assert_matches_oracle(&back, &expected, "live-checkpoint");
    // Spot-check: every surviving writer pk is present exactly once.
    for w in 0..writers {
        let pk = 700_000 + w as i64 * per_writer; // i = 0 survives (only i%5==4 deleted)
        let r = back.execute(&Query::filter(RangePredicate::range(0, pk as f64, pk as f64)));
        assert_eq!(r.rows.len(), 1, "writer {w}'s first row missing after recovery");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `(records, fsyncs, barrier fsyncs)` of the database's log so far.
fn wal_counts(db: &Database) -> (u64, u64, u64) {
    let tail = db.wal_tail().expect("durable database");
    (tail.records(), tail.fsyncs(), tail.barrier_fsyncs())
}

/// Run `f` and return what it added to the log's counters.
fn wal_delta(db: &Database, f: impl FnOnce()) -> (u64, u64, u64) {
    let (r0, f0, b0) = wal_counts(db);
    f();
    let (r1, f1, b1) = wal_counts(db);
    (r1 - r0, f1 - f0, b1 - b0)
}

/// Force-log-at-commit, counted: the fsyncs are owed by auto-commit
/// statements and commit records only. The counts repeat exactly.
#[test]
fn log_is_forced_at_commit_points_and_nowhere_else() {
    let dir = fresh_dir("force-1");
    let every_statement = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &every_statement).unwrap();

    let committed = wal_delta(&db, || {
        let t = db.begin().unwrap();
        for i in 0..4i64 {
            db.insert_txn(t, &row(i, i as f64)).unwrap();
        }
        db.commit(t).unwrap();
    });
    assert_eq!(committed, (6, 1, 0), "begin + 4 inserts + commit: six records, one fsync");

    let auto = wal_delta(&db, || {
        for i in 10..14i64 {
            db.insert(&row(i, i as f64)).unwrap();
        }
    });
    assert_eq!(auto, (4, 4, 0), "auto-commit statements keep one fsync each");

    let rolled_back = wal_delta(&db, || {
        let t = db.begin().unwrap();
        db.insert_txn(t, &row(20, 20.0)).unwrap();
        db.insert_txn(t, &row(21, 21.0)).unwrap();
        db.rollback(t).unwrap();
    });
    assert_eq!(rolled_back, (4, 0, 0), "a rolled-back transaction owes no fsync");
    assert_eq!(db.wal_depth(), Some(4), "its records are written, not yet durable");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    let dir = fresh_dir("force-64");
    let batched = DurabilityConfig { wal_sync_every: 64, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &batched).unwrap();
    let first_63 = wal_delta(&db, || {
        for i in 0..63i64 {
            db.insert(&row(i, i as f64)).unwrap();
        }
    });
    assert_eq!(first_63, (63, 0, 0));
    let the_64th = wal_delta(&db, || {
        db.insert(&row(63, 63.0)).unwrap();
    });
    assert_eq!(the_64th, (1, 1, 0), "the batch fills at the 64th record");
    // A commit forces whatever the batch is, and covers the whole transaction.
    let committed = wal_delta(&db, || {
        let t = db.begin().unwrap();
        db.insert_txn(t, &row(100, 100.0)).unwrap();
        db.commit(t).unwrap();
    });
    assert_eq!(committed, (3, 1, 0));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `kill -9` image: the site it was taken at, the log's durable position
/// at that instant, and the copied directory.
type CrashImage = (&'static str, u64, PathBuf);

/// The WAL rule under a steal. A transaction inserts into the checkpoint's
/// half-full last page; reading other pages through a three-frame pool
/// pushes that page out while the transaction is still open. At every I/O
/// site on the way a `kill -9` image is taken (the directory is copied with
/// the database alive), and each image must recover without the loser's
/// rows and without a torn-checkpoint error — at `wal_sync_every` 1 and 64.
#[test]
fn stolen_page_never_outruns_the_records_that_undo_it() {
    for sync_every in [1usize, 64] {
        let dir = fresh_dir(&format!("steal-{sync_every}"));
        let config = DurabilityConfig { pool_pages: 3, pool_shards: 1, wal_sync_every: sync_every };
        // Four full pages and a half-full fifth.
        let per_page = PAGE_SIZE / (3 * 9);
        let rows = (4 * per_page + per_page / 2) as i64;
        let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
        for i in 0..rows {
            db.insert(&row(i, i as f64)).unwrap();
        }
        db.checkpoint(&dir).unwrap();
        drop(db);

        let db = Database::open(&dir, &config).unwrap();
        let table = db.heap();
        let pages = table.pages();
        let last_page = *pages.last().unwrap();
        let tail = Arc::clone(db.wal_tail().unwrap());

        // From here on, every instrumented I/O but a page or record read
        // leaves an image behind, with the log's durable position at that
        // instant.
        let seen: Rc<RefCell<Vec<CrashImage>>> = Rc::default();
        let hook = {
            let (seen, tail, dir) = (Rc::clone(&seen), Arc::clone(&tail), dir.clone());
            install_fault_hook(move |site, _| {
                if !matches!(site, Site::PageRead | Site::PageReadRange) {
                    let mut seen = seen.borrow_mut();
                    let image = fresh_dir(&format!("steal-{sync_every}-image-{}", seen.len()));
                    copy_dir(&dir, &image);
                    seen.push((site.name(), tail.durable(), image));
                }
                FaultAction::Continue
            })
        };

        let t = db.begin().unwrap();
        let loser_pks: Vec<i64> = (0..5).map(|i| 1_000_000 + i).collect();
        for &pk in &loser_pks {
            db.insert_txn(t, &row(pk, 9_000.0 + pk as f64)).unwrap();
            assert_eq!(db.primary().get(pk).unwrap().block as PageId, last_page);
        }
        // Everything the dirty page carries is logged up to here.
        let logged_to = tail.written();
        assert!(tail.durable() < logged_to, "in-transaction records must not fsync on their own");

        // Two rounds over the other pages: the clock sweeps the dirty page out.
        for _ in 0..2 {
            for (k, _) in pages.iter().enumerate().take(4) {
                let loc = db.primary().get((k * per_page) as i64).unwrap();
                db.heap().get(loc).unwrap();
            }
        }
        drop(hook);
        // The sites fire before their I/O, so the image that holds the
        // stolen page itself is the one taken now.
        let image = fresh_dir(&format!("steal-{sync_every}-image-final"));
        copy_dir(&dir, &image);
        seen.borrow_mut().push(("the end of the steal", tail.durable(), image));

        let seen = seen.take();
        let steals: Vec<u64> =
            seen.iter().filter(|(site, ..)| *site == Site::PageWrite.name()).map(|s| s.1).collect();
        assert!(!steals.is_empty(), "sync_every {sync_every}: the dirty page was never stolen");
        for durable in steals {
            assert!(
                durable >= logged_to,
                "sync_every {sync_every}: page written with the log durable to {durable}, \
                 its records end at {logged_to}"
            );
        }
        assert!(tail.barrier_fsyncs() >= 1, "the steal must have forced the log");
        assert!(seen.iter().any(|(site, ..)| *site == Site::WalBarrier.name()));

        for (site, _, image) in &seen {
            let back = Database::open(image, &config).unwrap_or_else(|e| {
                panic!("sync_every {sync_every}: image at {site} does not recover: {e}")
            });
            assert_eq!(back.len(), rows as usize, "sync_every {sync_every}: image at {site}");
            for &pk in &loser_pks {
                assert!(back.primary().get(pk).is_none(), "loser row {pk} survived at {site}");
            }
            drop(back);
            std::fs::remove_dir_all(image).ok();
        }
        db.rollback(t).unwrap();
        assert_eq!(db.len(), rows as usize);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A steal from under auto-commit statements whose records are still in the
/// log writer's user-space buffer. At `wal_sync_every` 64 three inserts after
/// a checkpoint are applied but neither written nor forced; reading four
/// other pages through a four-frame pool pushes their page out. A `kill -9`
/// image of that moment holds a page that disagrees with the catalog, and
/// the first statement of the generation must have left evidence in the log
/// file for it — or `open` takes the directory for a torn checkpoint and
/// refuses it. (Phantom durability: the three never-forced rows survive
/// with their page.)
#[test]
fn a_page_stolen_under_buffered_auto_commit_records_reopens() {
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("payload"),
    ]);
    let row = |pk: i64| {
        let m = pk as f64;
        [Value::Int(pk), Value::Float(2.0 * m), Value::Float(m), Value::Float(0.5)]
    };
    for sync_every in [1usize, 64] {
        let dir = fresh_dir(&format!("phantom-{sync_every}"));
        let config = DurabilityConfig { pool_pages: 4, pool_shards: 1, wal_sync_every: sync_every };
        let db = Database::create_durable(schema.clone(), 0, &dir, &config).unwrap();
        for pk in 0..1_000 {
            db.insert(&row(pk)).unwrap();
        }
        db.checkpoint(&dir).unwrap();
        let table = db.heap();
        let pages = table.pages();
        assert_eq!(pages.len(), 5, "four full pages and a partial fifth");
        for pk in 1_000..1_003 {
            db.insert(&row(pk)).unwrap();
            assert_eq!(db.primary().get(pk).unwrap().block as PageId, pages[4]);
        }
        let evictions = table.pool().stats().evictions();
        for &page in &pages[..4] {
            db.heap().get(RowLoc::new(page as u32, 0)).unwrap();
        }
        assert!(table.pool().stats().evictions() > evictions, "nothing was stolen");

        let image = fresh_dir(&format!("phantom-{sync_every}-image"));
        copy_dir(&dir, &image);
        drop(db);
        let back = Database::open(&image, &config).unwrap_or_else(|e| {
            panic!("sync_every {sync_every}: the kill image does not open: {e}")
        });
        assert_eq!(back.len(), 1_003, "sync_every {sync_every}");
        for pk in 1_000..1_003 {
            let hit = back.execute(&Query::filter(RangePredicate::point(0, pk as f64)));
            assert_eq!(hit.rows.len(), 1, "sync_every {sync_every}: pk {pk}");
        }
        drop(back);
        std::fs::remove_dir_all(&image).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One cycle of insert-heavy DML: ≈ 10 pages of inserts, deletes of old
/// and new rows, a committed and a rolled-back transaction. Applies the
/// same statements to `model`.
fn churn(db: &Database, model: &mut BTreeMap<i64, Vec<Value>>, cycle: i64) {
    let base = 10_000 * (cycle + 1);
    for i in 0..3_000i64 {
        let r = row(base + i, (base + i) as f64);
        db.insert(&r).unwrap();
        model.insert(base + i, r);
    }
    for pk in (base..base + 3_000).step_by(9) {
        db.delete_by_pk(pk).unwrap();
        model.remove(&pk);
    }
    let t = db.begin().unwrap();
    for i in 0..40i64 {
        let r = row(base + 5_000 + i, 0.5 + (base + i) as f64);
        db.insert_txn(t, &r).unwrap();
        model.insert(base + 5_000 + i, r);
    }
    db.delete_by_pk_txn(t, base + 1).unwrap();
    model.remove(&(base + 1));
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    db.insert_txn(t, &row(base + 9_000, 1.0)).unwrap();
    db.rollback(t).unwrap();
    db.wal_commit().unwrap();
}

fn all_rows(db: &Database) -> BTreeMap<i64, Vec<Value>> {
    let all = db.execute(&Query::filter(RangePredicate::range(0, -1.0e15, 1.0e15)));
    rows_of(db, &all).into_iter().map(|r| (r[0].as_i64().unwrap(), r)).collect()
}

/// Three crash → recover → checkpoint cycles through a pool small enough
/// to steal must end with a page file no larger (to within one page) than
/// an uncrashed run of the same statements: recovery regenerates what sat
/// behind the catalog's watermark instead of orphaning it.
#[test]
fn recovery_does_not_leak_the_pages_behind_the_watermark() {
    let config = DurabilityConfig { pool_pages: 8, pool_shards: 1, wal_sync_every: 64 };
    let pages_len = |dir: &Path| std::fs::metadata(dir.join(PAGES_FILE)).unwrap().len();

    let clean = fresh_dir("leak-clean");
    let db = Database::create_durable(schema(), 0, &clean, &config).unwrap();
    let mut model = BTreeMap::new();
    for cycle in 0..3 {
        churn(&db, &mut model, cycle);
        db.checkpoint(&clean).unwrap();
    }
    assert_eq!(all_rows(&db), model);
    drop(db);
    let clean_len = pages_len(&clean);

    let mut dir = fresh_dir("leak-crash-0");
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    let mut model = BTreeMap::new();
    for cycle in 0..3 {
        churn(&db, &mut model, cycle);
        // kill -9: what the files hold now is all that survives.
        let image = fresh_dir(&format!("leak-crash-{}", cycle + 1));
        copy_dir(&dir, &image);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        dir = image;
        db = Database::open(&dir, &config).unwrap();
        assert_eq!(all_rows(&db), model, "cycle {cycle}: recovered rows differ from the oracle");
        db.checkpoint(&dir).unwrap();
    }
    drop(db);
    let crashed_len = pages_len(&dir);
    assert!(
        crashed_len.abs_diff(clean_len) <= PAGE_SIZE as u64,
        "three crashes left pages.db at {crashed_len} bytes, an uncrashed run at {clean_len}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean).ok();
}

// ---------------------------------------------------------------------
// The commit wait: leader/follower group commit over a reserved log
// ---------------------------------------------------------------------

/// Spin (yielding) until `cond` holds; false after five seconds, so a
/// broken property fails its test instead of hanging it.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A gate that holds its thread inside the log's fsync (the `wal.commit`
/// site) until the rest of the test has done what it must be able to do
/// meanwhile — or five seconds have passed, and `met` stays false.
#[derive(Default)]
struct FsyncGate {
    entered: AtomicBool,
    done: AtomicBool,
    met: AtomicBool,
}

impl FsyncGate {
    fn install(self: &Arc<Self>) -> FaultHookGuard {
        let gate = Arc::clone(self);
        install_fault_hook(move |site, _| {
            if site == Site::WalCommit && !gate.entered.swap(true, Ordering::SeqCst) {
                let met = eventually(|| gate.done.load(Ordering::SeqCst));
                gate.met.store(met, Ordering::SeqCst);
            }
            FaultAction::Continue
        })
    }
}

/// With one committer inside its fsync, another connection's statement can
/// take the WAL guard, append and apply. (When the fsync was paid under the
/// guard, the second statement queued behind the device.)
#[test]
fn a_committer_inside_its_fsync_does_not_hold_the_wal_guard() {
    let dir = fresh_dir("gate-guard");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    let other = db.begin().unwrap();
    let gate = Arc::new(FsyncGate::default());
    std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let _hook = gate.install();
            db.insert(&row(1, 1.0))
        });
        assert!(eventually(|| gate.entered.load(Ordering::SeqCst)), "no fsync was ever led");
        db.insert_txn(other, &row(2, 2.0)).unwrap();
        gate.done.store(true, Ordering::SeqCst);
        committer.join().unwrap().unwrap();
    });
    assert!(
        gate.met.load(Ordering::SeqCst),
        "a statement that owes no fsync waited out another committer's"
    );
    db.rollback(other).unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// While a `commit` waits for its commit record to become durable, a
/// query runs — and sees none of the commit: publication comes after the
/// wait, whole. (When the fsync was paid under the exclusive visibility
/// latch, every reader stalled for it.)
#[test]
fn readers_do_not_wait_out_a_commit() {
    let dir = fresh_dir("gate-vis");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    for pk in 0..10i64 {
        db.insert(&row(pk, pk as f64)).unwrap();
    }
    let everything = Query::filter(RangePredicate::range(0, -1.0, 1.0e6));
    let pks = |db: &Database| -> Vec<i64> {
        let mut pks: Vec<i64> =
            rows_of(db, &db.execute(&everything)).iter().map(|r| r[0].as_i64().unwrap()).collect();
        pks.sort_unstable();
        pks
    };
    let gate = Arc::new(FsyncGate::default());
    std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let t = db.begin().unwrap();
            db.insert_txn(t, &row(100, 100.0)).unwrap();
            db.delete_by_pk_txn(t, 3).unwrap();
            let _hook = gate.install();
            db.commit(t)
        });
        assert!(eventually(|| gate.entered.load(Ordering::SeqCst)), "no fsync was ever led");
        assert_eq!(pks(&db), (0..10).collect::<Vec<i64>>(), "a commit shows whole, or not at all");
        gate.done.store(true, Ordering::SeqCst);
        committer.join().unwrap().unwrap();
    });
    assert!(gate.met.load(Ordering::SeqCst), "a reader waited out a commit's fsync");
    let after: Vec<i64> = (0..10).filter(|&pk| pk != 3).chain([100]).collect();
    assert_eq!(pks(&db), after);
    drop(db);
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(pks(&back), after);
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}

/// Four committers at `wal_sync_every = 1`: a commit point waits at most
/// once, fsyncs are shared, and an acknowledgement means what it says — a
/// `kill -9` image taken right after an ack holds every row acknowledged
/// before it.
#[test]
fn four_committers_share_fsyncs_and_every_ack_is_in_the_image() {
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 500;
    let dir = fresh_dir("cohort");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    let tail = Arc::clone(db.wal_tail().unwrap());
    let (f0, w0) = (tail.fsyncs(), tail.commit_waits());

    // (image directory, pks acknowledged before the copy began)
    let images: Vec<(PathBuf, Vec<i64>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (db, dir, tail) = (&db, &dir, Arc::clone(&tail));
                s.spawn(move || {
                    // A leader lingers (briefly, bounded) for company, so that
                    // cohorts form on any device, however fast its fsync.
                    let _hook = install_fault_hook(move |site, _| {
                        if site == Site::WalCommit {
                            let until = Instant::now() + Duration::from_micros(500);
                            while tail.parked() == 0 && Instant::now() < until {
                                std::thread::yield_now();
                            }
                        }
                        FaultAction::Continue
                    });
                    let mut acked = Vec::new();
                    let mut images = Vec::new();
                    for i in 0..PER_THREAD {
                        let pk = t * PER_THREAD + i;
                        db.insert(&row(pk, pk as f64)).unwrap();
                        acked.push(pk);
                        if i % 100 == 99 {
                            let image = fresh_dir(&format!("cohort-image-{t}-{i}"));
                            copy_dir(dir, &image);
                            images.push((image, acked.clone()));
                        }
                    }
                    images
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });

    let (fsyncs, waits) = (tail.fsyncs() - f0, tail.commit_waits() - w0);
    let commit_points = (THREADS * PER_THREAD) as u64;
    assert!(waits <= commit_points, "{waits} waits for {commit_points} commit points");
    assert!(fsyncs < waits, "{fsyncs} fsyncs released {waits} waiters: no cohort ever formed");
    assert_eq!(tail.barrier_fsyncs(), 0);
    assert_eq!(db.len(), (THREADS * PER_THREAD) as usize);
    drop(db);
    for (image, acked) in &images {
        let back = Database::open(image, &config).unwrap();
        for pk in acked {
            assert!(back.primary().get(*pk).is_some(), "acknowledged row {pk} is not in its image");
        }
        drop(back);
        std::fs::remove_dir_all(image).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A commit point racing a checkpoint: the wait holds the quiesce latch, so
/// the log is never reset under it, and a position from the abandoned
/// generation is already durable when anyone looks — nobody waits forever.
#[test]
fn a_commit_racing_a_checkpoint_never_waits_on_the_abandoned_generation() {
    let dir = fresh_dir("race-ckpt");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let shared = SharedDatabase::new(Database::create_durable(schema(), 0, &dir, &config).unwrap());
    let (finished, outcome) = std::sync::mpsc::channel();
    let racers = shared.clone();
    let racers_dir = dir.clone();
    // Detached on purpose: if the property breaks, the racers hang, and
    // the test must still fail.
    std::thread::spawn(move || {
        let writing = AtomicBool::new(true);
        let checkpoints = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2i64)
                .map(|w| {
                    let racers = &racers;
                    s.spawn(move || {
                        for i in 0..300i64 {
                            racers.insert(&row(w * 1_000 + i, i as f64)).unwrap();
                            if i % 10 == 9 {
                                let t = racers.begin().unwrap();
                                racers.insert_txn(t, &row(w * 1_000 + 500 + i, 0.5)).unwrap();
                                racers.commit(t).unwrap();
                            }
                        }
                    })
                })
                .collect();
            let checkpointer = s.spawn(|| {
                let mut taken = 0u32;
                while writing.load(Ordering::SeqCst) {
                    match racers.checkpoint(&racers_dir) {
                        Ok(()) => taken += 1,
                        Err(CoreError::OpenTransactions { .. }) => {}
                        Err(e) => panic!("checkpoint failed: {e}"),
                    }
                }
                taken
            });
            for w in writers {
                w.join().unwrap();
            }
            writing.store(false, Ordering::SeqCst);
            checkpointer.join().unwrap()
        });
        let _ = finished.send(checkpoints);
    });
    let checkpoints = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("a commit point never came back from its wait across a checkpoint");
    assert!(checkpoints > 0, "no checkpoint ran beside the writers");
    let tail = Arc::clone(shared.wal_tail().unwrap());
    assert_eq!(tail.durable(), tail.written());
    let len = shared.len();
    assert_eq!(len, 2 * 330);
    drop(shared);
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), len);
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}

/// A commit whose fsync fails acknowledges nothing, applies nothing, and
/// leaves the transaction open exactly as it was — deferred deletes parked
/// again — so rollback restores the pre-transaction state.
#[test]
fn a_failed_commit_wait_leaves_the_transaction_open_and_sound() {
    let dir = fresh_dir("commit-fails");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    for pk in 0..5i64 {
        db.insert(&row(pk, pk as f64)).unwrap();
    }
    let t = db.begin().unwrap();
    db.insert_txn(t, &row(50, 50.0)).unwrap();
    db.delete_by_pk_txn(t, 2).unwrap();

    let hook = install_fault_hook(|site, _| match site {
        Site::WalCommit => FaultAction::Error,
        _ => FaultAction::Continue,
    });
    let err = db.commit(t).unwrap_err();
    drop(hook);
    assert!(err.to_string().contains("wal.commit"), "{err}");

    assert_eq!(db.txn_active(), 1, "the transaction stays open");
    let point = |m: f64| Query::filter(RangePredicate::point(2, m));
    assert_eq!(db.execute(&point(2.0)).rows.len(), 1, "the deferred delete was not applied");
    assert!(db.execute_for_txn(&point(2.0), t).rows.is_empty(), "and is still pending");
    assert!(db.execute(&point(50.0)).rows.is_empty(), "nothing was published");
    assert!(db.insert(&row(60, 60.0)).is_err(), "the log is poisoned until a checkpoint");

    db.rollback(t).unwrap();
    assert_eq!(db.len(), 5);
    assert_eq!(db.execute(&point(2.0)).rows.len(), 1);
    db.checkpoint(&dir).unwrap();
    db.insert(&row(60, 60.0)).unwrap();
    drop(db);
    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), 6);
    assert!(back.primary().get(50).is_none() && back.primary().get(2).is_some());
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}

/// The log file is kept 1 MiB ahead of the log. Recovery must not notice —
/// a `kill -9` image replays exactly what was written and appends at the
/// logical end — and a checkpoint leaves the bare 16-byte header.
#[test]
fn the_reserve_is_invisible_to_recovery_and_gone_after_a_checkpoint() {
    let dir = fresh_dir("reserve");
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };
    let wal_len = |dir: &Path| std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    assert_eq!(wal_len(&dir), 16, "a fresh directory carries no reserve");
    for pk in 0..10i64 {
        db.insert(&row(pk, pk as f64)).unwrap();
    }
    let logical = read_wal(&dir.join(WAL_FILE)).unwrap().valid_len;
    // The header, the generation's marker frame, ten insert frames.
    assert_eq!(logical, 16 + (8 + 1) + 10 * (8 + 1 + 2 + 3 * 9));
    assert!(wal_len(&dir) > logical + (1 << 19), "the log file should be reserved ahead");

    let image = fresh_dir("reserve-image");
    copy_dir(&dir, &image);
    let back = Database::open(&image, &config).unwrap();
    assert_eq!(back.len(), 10);
    assert_eq!(wal_len(&image), logical, "reopening cuts the crashed writer's reserve off");
    back.insert(&row(10, 10.0)).unwrap();
    let replay = read_wal(&image.join(WAL_FILE)).unwrap();
    assert_eq!((replay.records.len(), replay.torn_tail), (11, false));
    drop(back);
    assert_eq!(Database::open(&image, &config).unwrap().len(), 11);
    std::fs::remove_dir_all(&image).ok();

    db.checkpoint(&dir).unwrap();
    assert_eq!(wal_len(&dir), 16, "after a checkpoint the log is its header");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The pks of `model`'s rows inside the box `leading × value`, ascending.
fn box_oracle(
    model: &BTreeMap<i64, Vec<Value>>,
    leading: RangePredicate,
    value: RangePredicate,
) -> Vec<i64> {
    let inside = |r: &[Value], p: &RangePredicate| p.matches(r[p.column].as_f64());
    model
        .iter()
        .filter(|(_, r)| inside(r, &leading) && inside(r, &value))
        .map(|(&pk, _)| pk)
        .collect()
}

/// The pks a box query through the index at `key` returns, ascending.
fn box_pks(
    db: &Database,
    key: IndexKey,
    leading: RangePredicate,
    value: RangePredicate,
) -> Vec<i64> {
    rows_of(db, &db.lookup_box(key, leading, value))
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect()
}

/// Composite indexes are durable like single-column ones: a composite
/// baseline and the composite Hermit index routed through it survive a
/// checkpoint, post-checkpoint DML and a `kill -9`, and answer box queries
/// like a model of the rows. Without its snapshot the composite Hermit
/// index is rebuilt from the heap.
#[test]
fn composite_indexes_survive_a_crash_and_a_lost_snapshot() {
    let dir = fresh_dir("composite");
    let config = DurabilityConfig::default();
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    let mut model = BTreeMap::new();
    for i in 0..3_000i64 {
        let r = row(i, i as f64);
        db.insert(&r).unwrap();
        model.insert(i, r);
    }
    let host = db.create_composite_baseline(0, 1).unwrap();
    let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
    assert_eq!((host, hermit), (IndexKey::composite(0, 1), IndexKey::composite(0, 2)));
    db.checkpoint(&dir).unwrap();
    let snapshots = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("trs_0-2.") && n.ends_with(".trst"))
            .collect();
        names.sort();
        names
    };
    assert_eq!(snapshots(&dir).len(), 1, "one composite snapshot, named with its leading column");

    // Post-checkpoint DML only the WAL carries: rows on and off the model,
    // and deletes of old and new ones.
    for i in 0..400i64 {
        let pk = 10_000 + i;
        let r = if i % 10 == 0 {
            vec![Value::Int(pk), Value::Float(-7.0e8), Value::Float(500.0 + i as f64)]
        } else {
            row(pk, 3_000.0 + i as f64)
        };
        db.insert(&r).unwrap();
        model.insert(pk, r);
    }
    for pk in (0..3_000i64).step_by(11).chain((10_000..10_400).step_by(13)) {
        db.delete_by_pk(pk).unwrap();
        model.remove(&pk);
    }
    db.wal_commit().unwrap();
    let boxes = [
        (RangePredicate::range(0, 0.0, 20_000.0), RangePredicate::range(2, 400.0, 900.0)),
        (RangePredicate::range(0, 10_000.0, 10_200.0), RangePredicate::range(2, 0.0, 1.0e9)),
        (RangePredicate::range(0, 1_000.0, 2_000.0), RangePredicate::point(2, 1_500.0)),
    ];
    for (leading, value) in boxes {
        assert_eq!(box_pks(&db, hermit, leading, value), box_oracle(&model, leading, value));
    }

    // kill -9: the image is what the device holds now.
    let image = fresh_dir("composite-image");
    copy_dir(&dir, &image);
    drop(db);
    let torn = fresh_dir("composite-torn");
    copy_dir(&image, &torn);

    for (name, dir) in [("reopened", &image), ("snapshot lost", &torn)] {
        if name == "snapshot lost" {
            let lost = snapshots(dir);
            assert_eq!(lost.len(), 1);
            std::fs::remove_file(dir.join(&lost[0])).unwrap();
        }
        let back = Database::open(dir, &config).unwrap();
        assert_eq!(back.len(), model.len(), "{name}");
        assert!(back.index_at(host).is_some_and(|i| !i.is_hermit()), "{name}: host baseline");
        assert_eq!(back.index_at(hermit).and_then(|i| i.host_column()), Some(1), "{name}");
        for (leading, value) in boxes {
            let want = box_oracle(&model, leading, value);
            assert_eq!(
                box_pks(&back, hermit, leading, value),
                want,
                "{name}: {leading:?} × {value:?}"
            );
            let any_host = RangePredicate::range(1, -1.0e15, 1.0e15);
            let want_host = box_oracle(&model, leading, any_host);
            assert_eq!(box_pks(&back, host, leading, any_host), want_host, "{name}: host box");
            let planned = back.execute(&Query::filter(leading).and(value));
            assert_eq!(rows_of(&back, &planned).len(), want.len(), "{name}: planned");
        }
        // The reopened database keeps composites through its own checkpoint.
        back.checkpoint(dir).unwrap();
        assert_eq!(snapshots(dir).len(), 1, "{name}: the rebuilt index snapshots again");
        drop(back);
        let again = Database::open(dir, &config).unwrap();
        let (leading, value) = boxes[0];
        assert_eq!(box_pks(&again, hermit, leading, value), box_oracle(&model, leading, value));
    }
    for dir in [&dir, &image, &torn] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// `catalog`'s bytes in the version-1 layout, which had no leading
/// columns: what a build before composite indexes were catalogued wrote.
fn catalog_v1_bytes(catalog: &Catalog) -> Vec<u8> {
    let mut b = 1u32.to_le_bytes().to_vec();
    b.push(match catalog.scheme {
        TidScheme::Logical => 0,
        TidScheme::Physical => 1,
    });
    b.extend_from_slice(&(catalog.pk_col as u32).to_le_bytes());
    b.extend_from_slice(&catalog.wal_epoch.to_le_bytes());
    b.extend_from_slice(&catalog.next_page.to_le_bytes());
    b.extend_from_slice(&(catalog.schema.width() as u16).to_le_bytes());
    for col in catalog.schema.columns() {
        b.push(u8::from(col.ty == ColumnType::Float));
        b.push(u8::from(col.nullable));
        b.extend_from_slice(&(col.name.len() as u16).to_le_bytes());
        b.extend_from_slice(col.name.as_bytes());
    }
    b.extend_from_slice(&(catalog.pages.len() as u32).to_le_bytes());
    for p in &catalog.pages {
        b.extend_from_slice(&p.page.to_le_bytes());
        b.extend_from_slice(&p.live_rows.to_le_bytes());
        b.extend_from_slice(&p.crc.to_le_bytes());
    }
    b.extend_from_slice(&(catalog.baselines.len() as u16).to_le_bytes());
    for d in &catalog.baselines {
        b.extend_from_slice(&(d.column as u32).to_le_bytes());
        b.push(u8::from(d.existing));
    }
    b.extend_from_slice(&(catalog.hermits.len() as u16).to_le_bytes());
    for d in &catalog.hermits {
        b.extend_from_slice(&(d.target as u32).to_le_bytes());
        b.extend_from_slice(&(d.host as u32).to_le_bytes());
        b.extend_from_slice(&(d.params.len() as u16).to_le_bytes());
        b.extend_from_slice(&d.params);
    }
    let mut out = b"HMTC".to_vec();
    out.extend_from_slice(&b);
    out.extend_from_slice(&crc32(&b).to_le_bytes());
    out
}

/// A directory whose catalog was written in version 1 opens, with every
/// index back and every query answered as before the restart, and the
/// next checkpoint writes the current version.
#[test]
fn a_directory_with_a_version_1_catalog_opens() {
    let dir = fresh_dir("catalog-v1");
    let config = DurabilityConfig::default();
    let db = build(&dir, &config);
    db.checkpoint(&dir).unwrap();
    let expected = snapshot_results(&db);
    drop(db);

    let path = dir.join(CATALOG_FILE);
    let catalog = Catalog::read(&path).unwrap();
    assert!(catalog.baselines.iter().all(|d| d.leading.is_none()));
    std::fs::write(&path, catalog_v1_bytes(&catalog)).unwrap();
    assert_eq!(Catalog::read(&path).unwrap(), catalog, "v1 decodes to the same definitions");
    assert_eq!(u32::from_le_bytes(std::fs::read(&path).unwrap()[4..8].try_into().unwrap()), 1);

    let back = Database::open(&dir, &config).unwrap();
    assert_matches_oracle(&back, &expected, "v1 catalog");
    back.checkpoint(&dir).unwrap();
    assert_eq!(u32::from_le_bytes(std::fs::read(&path).unwrap()[4..8].try_into().unwrap()), 2);
    drop(back);
    std::fs::remove_dir_all(&dir).ok();
}
