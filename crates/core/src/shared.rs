//! The concurrent serving layer: share one [`Database`] across readers,
//! writers, and a background maintenance worker.
//!
//! This is the paper's deployment story made concrete. Hermit is designed
//! for an RDBMS that serves mixed traffic: queries run constantly,
//! insert/delete churn never stops, and §4.4's *structure reorganization*
//! happens on a background thread so the foreground never pays for it.
//! Appendix B specifies the protocol — a coarse per-tree latch, writers
//! diverting to a temporal side buffer while a rebuild scan is in flight —
//! and [`hermit_trs::ConcurrentTrsTree`] implements it. This module wires
//! all of that into the database:
//!
//! * [`SharedDatabase`] is a cheap cloneable handle — an `Arc` around
//!   [`Database`] that dereferences to it. Nothing is forwarded: every
//!   method a server calls — [`Database::execute`],
//!   [`Database::execute_batch`], [`Database::insert`] /
//!   [`Database::delete_by_pk`], [`Database::begin`] /
//!   [`Database::commit`], [`Database::checkpoint`] — already takes
//!   `&self`, because every underlying structure is individually latched
//!   (see [`crate::database`] module docs for the latch map).
//! * [`MaintenanceWorker`] is the §4.4 background thread: it periodically
//!   calls [`Database::maintenance_pass`], which drains each Hermit index's
//!   reorganization queue via
//!   [`hermit_trs::ConcurrentTrsTree::reorganize_pass`], re-scanning the base table
//!   through [`TablePairSource`], so Algorithm-3 insert/delete triggers
//!   actually produce splits/merges under sustained churn instead of
//!   letting outlier buffers grow without bound. Composite Hermit indexes
//!   are reorganized by the same pass, through the same protocol.
//!
//! # Mapping to Appendix B
//!
//! | paper                                   | here                                          |
//! |-----------------------------------------|-----------------------------------------------|
//! | coarse tree latch                       | `RwLock<TrsTree>` inside `ConcurrentTrsTree`  |
//! | *reorganizing* flag                     | `AtomicBool` raised by `reorganize_pass`      |
//! | temporal side buffer                    | `Mutex<Vec<SideOp>>`, replayed at install     |
//! | background reorganization thread (§4.4) | [`MaintenanceWorker`]                         |
//! | base-table rebuild scan                 | [`TablePairSource`] over the shared heap      |
//!
//! Writers insert into the base table *first* and the indexes second (see
//! [`Database::insert_timed`]), so a rebuild scan always observes at least
//! the tuples the index knows about — the no-false-negative contract
//! survives the race between a writer and the worker. A rebuild scan that
//! cannot read the heap installs nothing: its candidate goes back on the
//! tree's queue for a later pass.
//!
//! # Example
//!
//! ```
//! use hermit_core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
//! use hermit_core::Query;
//! use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
//!
//! let mut db = hermit_core::Database::new(
//!     Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")]),
//!     0,
//!     TidScheme::Physical,
//! );
//! for i in 0..10_000 {
//!     db.insert(&[Value::Int(i), Value::Float(2.0 * i as f64), Value::Float(i as f64)]).unwrap();
//! }
//! db.create_baseline_index(1, true).unwrap();
//! db.create_hermit_index(2, 1).unwrap();
//!
//! let shared = SharedDatabase::new(db);
//! let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
//! // Any number of threads may now clone `shared` and call any `&self`
//! // method of `Database` on it (`execute`, `insert`, `delete_by_pk`, …).
//! let writer = shared.clone();
//! std::thread::spawn(move || writer.delete_by_pk(150).unwrap()).join().unwrap();
//! let r = shared.execute(&Query::new().range(2, 100.0, 199.0));
//! assert_eq!(r.rows.len(), 99);
//! worker.stop();
//! ```

use crate::database::{Database, TablePairSource};
use crate::index::SecondaryIndex;
use hermit_storage::ColumnId;
use hermit_trs::ConcurrentTrsTree;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

// The serving layer exists because these hold; break either and
// `SharedDatabase` must not compile.
fn _assert_database_is_shareable() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<Database>();
}

/// A cheap cloneable handle serving one [`Database`] from many threads.
///
/// Clones share the same database, and the handle dereferences to it:
/// every `&self` method of [`Database`] — the query surface, the write
/// path, transactions, checkpoints and the maintenance hooks — is called
/// on the handle directly and is safe from any thread.
///
/// Structural DDL (`create_*_index`) takes `&mut Database`, so build the
/// schema and indexes *before* wrapping; [`into_inner`](Self::into_inner)
/// hands the database back once every clone is dropped.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Database>,
}

impl Deref for SharedDatabase {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner
    }
}

impl SharedDatabase {
    /// Wrap a fully-built database for concurrent serving.
    pub fn new(db: Database) -> Self {
        SharedDatabase { inner: Arc::new(db) }
    }

    /// The shared database (what the handle dereferences to).
    pub fn db(&self) -> &Database {
        &self.inner
    }

    /// Unwrap the handle, returning the database once this is the last
    /// clone (e.g. to run DDL); otherwise gives the handle back.
    pub fn into_inner(self) -> Result<Database, SharedDatabase> {
        Arc::try_unwrap(self.inner).map_err(|inner| SharedDatabase { inner })
    }
}

impl Database {
    /// Run one synchronous maintenance sweep: for every Hermit index —
    /// single-column or composite — whose reorganization queue is
    /// non-empty, execute one Appendix-B
    /// [`hermit_trs::ConcurrentTrsTree::reorganize_pass`] over up to `limit`
    /// queued candidates, re-scanning the base table through
    /// [`TablePairSource`]. Returns the number of candidates whose subtree
    /// was replaced.
    ///
    /// [`MaintenanceWorker`] calls this in a loop; tests call it directly
    /// for deterministic reorganization.
    pub fn maintenance_pass(&self, limit: usize) -> usize {
        self.hermit_trees()
            .filter(|(trs, ..)| trs.reorg_queue_len() > 0)
            .map(|(trs, target, host)| {
                trs.reorganize_pass(&TablePairSource { db: self, target, host }, limit)
            })
            .sum()
    }

    /// Total completed background reorganization passes across all Hermit
    /// indexes (the §4.4 observability counter).
    pub fn reorg_passes(&self) -> u64 {
        self.hermit_trees().map(|(trs, ..)| trs.reorg_passes()).sum()
    }

    /// Queued-but-undrained reorganization candidates across all Hermit
    /// indexes.
    pub fn reorg_queue_len(&self) -> usize {
        self.hermit_trees().map(|(trs, ..)| trs.reorg_queue_len()).sum()
    }

    /// Share of outlier-buffered tuples in a Hermit index on `col`
    /// (buffered / (buffered + modeled)); `None` when `col` carries no
    /// Hermit index. The churn metric the maintenance worker drives down.
    ///
    /// Both terms come from the tree itself: the denominator is the sum of
    /// the leaves' `covered` counters (model-covered *plus* buffered
    /// tuples), **not** the table's row count — rows with a NULL in the
    /// target or host column never enter the index, and the heap can hold
    /// multiple rows per key, so the two denominators diverge under churn.
    pub fn outlier_share(&self, col: ColumnId) -> Option<f64> {
        match self.index(col)? {
            SecondaryIndex::Hermit { trs, .. } => Some(trs.stats().outlier_share()),
            SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
        }
    }

    /// Every Hermit tree, single-column and composite, with the
    /// `(target, host)` columns its rebuild scans read.
    fn hermit_trees(&self) -> impl Iterator<Item = (&ConcurrentTrsTree, ColumnId, ColumnId)> {
        self.indexes.iter().filter_map(|(key, index)| match index {
            SecondaryIndex::Hermit { trs, host } => Some((trs, key.column, *host)),
            SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
        })
    }
}

/// Sleep of a [`MaintenanceWorker`] between sweeps when the queues were
/// empty (the first sleep after a sweep that made no progress; see
/// [`STALLED_SLEEP_CAP`]).
pub const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Most queued candidates a [`MaintenanceWorker`] drains per Hermit index
/// per sweep (the paper's "several candidate nodes in one scan").
pub const PASS_LIMIT: usize = 8;

/// Longest sleep of a [`MaintenanceWorker`] whose sweeps leave queued
/// reorganization candidates undone (a heap it cannot read): from
/// [`IDLE_SLEEP`] the sleep doubles per stalled sweep up to this, and any
/// progress — or an empty queue — resets it. It also bounds how long
/// [`MaintenanceWorker::stop`] waits on a stalled worker.
pub const STALLED_SLEEP_CAP: Duration = Duration::from_millis(128);

/// Options of the background maintenance worker. It has none: the worker
/// sleeps [`IDLE_SLEEP`] between idle sweeps and drains at most
/// [`PASS_LIMIT`] candidates per index per sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceConfig {}

/// Cumulative counters published by a [`MaintenanceWorker`].
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Sweeps executed (including empty ones).
    pub sweeps: AtomicU64,
    /// Reorganization candidates processed across all sweeps.
    pub candidates: AtomicU64,
}

/// The §4.4 background reorganization thread.
///
/// Runs [`Database::maintenance_pass`] in a loop until
/// [`stop`](Self::stop) is called (or the worker is dropped). Foreground
/// writers racing a pass follow the Appendix-B side-buffer protocol inside
/// [`hermit_trs::ConcurrentTrsTree`]; readers only block for the brief install step.
pub struct MaintenanceWorker {
    stop: Arc<AtomicBool>,
    stats: Arc<WorkerStats>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    /// Spawn the worker thread over a shared handle.
    pub fn start(db: SharedDatabase, _config: MaintenanceConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(WorkerStats::default());
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("hermit-maintenance".into())
            .spawn(move || {
                let mut sleep = IDLE_SLEEP;
                while !thread_stop.load(Ordering::Acquire) {
                    let processed = db.maintenance_pass(PASS_LIMIT);
                    thread_stats.sweeps.fetch_add(1, Ordering::Relaxed);
                    thread_stats.candidates.fetch_add(processed as u64, Ordering::Relaxed);
                    if processed > 0 {
                        sleep = IDLE_SLEEP;
                        continue;
                    }
                    std::thread::sleep(sleep);
                    // Queued work that a sweep could not do (its rebuild
                    // scans cannot read the heap) backs off: each stalled
                    // sweep doubles the sleep, up to the cap.
                    sleep = if db.reorg_queue_len() > 0 {
                        (sleep * 2).min(STALLED_SLEEP_CAP)
                    } else {
                        IDLE_SLEEP
                    };
                }
            })
            .expect("spawn maintenance worker");
        MaintenanceWorker { stop, stats, handle: Some(handle) }
    }

    /// Cumulative worker counters (shared with the running thread).
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// Signal the thread and join it, returning the final counters as
    /// `(sweeps, candidates)`. A pass that panicked panics here again, so
    /// a broken reorganization is never reported as ordinary counters.
    pub fn stop(mut self) -> (u64, u64) {
        if let Err(panic) = self.shutdown() {
            std::panic::resume_unwind(panic);
        }
        (self.stats.sweeps.load(Ordering::Relaxed), self.stats.candidates.load(Ordering::Relaxed))
    }

    fn shutdown(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Release);
        self.handle.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a destructor has nowhere to report a worker panic; `stop` re-raises it"
        )]
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RangePredicate;
    use crate::query::Query;
    use hermit_storage::{ColumnDef, Schema, TidScheme, Value};

    fn shared_db(n: usize) -> SharedDatabase {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
        ]);
        let mut db = Database::new(schema, 0, TidScheme::Physical);
        for i in 0..n {
            let m = i as f64;
            db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    #[should_panic(expected = "reorganization pass failed")]
    fn stop_re_raises_a_worker_panic() {
        let worker = MaintenanceWorker {
            stop: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(WorkerStats::default()),
            handle: Some(std::thread::spawn(|| panic!("reorganization pass failed"))),
        };
        worker.stop();
    }

    #[test]
    fn handle_serves_reads_and_writes() {
        let shared = shared_db(5_000);
        let r = shared.execute(&Query::new().range(2, 10.0, 19.0));
        assert_eq!(r.rows.len(), 10);
        shared.insert(&[Value::Int(9_999_999), Value::Float(1.0e7), Value::Float(10.5)]).unwrap();
        let r = shared.execute(&Query::new().range(2, 10.0, 19.0));
        assert_eq!(r.rows.len(), 11, "outlier insert visible through the handle");
        shared.delete_by_pk(15).unwrap();
        let r = shared.execute(&Query::new().range(2, 10.0, 19.0));
        assert_eq!(r.rows.len(), 10);
    }

    #[test]
    fn maintenance_pass_drains_queue() {
        let shared = shared_db(5_000);
        // Regime change in [2000, 3000]: the old rows leave, replacements
        // follow a different (but locally linear, hence modelable)
        // correlation. The inserts are outliers under the stale model and
        // trip the split trigger; a reorganization refits the region.
        for pk in 2_000..3_000i64 {
            shared.delete_by_pk(pk).unwrap();
        }
        for i in 0..4_000u64 {
            let m = 2_000.0 + i as f64 * 0.25;
            shared
                .insert(&[
                    Value::Int(1_000_000 + i as i64),
                    Value::Float(9.0 * m + 77.0),
                    Value::Float(m),
                ])
                .unwrap();
        }
        assert!(shared.reorg_queue_len() > 0, "regime shift must queue candidates");
        let before = shared.outlier_share(2).unwrap();
        assert!(before > 0.2, "the new regime should be buffered as outliers, got {before}");
        let processed = shared.maintenance_pass(16);
        assert!(processed > 0, "pass must process queued candidates");
        assert!(shared.reorg_passes() > 0);
        let after = shared.outlier_share(2).unwrap();
        assert!(after < before / 2.0, "reorg must shrink outlier share: {before} -> {after}");
        // New-regime tuples must remain findable (no false negatives).
        let r = shared.execute(&Query::filter(RangePredicate::range(2, 2_100.0, 2_110.0)));
        assert_eq!(r.rows.len(), 41, "rows in the refitted region lost");
    }

    #[test]
    fn worker_runs_and_stops() {
        let shared = shared_db(2_000);
        let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
        for i in 0..3_000u64 {
            shared
                .insert(&[Value::Int(500_000 + i as i64), Value::Float(9.0e9), Value::Float(777.0)])
                .unwrap();
        }
        // Give the worker a moment to drain, then stop it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while shared.reorg_queue_len() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let (sweeps, _candidates) = worker.stop();
        assert!(sweeps > 0);
        assert_eq!(shared.reorg_queue_len(), 0, "worker must drain the queue");
        assert!(shared.reorg_passes() > 0);
    }

    #[test]
    fn into_inner_round_trips() {
        let shared = shared_db(100);
        let clone = shared.clone();
        let back = shared.into_inner();
        assert!(back.is_err(), "outstanding clone must block unwrap");
        let shared = back.err().unwrap();
        drop(clone);
        let db = shared.into_inner().ok().expect("last handle unwraps");
        assert_eq!(db.len(), 100);
    }
}
