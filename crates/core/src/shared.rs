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
//! * [`SharedDatabase`] is a cheap cloneable handle (an `Arc` around
//!   [`Database`]) whose entire query surface — planner-driven
//!   [`Database::execute`] / [`Database::execute_batch`], all plan kinds —
//!   plus [`Database::insert`] / [`Database::delete_by_pk`] take `&self`.
//!   Every underlying structure is individually latched (see
//!   [`crate::database`] module docs for the latch map).
//! * [`MaintenanceWorker`] is the §4.4 background thread: it periodically
//!   drains each Hermit index's reorganization queue via
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
//! // Any number of threads may now clone `shared` and call
//! // `execute` / `insert` / `delete_by_pk` concurrently.
//! let r = shared.execute(&Query::new().range(2, 100.0, 199.0));
//! assert_eq!(r.rows.len(), 100);
//! worker.stop();
//! ```

use crate::database::{Database, TablePairSource};
use crate::index::SecondaryIndex;
use crate::query::Query;
use crate::{BatchOptions, QueryResult};
use hermit_storage::{ColumnId, Tid, Value};
use hermit_trs::ConcurrentTrsTree;
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
/// All methods take `&self`; clones share the same database. The handle
/// exposes the write path and maintenance hooks directly and everything
/// else through [`db`](Self::db) — the full `&self` query surface of
/// [`Database`] (`execute`, `execute_batch`, `plan`, `lookup_range`, …) is
/// available on the shared reference.
///
/// Structural DDL (`create_*_index`) takes `&mut Database`, so build the
/// schema and indexes *before* wrapping; [`into_inner`](Self::into_inner)
/// hands the database back once every clone is dropped.
pub struct SharedDatabase {
    inner: Arc<Database>,
}

impl Clone for SharedDatabase {
    fn clone(&self) -> Self {
        SharedDatabase { inner: Arc::clone(&self.inner) }
    }
}

impl SharedDatabase {
    /// Wrap a fully-built database for concurrent serving.
    pub fn new(db: Database) -> Self {
        SharedDatabase { inner: Arc::new(db) }
    }

    /// The shared database; every `&self` method (the whole query surface)
    /// is safe to call from any thread.
    pub fn db(&self) -> &Database {
        &self.inner
    }

    /// Plan and execute a query (a batch of one).
    pub fn execute(&self, query: &Query) -> QueryResult {
        self.inner.execute(query)
    }

    /// Plan and execute a batch of queries with one reused scratch.
    pub fn execute_batch(&self, queries: &[Query], opts: &BatchOptions) -> Vec<QueryResult> {
        self.inner.execute_batch(queries, opts)
    }

    /// Insert a row, maintaining every index (concurrent-writer safe).
    pub fn insert(&self, row: &[Value]) -> hermit_storage::Result<Tid> {
        self.inner.insert(row)
    }

    /// Delete a row by primary key, maintaining every index.
    pub fn delete_by_pk(&self, pk: i64) -> hermit_storage::Result<()> {
        self.inner.delete_by_pk(pk)
    }

    /// Open a multi-statement transaction (see [`crate::txn`]). The id is
    /// valid on any clone of this handle until committed or rolled back.
    pub fn begin(&self) -> Result<u64, crate::CoreError> {
        self.inner.begin()
    }

    /// Commit an open transaction: apply its deferred deletes, make its
    /// writes visible to snapshot readers, and force the WAL commit record
    /// durable (on durable databases).
    pub fn commit(&self, txn: u64) -> Result<(), crate::CoreError> {
        self.inner.commit_txn(txn)
    }

    /// Roll back an open transaction, restoring the exact pre-transaction
    /// state across the heap and every index.
    pub fn rollback(&self, txn: u64) -> Result<(), crate::CoreError> {
        self.inner.rollback_txn(txn)
    }

    /// Insert a row inside an open transaction (invisible to other readers
    /// until commit).
    pub fn insert_txn(&self, txn: u64, row: &[Value]) -> Result<Tid, crate::CoreError> {
        self.inner.insert_txn(txn, row)
    }

    /// Delete a row by primary key inside an open transaction (other
    /// readers keep seeing the row until commit).
    pub fn delete_by_pk_txn(&self, txn: u64, pk: i64) -> Result<(), crate::CoreError> {
        self.inner.delete_by_pk_txn(txn, pk)
    }

    /// Plan and execute a query reading *as* an open transaction: its own
    /// uncommitted writes are visible, its pending deletes are not.
    pub fn execute_for_txn(&self, query: &Query, txn: u64) -> QueryResult {
        self.inner.execute_for_txn(query, txn)
    }

    /// Cumulative transaction counters (begins/commits/aborts/conflicts)
    /// plus the active-transaction gauge, for the stats exporter.
    pub fn txn_counters(&self) -> hermit_txn::TxnCounters {
        self.inner.txn_counters()
    }

    /// Number of currently open transactions.
    pub fn txn_active(&self) -> usize {
        self.inner.txn_active()
    }

    /// Unwrap the handle, returning the database once this is the last
    /// clone (e.g. to run DDL); otherwise gives the handle back.
    pub fn into_inner(self) -> Result<Database, SharedDatabase> {
        Arc::try_unwrap(self.inner).map_err(|inner| SharedDatabase { inner })
    }

    /// Take a live checkpoint of a durable database (see
    /// [`crate::recovery`]): writers are quiesced for the duration via the
    /// durability latch — concurrent `insert`/`delete_by_pk` calls block
    /// briefly, readers and the background maintenance worker keep running.
    /// Typed [`crate::CoreError::NotDurable`] when the database was not
    /// opened/created through the durability API.
    pub fn checkpoint(&self) -> Result<(), crate::CoreError> {
        let dir = self
            .inner
            .durability_dir()
            .ok_or(crate::CoreError::NotDurable {
                reason: "database has no attached durability directory",
            })?
            .to_path_buf();
        self.inner.checkpoint(&dir)
    }

    /// Force the WAL commit boundary: every statement executed so far
    /// survives a crash. No-op for non-durable databases.
    pub fn wal_commit(&self) -> hermit_storage::Result<()> {
        self.inner.wal_commit()
    }

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
        let db = &*self.inner;
        hermit_trees(db)
            .filter(|(trs, ..)| trs.reorg_queue_len() > 0)
            .map(|(trs, target, host)| {
                trs.reorganize_pass(&TablePairSource { db, target, host }, limit)
            })
            .sum()
    }

    /// Total completed background reorganization passes across all Hermit
    /// indexes (the §4.4 observability counter).
    pub fn reorg_passes(&self) -> u64 {
        hermit_trees(&self.inner).map(|(trs, ..)| trs.reorg_passes()).sum()
    }

    /// Queued-but-undrained reorganization candidates across all Hermit
    /// indexes.
    pub fn reorg_queue_len(&self) -> usize {
        hermit_trees(&self.inner).map(|(trs, ..)| trs.reorg_queue_len()).sum()
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
    pub fn outlier_share(&self, col: hermit_storage::ColumnId) -> Option<f64> {
        match self.inner.index(col)? {
            SecondaryIndex::Hermit { trs, .. } => Some(trs.stats().outlier_share()),
            SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
        }
    }

    /// Buffer-pool `(hits, misses, evictions)`; always `Some`. See
    /// [`Database::pool_counters`].
    pub fn pool_counters(&self) -> Option<(u64, u64, u64)> {
        self.inner.pool_counters()
    }

    /// Not-yet-durable WAL tail depth; `None` for non-durable databases.
    /// See [`Database::wal_depth`].
    pub fn wal_depth(&self) -> Option<usize> {
        self.inner.wal_depth()
    }
}

/// Every Hermit tree of `db`, single-column and composite, with the
/// `(target, host)` columns its rebuild scans read.
fn hermit_trees(db: &Database) -> impl Iterator<Item = (&ConcurrentTrsTree, ColumnId, ColumnId)> {
    db.indexes.iter().filter_map(|(key, index)| match index {
        SecondaryIndex::Hermit { trs, host } => Some((trs, key.column, *host)),
        SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
    })
}

/// Longest sleep of a [`MaintenanceWorker`] whose sweeps leave queued
/// reorganization candidates undone (a heap it cannot read): from
/// `idle_sleep` the sleep doubles per stalled sweep up to this, and any
/// progress — or an empty queue — resets it. It also bounds how long
/// [`MaintenanceWorker::stop`] waits on a stalled worker.
pub const STALLED_SLEEP_CAP: Duration = Duration::from_millis(128);

/// Knobs for the background maintenance worker.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Sleep between sweeps when the queues were empty (the first sleep
    /// after a sweep that made no progress; see [`STALLED_SLEEP_CAP`]).
    pub idle_sleep: Duration,
    /// Maximum queued candidates drained per Hermit index per sweep (the
    /// paper's "several candidate nodes in one scan").
    pub pass_limit: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig { idle_sleep: Duration::from_millis(2), pass_limit: 8 }
    }
}

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
/// Runs [`SharedDatabase::maintenance_pass`] in a loop until
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
    pub fn start(db: SharedDatabase, config: MaintenanceConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(WorkerStats::default());
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("hermit-maintenance".into())
            .spawn(move || {
                let cap = STALLED_SLEEP_CAP.max(config.idle_sleep);
                let mut sleep = config.idle_sleep;
                while !thread_stop.load(Ordering::Acquire) {
                    let processed = db.maintenance_pass(config.pass_limit);
                    thread_stats.sweeps.fetch_add(1, Ordering::Relaxed);
                    thread_stats.candidates.fetch_add(processed as u64, Ordering::Relaxed);
                    if processed > 0 {
                        sleep = config.idle_sleep;
                        continue;
                    }
                    std::thread::sleep(sleep);
                    // Queued work that a sweep could not do (its rebuild
                    // scans cannot read the heap) backs off: each stalled
                    // sweep doubles the sleep, up to the cap.
                    sleep = if db.reorg_queue_len() > 0 {
                        (sleep * 2).min(cap)
                    } else {
                        config.idle_sleep
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
    use hermit_storage::{ColumnDef, Schema, TidScheme};

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
        let worker = MaintenanceWorker::start(
            shared.clone(),
            MaintenanceConfig { idle_sleep: Duration::from_micros(100), pass_limit: 4 },
        );
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
