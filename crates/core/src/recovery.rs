//! Checkpoint / recovery for the whole database — §7.8's disk-resident
//! regime made restart-survivable.
//!
//! The paper's disk experiment assumes tuples persist on storage while the
//! index structures live in memory: PostgreSQL owns heap durability, and §6
//! says the TRS-Tree either checkpoints like an in-memory index (relying on
//! write-ahead logging for the tail) or persists like a disk index. This
//! module supplies the RDBMS half of that contract for our paged substrate:
//!
//! * [`Database::checkpoint`] makes a durable cut: buffer pool flushed and
//!   fsynced, every Hermit index snapshotted (the existing TRS-Tree
//!   snapshot v2 format, now written with its own fsync + rename), and a
//!   versioned [`Catalog`] written atomically as the commit point.
//! * A CRC-framed logical WAL ([`hermit_storage::wal`]) captures DML after
//!   the checkpoint. The log is **forced at commit**: every auto-commit
//!   statement batch and every transaction commit is an fsync boundary
//!   ([`Database::wal_commit`] forces one early); records inside an open
//!   transaction are written, not fsynced. **WAL before data** makes that
//!   safe: the buffer pool forces the log before it writes a page back.
//! * [`Database::open`] reattaches: pages via [`FilePageStore::open`], the
//!   heap via `PagedTable::reopen` (live rows, `ColumnStats` and the
//!   primary index's runs recomputed by one scan), each baseline B+-tree
//!   rebuilt by a heap scan of its own, Hermit indexes restored from their
//!   epoch-named snapshots (or rebuilt from the heap when a snapshot is
//!   missing/torn), and the WAL replayed through the ordinary DML path —
//!   so every index is maintained by construction. A torn WAL tail is
//!   truncated, never an error.
//!
//! # Commit points and crash windows
//!
//! ```text
//!                 under the WAL guard          nothing held but quiesce
//!               ┌─────────────────────┐      ┌────────────────────────────┐
//! auto-commit:  apply · append · write ─────▶ wait_durable(pos) ─▶ ack
//! txn commit:   append TxnDelete…TxnCommit · write
//!                                      ─────▶ wait_durable(pos) ─▶ apply deferred
//!                                                                  deletes · publish ─▶ ack
//!                                             first arrival leads one fsync
//!                                             for everyone at or below it
//! ```
//!
//! * **A commit point is a position to wait on.** The log owes durability
//!   at commit points and nowhere else: an auto-commit statement is its own
//!   commit unit, forced once per `wal_sync_every` statements; a
//!   transaction's only durability point is its `TxnCommit` record, always
//!   forced, and the fsync that covers it covers every record the
//!   transaction wrote. At a commit point the statement appends and
//!   `write`s under the WAL guard, **releases the guard**, and parks in
//!   [`WalTail::wait_durable`] on the position it wrote
//!   (`Statement::commit_auto`, `Statement::force_commit`). Whoever
//!   finds no fsync in flight leads one `sync_data` covering everything
//!   written by then and wakes every waiter at or below it; the rest lead
//!   the next. So the guard is held across the apply and the `write` (tens
//!   of microseconds), never across the device: while one committer waits,
//!   others append — a statement inside a transaction, which owes no fsync,
//!   does not queue behind anyone's — and committers that pile up behind
//!   one fsync share the next. The waiter keeps the quiesce latch, so a
//!   checkpoint cannot reset the log under it (and positions are monotone
//!   across generations: one from an abandoned generation is durable the
//!   moment anyone looks).
//! * **A transaction commits log → wait → apply + publish.** The deferred
//!   deletes are logged with the commit record, not applied with it: their
//!   pks are locked by the transaction, so nobody can write them before the
//!   apply. The wait holds neither the guard nor the transaction manager's
//!   visibility latch; only afterwards does [`Database::commit`] take the
//!   visibility latch (exclusive) to apply the deletes and release the
//!   locks in one step. Readers therefore never stall for an fsync, and
//!   still see a commit whole or not at all.
//! * **Nobody is acknowledged by a failed fsync.** An error goes to the
//!   leader *and* to every follower parked at or below the leader's target;
//!   each of them poisons the WAL (see below). A transaction commit that
//!   fails here has applied nothing: it parks its deferred deletes again and
//!   leaves the transaction open with a sound undo list.
//! * `TxnBegin`, `TxnInsert`, `TxnDelete` and `TxnAbort` are appended and
//!   handed to the file with one `write` *before* the change they describe
//!   is applied, in every `wal_sync_every` mode, and never fsync on their
//!   own.
//! * **The fsync moves no file size.** The log file is kept `set_len`-
//!   extended 1 MiB past the log, so `write` + `fdatasync` commit no inode
//!   change, and a concurrent `write` does not stall behind the other
//!   committer's journal commit (on ext4 that stall is why releasing the
//!   guard alone bought almost nothing). The reserve reads as zeros;
//!   recovery treats an all-zero remainder as a clean end and anything else
//!   after the last good frame as a tear. A checkpoint's reset truncates to
//!   the bare header.
//! * Crash before a commit point: auto-commit statements since the last
//!   force are lost (bounded by `wal_sync_every`) and a transaction whose
//!   commit record was not forced recovers as a loser; everything earlier
//!   replays. Crash between a transaction's durable commit record and the
//!   apply of its deferred deletes: recovery redoes the `TxnDelete` records
//!   — the same state the apply would have produced.
//! * **WAL before data.** The buffer pool *steals*: evictions (and the
//!   pool's drop-flush) may push post-checkpoint page states to the file at
//!   any time. Before it writes a dirty page back, the pool makes the log
//!   durable up to everything handed to its file
//!   ([`WalTail::make_durable`]). A transaction's change is applied only
//!   after its record is in the file, so no page carrying an uncommitted
//!   change reaches the device ahead of the record recovery needs to undo
//!   it. The fsync the in-transaction records no longer pay eagerly is paid
//!   here, and only when a dirty page actually leaves while the log has
//!   unsynced records: two atomic loads otherwise. The barrier joins the
//!   same fsync rounds as the commit points — one function fsyncs the log.
//! * Recovery replays the WAL **idempotently** — per primary key the log
//!   alternates insert/delete, so applying each record only when the
//!   recovered heap does not already reflect it converges on the logged
//!   final state no matter how far the pages ran ahead — and then undoes
//!   the losers (see [`crate::txn`]).
//! * Phantom durability is left for auto-commit statements only. They are
//!   logged *after* they are applied (a redo-only record of a complete
//!   statement), so one whose record was still buffered at the crash
//!   survives if its page happened to be written back. That is a complete,
//!   never-acknowledged-as-durable statement outliving the crash; nothing
//!   needs undoing.
//! * During checkpoint: the catalog rename is the atomic commit point.
//!   Before it, recovery sees the old catalog + old-epoch WAL and recovers
//!   the pre-checkpoint state; after it, the new catalog ignores the
//!   old-epoch WAL (its effects are inside the checkpoint) — the epoch
//!   fence is what makes "rename, then reset WAL" safe.
//! * **Recovery does not leak pages.** Pages allocated after the checkpoint
//!   sit behind the catalog's watermark, and the catalog lists none of
//!   them. [`Database::open`] sets the store's watermark to exactly the
//!   catalog's and truncates `pages.db` there: what those pages held is
//!   regenerated from the WAL into freshly allocated ones.
//! * A page write that never reached the device despite the catalog
//!   claiming it (a lying device / dropped write) is detected on open by
//!   the catalog's per-page live counts **and content CRCs** whenever the
//!   WAL shows no post-checkpoint DML — no frame at all: the first
//!   statement of a generation hands a marker frame to the log file before
//!   it applies, so a page that legitimately ran ahead always has one beside
//!   it, even while the statements it carries sit in the writer's buffer —
//!   and reported as
//!   [`CoreError::Recovery`] rather than silently serving stale rows. (With
//!   post-checkpoint DML in the log, legitimate run-ahead pages are
//!   indistinguishable from dropped writes at page granularity, so the
//!   check stands down and idempotent replay carries correctness.)
//!
//! # What is covered, and what is not
//!
//! Covered: durability of auto-commit insert/delete and of multi-statement
//! transactions (redo, then undo of losers — [`crate::txn`]) on the paged
//! substrate, index reconstruction (primary, baseline, Hermit — on one
//! column or, behind a leading column, on two — and `ColumnStats`),
//! torn-tail WAL recovery, torn-checkpoint detection. A composite index is a
//! registry entry like any other: the catalog lists each definition with
//! its leading column, and a composite Hermit index snapshots under a name
//! that carries it (`snapshot_name`), so the checkpoint's stale-snapshot
//! sweep covers it too. A version-1 catalog, written before composites were
//! catalogued, still opens.
//! Not covered: DDL logging (index definitions become durable at the next
//! checkpoint, not through the WAL). An in-memory database — its pages in
//! a store with no file — is rejected with a typed [`CoreError::NotDurable`].
//!
//! Durable databases assume **unique primary keys** (the same assumption
//! `delete_by_pk` and the primary index already make): idempotent replay
//! and the recovery-time ghost-row sweep both key on the pk. If a WAL
//! append or a post-catalog WAL reset fails, the WAL is *poisoned* —
//! subsequent DML and `wal_commit` calls are rejected up front rather than
//! silently accepting statements that could never be recovered; a
//! successful checkpoint clears the condition.

use crate::database::Database;
use crate::error::CoreError;
use crate::index::{IndexKey, SecondaryIndex};
use crate::latches::{
    self, Held, IoSafe, LatchedMutex, LatchedRwLock, Quiesce, ReadGuard, Unlocked, WalGuard,
    Witnessed,
};
use hermit_btree::HashPrimaryIndex;
use hermit_storage::paged::{BufferPool, FilePageStore, PageStore, PagedTable};
use hermit_storage::recovery::{write_file_atomic, BaselineDef, Catalog, HermitDef, PageEntry};
use hermit_storage::wal::{read_wal, WalRecord, WalTail, WalWriter};
use hermit_storage::{ColumnId, RowLoc, Schema, StorageError, Tid, TidScheme, Value};
use hermit_trs::{ConcurrentTrsTree, TrsParams, TrsTree};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File holding the heap pages inside a durability directory.
pub const PAGES_FILE: &str = "pages.db";
/// File holding the checkpoint catalog.
pub const CATALOG_FILE: &str = "catalog.bin";
/// File holding the write-ahead log.
pub const WAL_FILE: &str = "wal.log";

/// Name of the snapshot of the Hermit index at `key` inside the directory:
/// `trs_{target}.e{epoch}.trst`, or `trs_{leading}-{target}.e{epoch}.trst`
/// for a composite. Epoch-suffixed so a snapshot can never be paired with
/// the wrong catalog (a crash between "snapshot written" and "catalog
/// renamed" leaves a file the old catalog simply does not reference), and
/// `trs_`-prefixed so the checkpoint's stale-snapshot sweep finds it.
pub(crate) fn snapshot_name(key: IndexKey, epoch: u64) -> String {
    match key.leading {
        None => format!("trs_{}.e{epoch}.trst", key.column),
        Some(leading) => format!("trs_{leading}-{}.e{epoch}.trst", key.column),
    }
}

/// Knobs for opening / creating a durable database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Buffer-pool shards (clamped to `pool_pages`: every shard needs a
    /// frame). Hits on pages of different shards do not share a lock, which
    /// is what lets connections reading a cached working set run side by
    /// side; one shard gives fully deterministic clock replacement instead.
    pub pool_shards: usize,
    /// Commit batch of auto-commit statements: the WAL fsyncs once this
    /// many records are pending (1 = every auto-commit statement and every
    /// commit durable before it is acknowledged). A transaction commit
    /// always fsyncs, whatever the batch; the statements *inside* a
    /// transaction never do on their own — their durability point is the
    /// commit. [`Database::wal_commit`] forces the boundary early.
    pub wal_sync_every: usize,
}

impl DurabilityConfig {
    /// The buffer pool this configuration describes, over `store`.
    fn open_pool(&self, store: Arc<dyn PageStore>) -> Arc<BufferPool> {
        let shards = self.pool_shards.min(self.pool_pages);
        Arc::new(BufferPool::new_sharded(store, self.pool_pages, shards))
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { pool_pages: 1024, pool_shards: 16, wal_sync_every: 64 }
    }
}

/// Live durability state attached to a [`Database`].
pub(crate) struct Durability {
    dir: PathBuf,
    /// Checkpoint quiescence: DML holds the read side across heap apply +
    /// WAL append + the commit wait; `checkpoint` holds the write side
    /// across flush → snapshots → catalog → WAL reset, so the cut it takes
    /// is statement-atomic.
    quiesce: LatchedRwLock<Quiesce, ()>,
    wal: LatchedMutex<WalGuard, WalWriter>,
    /// The writer's shared tail, kept beside the guard so the metrics
    /// exporter reads positions and counters without taking it.
    tail: Arc<WalTail>,
    /// Epoch of the current catalog/WAL pairing.
    epoch: AtomicU64,
    sync_every: usize,
    /// Raised when the WAL can no longer accept records (an append/fsync
    /// failed, or a checkpoint committed its catalog but could not reset
    /// the log). While poisoned, every DML statement and `wal_commit` is
    /// rejected up front — silently continuing would let statements report
    /// success and then vanish at recovery. A successful checkpoint clears
    /// it (the new catalog captures the heap, and a fresh WAL takes over).
    wal_poisoned: AtomicBool,
}

fn wal_err(e: hermit_storage::RecoveryError) -> StorageError {
    StorageError::Io(format!("wal append failed: {e}"))
}

impl Durability {
    /// Reject DML up front while the WAL is poisoned (checked *before* the
    /// heap apply, so a rejected statement really did nothing).
    pub(crate) fn check_writable(&self) -> hermit_storage::Result<()> {
        if self.wal_poisoned.load(Ordering::Acquire) {
            return Err(StorageError::Io(
                "durability WAL is unavailable after a failed append or checkpoint; \
                 take a checkpoint to restore logging"
                    .into(),
            ));
        }
        Ok(())
    }

    /// WAL records appended since the last commit-batch fsync; takes the
    /// WAL guard briefly.
    pub(crate) fn wal_depth(&self) -> usize {
        self.wal.lock_at(&mut Held::unlocked()).uncommitted()
    }

    /// Bracket one durable statement: the quiesce latch (shared side), then
    /// the per-statement WAL guard. DML holds the guard across heap-apply
    /// **and** append: without that, two threads racing on the same pk
    /// could apply in one order and log in the other, and replay would
    /// reconstruct a state contradicting acknowledged statements. Durable
    /// DML is therefore serialized per database — the honest cost of a
    /// single serial redo log — but only across the apply and the `write`:
    /// the guard is released before the statement waits for its fsync (see
    /// [`Statement`]). `checkpoint` takes the same two latches in the same
    /// order, so the two cannot deadlock. No poison check — rollback must
    /// get through.
    pub(crate) fn statement_unchecked<'a>(&'a self, root: &'a mut Held<Unlocked>) -> Statement<'a> {
        let mut quiesce = self.quiesce.read_at(root);
        let (wal, held) = self.wal.lock_at(quiesce.held()).detach();
        Statement { log: Log { d: self, wal, quiesce }, held }
    }

    /// [`statement_unchecked`](Self::statement_unchecked) behind
    /// [`check_writable`](Self::check_writable). The first statement of a
    /// log generation also marks the log file
    /// ([`WalWriter::mark_generation`]) before it applies anything; if that
    /// fails, the statement is rejected and the WAL poisoned.
    pub(crate) fn statement<'a>(
        &'a self,
        root: &'a mut Held<Unlocked>,
    ) -> hermit_storage::Result<Statement<'a>> {
        self.check_writable()?;
        let mut statement = self.statement_unchecked(root);
        statement.log.wal.mark_generation().map_err(|e| {
            self.poison();
            wal_err(e)
        })?;
        Ok(statement)
    }

    /// The commit wait (see [`WalTail::wait_durable`]): park until the log
    /// is durable up to `pos`. The token proves the caller holds nothing
    /// acquired under the quiesce latch — debug builds check that against
    /// the latch witness too — so other statements append, and readers
    /// read, while this one waits. The quiesce latch stays, so a
    /// checkpoint's `reset` can never run under a parked waiter. Does not
    /// poison; the caller decides what a failure means.
    fn wait_durable(&self, pos: u64, _quiesce: &Held<Quiesce>) -> hermit_storage::Result<()> {
        latches::assert_holding_at_most(10, "the commit wait");
        self.tail.wait_durable(pos).map_err(|e| wal_err(e.into()))
    }

    /// A commit point outside any statement (`wal_commit`, a checkpoint's
    /// drain): write what is buffered under the guard, wait for it without.
    /// Does not poison — the caller decides what a failure means.
    fn force_log(&self, quiesce: &mut Held<Quiesce>) -> hermit_storage::Result<()> {
        let pos = self.wal.lock_at(quiesce).commit_point().map_err(wal_err)?;
        self.wait_durable(pos, quiesce)
    }

    /// Mark the log unusable until the next successful checkpoint.
    pub(crate) fn poison(&self) {
        self.wal_poisoned.store(true, Ordering::Release);
    }

    /// Poison the WAL on an append/fsync failure and report the split
    /// state honestly: the write is applied in memory but unlogged, so it
    /// becomes durable only at the next successful checkpoint.
    fn absorb_log_failure<T>(
        &self,
        result: hermit_storage::Result<T>,
    ) -> hermit_storage::Result<T> {
        result.map_err(|e| {
            self.poison();
            StorageError::Io(format!(
                "statement applied in memory but could not be logged ({e}); it becomes \
                 durable only at the next successful checkpoint, and further DML is \
                 rejected until then"
            ))
        })
    }
}

/// A DML statement's hold on the database: a durable database's
/// [`Statement`], or on any other the root token alone.
pub(crate) enum Bracket<'a> {
    Logged(Statement<'a>),
    Unlogged(&'a mut Held<Unlocked>),
}

impl<'a> Bracket<'a> {
    /// The statement's log (none on a non-durable database) and the token
    /// its apply step runs under.
    pub(crate) fn split(&mut self) -> (Option<&mut Log<'a>>, &mut Held<WalGuard>) {
        match self {
            Bracket::Logged(statement) => {
                let (log, held) = statement.split();
                (Some(log), held)
            }
            Bracket::Unlogged(root) => (None, root.weaken()),
        }
    }

    /// The token the apply step runs under.
    pub(crate) fn held(&mut self) -> &mut Held<WalGuard> {
        self.split().1
    }
}

/// One durable statement's hold on the log: the quiesce latch (shared) and
/// the WAL guard, taken by [`Durability::statement`] before the first heap
/// mutation, plus the WAL guard's token for the apply step.
///
/// The methods that end a commit unit — [`commit_auto`](Self::commit_auto),
/// [`commit_staged`](Self::commit_staged) and
/// [`force_commit`](Self::force_commit) — consume the statement: they
/// append and `write` under the guard, **drop the guard**, and only then
/// wait for the fsync. They cannot be called while a latch acquired with
/// the statement's token is held, and a statement cannot wait on the device
/// while another one needs the guard; the types leave no way to write
/// either.
pub(crate) struct Statement<'a> {
    log: Log<'a>,
    held: Held<WalGuard>,
}

/// The log half of a [`Statement`]: its WAL writer under the guard. Every
/// method that reaches the file takes an [`IoSafe`] token, so none runs
/// while a data latch is held.
pub(crate) struct Log<'a> {
    d: &'a Durability,
    wal: Witnessed<parking_lot::MutexGuard<'a, WalWriter>>,
    quiesce: ReadGuard<'a, 'a, Quiesce, ()>,
}

impl<'a> Statement<'a> {
    /// The log and the apply step's token, apart: a latch acquired with the
    /// token may be held while the log `write`s under an [`IoSafe`] rank.
    pub(crate) fn split(&mut self) -> (&mut Log<'a>, &mut Held<WalGuard>) {
        (&mut self.log, &mut self.held)
    }

    /// Log an applied auto-commit statement (log-last: the WAL is a redo log
    /// of *applied* statements) — its own commit unit. When the commit batch
    /// (`wal_sync_every`) fills, the batch is written, the guard released,
    /// and the statement waits for the fsync that covers it.
    pub(crate) fn commit_auto(self, rec: &WalRecord) -> hermit_storage::Result<()> {
        self.commit_with(|wal| wal.append(rec))
    }

    /// [`commit_auto`](Self::commit_auto) for the staged `Insert` record.
    pub(crate) fn commit_staged(self) -> hermit_storage::Result<()> {
        self.commit_with(WalWriter::append_staged)
    }

    fn commit_with(
        self,
        append: impl FnOnce(&mut WalWriter) -> Result<usize, hermit_storage::RecoveryError>,
    ) -> hermit_storage::Result<()> {
        let Log { d, mut wal, quiesce } = self.log;
        let owed = append(&mut wal).map_err(wal_err).and_then(|pending| {
            if pending >= d.sync_every {
                wal.commit_point().map(Some).map_err(wal_err)
            } else {
                Ok(None)
            }
        });
        drop(wal);
        match d.absorb_log_failure(owed)? {
            Some(pos) => d.absorb_log_failure(d.wait_durable(pos, quiesce.token())),
            None => Ok(()),
        }
    }

    /// Append the `TxnCommit` record for `txn`, write it, release the guard
    /// and **wait until it is durable**, regardless of the commit batch: a
    /// positive commit acknowledgement must survive a crash, and the fsync
    /// that covers the record covers everything the transaction wrote.
    /// Routed through [`WalWriter::append_txn_commit`] so the
    /// `wal.txn_commit` fault site fires. Hands back the quiesce latch,
    /// which the caller keeps while it publishes the commit.
    pub(crate) fn force_commit(
        self,
        txn: u64,
    ) -> hermit_storage::Result<ReadGuard<'a, 'a, Quiesce, ()>> {
        let Log { d, mut wal, quiesce } = self.log;
        let owed = wal
            .append_txn_commit(txn)
            .map_err(wal_err)
            .and_then(|_| wal.commit_point().map_err(wal_err));
        drop(wal);
        let pos = d.absorb_log_failure(owed)?;
        d.absorb_log_failure(d.wait_durable(pos, quiesce.token()))?;
        Ok(quiesce)
    }
}

impl Log<'_> {
    /// Encode an inserted row once, as the cells of its log record —
    /// [`WalRecord::Insert`], or [`WalRecord::TxnInsert`] of `txn` — staged
    /// in the WAL writer's frame buffer ([`WalWriter::stage_insert`]).
    /// `encode` writes the cells and rejects a row that does not fit the
    /// schema, before anything is applied or logged. The heap stores
    /// [`staged_cells`](Self::staged_cells);
    /// [`Statement::commit_staged`] or [`log_staged`](Self::log_staged)
    /// logs them.
    pub(crate) fn stage_insert(
        &mut self,
        txn: Option<u64>,
        width: usize,
        encode: impl FnOnce(&mut Vec<u8>) -> hermit_storage::Result<()>,
    ) -> hermit_storage::Result<()> {
        self.wal.stage_insert(txn, width, encode)
    }

    /// The cells [`stage_insert`](Self::stage_insert) encoded.
    pub(crate) fn staged_cells(&self) -> &[u8] {
        self.wal.staged_cells()
    }

    /// Append a record of an open transaction (`TxnBegin`, `TxnDelete`) and
    /// hand it to the file, **before** the change it describes is applied
    /// (see [`crate::txn`]). Never an fsync: nothing is owed for the record
    /// until its transaction's commit record is forced, and if a page
    /// carrying the change is written back first, the buffer pool's barrier
    /// forces the log up to here ([`WalTail::make_durable`]).
    pub(crate) fn log_txn(
        &mut self,
        rec: &WalRecord,
        io: &Held<impl IoSafe>,
    ) -> hermit_storage::Result<()> {
        self.log_with(|wal| wal.append(rec), io)
    }

    /// [`log_txn`](Self::log_txn) for the staged `TxnInsert` record.
    pub(crate) fn log_staged(&mut self, io: &Held<impl IoSafe>) -> hermit_storage::Result<()> {
        self.log_with(WalWriter::append_staged, io)
    }

    fn log_with(
        &mut self,
        append: impl FnOnce(&mut WalWriter) -> Result<usize, hermit_storage::RecoveryError>,
        _io: &Held<impl IoSafe>,
    ) -> hermit_storage::Result<()> {
        let wal = &mut *self.wal;
        let result = append(wal).map_err(wal_err).and_then(|_| wal.flush().map_err(wal_err));
        self.d.absorb_log_failure(result)
    }

    /// Append the `TxnAbort` record for `txn` and hand it to the file, like
    /// any other record of the transaction: abort durability is an
    /// optimization, not a correctness requirement (recovery rolls losers
    /// back without it). Routed through [`WalWriter::append_txn_abort`] so
    /// the `wal.txn_abort` fault site fires. Behind a poisoned WAL there is
    /// nothing to append to, and nothing is lost by not trying.
    pub(crate) fn log_txn_abort(
        &mut self,
        txn: u64,
        io: &Held<impl IoSafe>,
    ) -> hermit_storage::Result<()> {
        if self.d.check_writable().is_err() {
            return Ok(());
        }
        self.log_with(|wal| wal.append_txn_abort(txn), io)
    }
}

impl Database {
    /// Open one DML statement from `root`: on a durable database the
    /// quiesce latch and the WAL guard ([`Durability::statement`], which
    /// refuses a poisoned WAL), on any other nothing.
    pub(crate) fn bracket<'a>(
        &'a self,
        root: &'a mut Held<Unlocked>,
    ) -> hermit_storage::Result<Bracket<'a>> {
        Ok(match &self.durability {
            Some(d) => Bracket::Logged(d.statement(root)?),
            None => Bracket::Unlogged(root),
        })
    }

    /// [`bracket`](Self::bracket) without the poison check — rollback must
    /// get through.
    pub(crate) fn bracket_unchecked<'a>(&'a self, root: &'a mut Held<Unlocked>) -> Bracket<'a> {
        match &self.durability {
            Some(d) => Bracket::Logged(d.statement_unchecked(root)),
            None => Bracket::Unlogged(root),
        }
    }
}

impl Database {
    /// Create a restart-survivable paged database rooted at `dir`
    /// (`pages.db`, `catalog.bin`, `wal.log`, and one snapshot per Hermit
    /// index live inside it). Fails if `dir` already holds a non-empty page
    /// file — use [`open`](Database::open) to reattach.
    ///
    /// The returned database is already checkpointed (empty), so a crash at
    /// any later point recovers at least the empty table.
    pub fn create_durable(
        schema: Schema,
        pk_col: ColumnId,
        dir: &Path,
        config: &DurabilityConfig,
    ) -> Result<Database, CoreError> {
        std::fs::create_dir_all(dir).map_err(StorageError::from)?;
        let store = Arc::new(FilePageStore::create(&dir.join(PAGES_FILE))?);
        let table = PagedTable::new(schema, config.open_pool(store));
        let mut db = Database::new_paged(table, pk_col);
        db.attach_durability(dir, WalWriter::create(&dir.join(WAL_FILE), 0)?, config);
        db.checkpoint(dir)?;
        Ok(db)
    }

    /// Start logging into `writer` and put the buffer pool's write-backs
    /// behind that log.
    fn attach_durability(&mut self, dir: &Path, writer: WalWriter, config: &DurabilityConfig) {
        self.heap.pool().attach_wal(Arc::clone(writer.tail()));
        self.durability = Some(Durability {
            dir: dir.to_path_buf(),
            quiesce: LatchedRwLock::new(()),
            tail: Arc::clone(writer.tail()),
            epoch: AtomicU64::new(writer.epoch()),
            wal: LatchedMutex::new(writer),
            sync_every: config.wal_sync_every.max(1),
            wal_poisoned: AtomicBool::new(false),
        });
    }

    /// The log's end-of-log positions and counters (records, fsyncs, fsyncs
    /// forced by page write-back); `None` for non-durable databases. Reading
    /// them takes no latch.
    pub fn wal_tail(&self) -> Option<&Arc<WalTail>> {
        self.durability.as_ref().map(|d| &d.tail)
    }

    /// The durability directory this database checkpoints into, if any.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Force the WAL commit-batch boundary: everything appended so far is
    /// fsynced and will survive a crash. No-op for non-durable databases.
    /// A commit point like any other: written under the guard, waited for
    /// without it.
    pub fn wal_commit(&self) -> hermit_storage::Result<()> {
        if let Some(d) = &self.durability {
            d.check_writable()?;
            let mut root = Held::unlocked();
            d.force_log(d.quiesce.read_at(&mut root).held())?;
        }
        Ok(())
    }

    /// Take a durable checkpoint of the whole database into `dir`.
    ///
    /// Requires an attached durability directory `dir` (from
    /// [`create_durable`](Database::create_durable) or
    /// [`open`](Database::open)) and a heap over a [`FilePageStore`] at
    /// `dir/pages.db`: typed [`CoreError::NotDurable`] otherwise. Writers
    /// are quiesced for the duration — the §4.4 background reorganization
    /// worker may keep running, since reorganization never changes index
    /// *membership*. Sequence (each step durable before the next):
    ///
    /// 1. flush + fsync the buffer pool (heap pages), and drain the old
    ///    WAL writer's buffer into the old generation (a failure here
    ///    aborts the checkpoint with the previous catalog + WAL intact);
    /// 2. snapshot every Hermit index to `trs_<col>.e<epoch>.trst`
    ///    (atomic: temp + fsync + rename);
    /// 3. atomically write the catalog naming the new epoch — **the commit
    ///    point**;
    /// 4. reset the WAL to the new epoch (a crash in between is benign: the
    ///    stale WAL's epoch no longer matches and is ignored on open; a
    ///    *failure* of the reset itself poisons the WAL so later DML fails
    ///    loudly instead of logging into a generation recovery ignores);
    /// 5. garbage-collect snapshots and temp files of other epochs.
    pub fn checkpoint(&self, dir: &Path) -> Result<(), CoreError> {
        let table = &self.heap;
        let Some(d) = &self.durability else {
            return Err(CoreError::NotDurable {
                reason: "database has no attached durability directory",
            });
        };
        if d.dir != dir {
            return Err(CoreError::NotDurable {
                reason: "checkpoint directory does not match the attached durability directory",
            });
        }
        let pages_path = dir.join(PAGES_FILE);
        if table.pool().store().file_path() != Some(pages_path.as_path()) {
            return Err(CoreError::NotDurable {
                reason: "page store is not file-backed at <dir>/pages.db",
            });
        }

        let mut root = Held::unlocked();
        let mut quiesce = d.quiesce.write_at(&mut root);

        // Open transactions hold physically-applied-but-uncommitted writes;
        // a checkpoint would bake them into the new epoch and then discard
        // the old-epoch WAL records recovery needs to roll them back
        // (phantom commit). Refuse instead. Checked under the quiesce write
        // latch: `begin` on a durable database holds the read side, so no
        // new transaction can slip in after this check.
        let active = self.txns.active();
        if active > 0 {
            return Err(CoreError::OpenTransactions { active });
        }
        table.pool().flush()?;

        // Drain the old writer's buffer into the *old* generation before
        // anything commits: its records will be inside this checkpoint, so
        // the flush is harmless — but letting the old BufWriter drop-flush
        // *after* the later truncate would smuggle stale frames (with
        // valid CRCs!) into the new epoch's log, and recovery would
        // re-apply statements the checkpoint already contains. Doing it
        // before the catalog write means a failure aborts cleanly, old
        // catalog + old WAL still consistent. Skipped while poisoned (the
        // writer is known broken; the heap state being checkpointed is the
        // truth, and a successful reset below un-poisons).
        if !d.wal_poisoned.load(Ordering::Acquire) {
            d.force_log(quiesce.held())?;
        }

        let epoch = d.epoch.load(Ordering::Acquire) + 1;

        let mut baselines = Vec::new();
        let mut hermits = Vec::new();
        for (&key, index) in &self.indexes {
            let IndexKey { leading, column } = key;
            match index {
                SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => baselines
                    .push(BaselineDef { leading, column, existing: self.existing.contains(&key) }),
                SecondaryIndex::Hermit { trs, host } => {
                    let bytes = trs.snapshot_bytes().map_err(|e| {
                        CoreError::Recovery(format!("snapshot of index {key:?}: {e}"))
                    })?;
                    write_file_atomic(&dir.join(snapshot_name(key, epoch)), &bytes)
                        .map_err(StorageError::from)?;
                    hermits.push(HermitDef {
                        leading,
                        target: column,
                        host: *host,
                        params: trs.params().to_bytes(),
                    });
                }
            }
        }

        let pages = table.pages();
        let observed = table.page_checkpoint_entries()?;
        let catalog = Catalog {
            schema: table.schema().clone(),
            pk_col: self.pk_col,
            scheme: self.scheme,
            wal_epoch: epoch,
            next_page: table.pool().store().page_count(),
            pages: pages
                .into_iter()
                .zip(observed)
                .map(|(page, (live_rows, crc))| PageEntry { page, live_rows, crc })
                .collect(),
            baselines,
            hermits,
        };
        catalog.write_atomic(&dir.join(CATALOG_FILE))?;

        // The catalog is committed; the old-epoch WAL is now dead weight
        // (its records are inside the checkpoint). If the reset fails, the
        // live writer would keep logging into a generation recovery
        // ignores — poison instead, so every later statement is rejected
        // before it applies. `reset` drops whatever a poisoned writer still
        // buffers; flushed, those frames would land in the new generation.
        match d.wal.lock_at(quiesce.held()).reset(epoch) {
            Ok(()) => {
                d.epoch.store(epoch, Ordering::Release);
                d.wal_poisoned.store(false, Ordering::Release);
            }
            Err(e) => {
                d.wal_poisoned.store(true, Ordering::Release);
                return Err(CoreError::Recovery(format!(
                    "checkpoint committed (epoch {epoch}) but the WAL could not be \
                     reset ({e}); DML is rejected until a checkpoint succeeds"
                )));
            }
        }

        // GC snapshot files from other epochs and orphaned temp siblings
        // (both are torn-checkpoint leftovers the current catalog never
        // references).
        if let Ok(entries) = std::fs::read_dir(dir) {
            let keep = format!(".e{epoch}.trst");
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stale_snapshot = name.ends_with(".trst") && !name.ends_with(&keep);
                if name.starts_with("trs_") && (stale_snapshot || name.ends_with(".tmp")) {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "best-effort: the catalog never references these files, and the next open retries"
                    )]
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Reopen a checkpointed database from `dir`, replaying any WAL tail.
    /// See the module docs for the recovery sequence and guarantees.
    pub fn open(dir: &Path, config: &DurabilityConfig) -> Result<Database, CoreError> {
        let store = Arc::new(FilePageStore::open(&dir.join(PAGES_FILE))?);
        Self::open_with_store(dir, store, config)
    }

    /// [`open`](Database::open) with an injected page store (recovery tests
    /// substitute fault-injecting stores). The store must present the same
    /// pages `dir/pages.db` holds; its allocation watermark is set to the
    /// catalog's via [`PageStore::reset_watermark`].
    pub fn open_with_store(
        dir: &Path,
        store: Arc<dyn PageStore>,
        config: &DurabilityConfig,
    ) -> Result<Database, CoreError> {
        let catalog = Catalog::read(&dir.join(CATALOG_FILE))?;
        // Pages behind the catalog's watermark were allocated after the
        // checkpoint: the catalog lists none of them, so the heap cannot
        // reach them, and every row they held is in the WAL or was never
        // acknowledged. Give them back, or each crash leaks them.
        store.reset_watermark(catalog.next_page)?;
        let pool = config.open_pool(store);
        let page_ids: Vec<u64> = catalog.pages.iter().map(|e| e.page).collect();
        // The primary index comes from the heap scan that reopens the table.
        // Because the pool steals at page granularity, a lost delete
        // tombstone (page never flushed) can coexist with a flushed
        // re-insert of the same pk: two live heap rows for one key. The
        // later one (pages scan in insert order) is the newer version; the
        // earlier is a ghost whose tombstone the crash ate, and inserting
        // the newer one returns it. It is deleted below, before any index
        // is built, or replay's per-pk idempotence would leave it live.
        let mut primary = HashPrimaryIndex::with_runs(PagedTable::slots_per_page(&catalog.schema));
        let mut ghosts: Vec<RowLoc> = Vec::new();
        let (table, observed) =
            PagedTable::reopen(catalog.schema.clone(), pool, page_ids, |loc, row| {
                let pk = row.value(catalog.pk_col).as_i64().unwrap_or(0);
                if let Some(old) = primary.insert(pk, loc) {
                    ghosts.push(old);
                }
            })?;

        // A stale-epoch WAL predates the catalog (its effects are inside
        // the checkpoint) and is safe to reset. So is a missing or
        // header-torn one: only a crash between catalog rename and WAL
        // reset produces those, and the pre-reset content was already
        // inside the checkpoint. A *real* I/O error must propagate —
        // falling through to the reset would truncate a possibly-valid
        // committed log.
        let wal_path = dir.join(WAL_FILE);
        use hermit_storage::RecoveryError;
        let replay = match read_wal(&wal_path) {
            Ok(r) if r.epoch == catalog.wal_epoch => Some(r),
            Ok(_) => None,
            Err(RecoveryError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(RecoveryError::BadMagic) | Err(RecoveryError::Corrupt(_)) => None,
            Err(e) => {
                return Err(CoreError::Recovery(format!(
                    "cannot read the WAL at {}: {e}",
                    wal_path.display()
                )))
            }
        };

        // Torn-checkpoint detection. The durable pages may legitimately run
        // *ahead* of the catalog — post-checkpoint DML reaches the file
        // through evictions and pool flushes — but the first statement of
        // the generation handed a frame to the log file before it applied
        // (its record, or the generation marker while an auto-commit record
        // sat in the writer's buffer), and the pool forces the log before
        // any write-back. So when the same-epoch WAL holds no frame at all
        // (no post-checkpoint DML evidence), the pages must match the
        // catalog exactly; a mismatch means a write the checkpoint claimed
        // durable never reached the device (a lying disk / dropped write).
        let quiescent = replay.as_ref().is_some_and(|r| r.is_untouched());
        if quiescent {
            for (entry, &(live, crc)) in catalog.pages.iter().zip(&observed) {
                if entry.live_rows != live || entry.crc != crc {
                    return Err(CoreError::Recovery(format!(
                        "page {} does not match the catalog ({live} live rows / crc {crc:#x} on \
                         disk vs {} / {:#x} recorded) and no post-checkpoint DML exists: torn \
                         checkpoint (a page write never reached the device)",
                        entry.page, entry.live_rows, entry.crc
                    )));
                }
            }
        }

        for &ghost in &ghosts {
            table.delete(ghost)?;
        }
        let mut db = Database::from_parts(table, catalog.scheme, catalog.pk_col, primary);
        db.rebuild_indexes(&catalog, dir)?;

        // Replay the WAL tail through the ordinary DML path (durability not
        // yet attached, so replay does not re-log). Replay is *idempotent*
        // per primary key: a record is applied only when the recovered heap
        // does not already reflect it, because any prefix of these
        // statements may have reached the page file before the crash (see
        // the torn-checkpoint note above). Per pk the log alternates
        // insert/delete, so apply-when-applicable converges on the logged
        // final state regardless of how far the pages ran ahead.
        //
        // Transactional records extend this to redo-then-undo (ARIES-lite;
        // see `crate::txn`): *every* record redoes in order — including
        // those of transactions that never committed, since the pool may
        // have stolen any prefix of their effects — while each open
        // transaction accumulates its undo list. `TxnCommit` closes a
        // winner, `TxnAbort` rolls its transaction back at that log
        // position, and whoever is still open at end of log is a loser
        // rolled back last.
        let writer = match replay {
            Some(replay) => {
                let width = catalog.schema.width();
                fn redo_insert(
                    db: &Database,
                    row: &[Value],
                    width: usize,
                    pk_col: ColumnId,
                ) -> Result<i64, CoreError> {
                    if row.len() != width {
                        return Err(CoreError::Recovery(format!(
                            "wal insert record arity {} does not match schema width {width}",
                            row.len()
                        )));
                    }
                    let pk = row.get(pk_col).and_then(|v| v.as_i64()).ok_or_else(|| {
                        CoreError::Recovery("wal insert record lacks a pk".into())
                    })?;
                    let existing = db.primary.read_at(&mut Held::unlocked()).get(pk);
                    match existing {
                        None => {
                            db.insert(row).map_err(|e| {
                                CoreError::Recovery(format!("wal insert replay failed: {e}"))
                            })?;
                        }
                        Some(loc) => {
                            // The heap ran ahead of the checkpoint (steal),
                            // but the snapshot-restored Hermit trees are
                            // strictly *at* the checkpoint — every
                            // same-epoch record postdates them. Re-apply
                            // index-only maintenance or the entry is a
                            // permanent false negative. (Baseline trees and
                            // the primary are rebuilt from the heap and
                            // already carry it.)
                            db.reapply_hermit_insert(row, pk, loc);
                        }
                    }
                    Ok(pk)
                }
                fn redo_delete(db: &Database, pk: i64) -> Result<(), CoreError> {
                    // A delete the heap already reflects is skipped
                    // entirely: a Hermit entry the snapshot still carries
                    // for it is a benign stale tid — resolution/validation
                    // filters it, exactly like any other dead candidate.
                    if db.primary.read_at(&mut Held::unlocked()).get(pk).is_some() {
                        db.delete_by_pk(pk).map_err(|e| {
                            CoreError::Recovery(format!("wal delete replay failed: {e}"))
                        })?;
                    }
                    Ok(())
                }
                let mut open_txns: std::collections::HashMap<u64, Vec<hermit_txn::Undo>> =
                    std::collections::HashMap::new();
                let mut max_txn = 0u64;
                for rec in &replay.records {
                    match rec {
                        WalRecord::Insert { row } => {
                            redo_insert(&db, row, width, catalog.pk_col)?;
                        }
                        WalRecord::Delete { pk } => redo_delete(&db, *pk)?,
                        WalRecord::TxnBegin { txn } => {
                            max_txn = max_txn.max(*txn);
                            open_txns.entry(*txn).or_default();
                        }
                        WalRecord::TxnInsert { txn, row } => {
                            max_txn = max_txn.max(*txn);
                            let pk = redo_insert(&db, row, width, catalog.pk_col)?;
                            open_txns
                                .entry(*txn)
                                .or_default()
                                .push(hermit_txn::Undo::Insert { pk });
                        }
                        WalRecord::TxnDelete { txn, pk, row } => {
                            max_txn = max_txn.max(*txn);
                            redo_delete(&db, *pk)?;
                            open_txns
                                .entry(*txn)
                                .or_default()
                                .push(hermit_txn::Undo::Delete { pk: *pk, row: row.clone() });
                        }
                        WalRecord::TxnCommit { txn } => {
                            max_txn = max_txn.max(*txn);
                            open_txns.remove(txn);
                        }
                        WalRecord::TxnAbort { txn } => {
                            max_txn = max_txn.max(*txn);
                            if let Some(undo) = open_txns.remove(txn) {
                                db.apply_undo(&undo, Held::unlocked().weaken())?;
                            }
                        }
                    }
                }
                // End of log: everyone still open is a loser. Each txn's
                // undo applies in reverse; across transactions the order is
                // immaterial (the lock table kept their pk sets disjoint),
                // sorted only for determinism.
                let mut losers: Vec<(u64, Vec<hermit_txn::Undo>)> = open_txns.into_iter().collect();
                losers.sort_by_key(|(txn, _)| *txn);
                for (_, undo) in &losers {
                    db.apply_undo(undo, Held::unlocked().weaken())?;
                }
                // Never reuse an id that still appears in this log
                // generation.
                db.txns().seed_next_id(max_txn + 1);
                WalWriter::open_append(&wal_path, replay.epoch, replay.valid_len)?
            }
            None => WalWriter::create(&wal_path, catalog.wal_epoch)?,
        };

        db.attach_durability(dir, writer, config);
        Ok(db)
    }

    /// Index-only redo for a WAL insert whose row already reached the heap
    /// before the crash: push the entry into every Hermit index, keyed to
    /// the existing row's location. See the replay loop in
    /// [`open_with_store`](Database::open_with_store).
    fn reapply_hermit_insert(&self, row: &[Value], pk: i64, loc: hermit_storage::RowLoc) {
        let tid = match self.scheme {
            TidScheme::Physical => Tid::from_loc(loc),
            TidScheme::Logical => Tid::from_pk(pk),
        };
        for (key, index) in &self.indexes {
            if let SecondaryIndex::Hermit { trs, host } = index {
                if let (Some(m), Some(n)) = (row[key.column].as_f64(), row[*host].as_f64()) {
                    trs.insert(m, n, tid);
                }
            }
        }
    }

    /// Rebuild the secondary indexes from the recovered heap, one per heap
    /// pass, so that a restarted server's peak memory is its steady state:
    /// each baseline B+-tree's `(key, tid)` buffer is presized to the heap,
    /// sorted, and consumed by the bulk load that builds the tree from it
    /// (`create_baseline_at`). Hermit
    /// indexes come from their epoch-named snapshots, falling back to a
    /// fresh build from the heap (with the catalog's recorded parameters)
    /// when a snapshot is missing or torn.
    fn rebuild_indexes(&mut self, catalog: &Catalog, dir: &Path) -> Result<(), CoreError> {
        for def in &catalog.baselines {
            let key = IndexKey { leading: def.leading, column: def.column };
            self.create_baseline_at(key, def.existing)?;
        }
        for def in &catalog.hermits {
            let key = IndexKey { leading: def.leading, column: def.target };
            let snapshot = dir.join(snapshot_name(key, catalog.wal_epoch));
            match TrsTree::restore(&snapshot) {
                Ok(tree) => {
                    let trs = ConcurrentTrsTree::new(tree);
                    self.register(key, SecondaryIndex::Hermit { trs, host: def.host }, false);
                }
                Err(_) => {
                    // Missing or torn snapshot: rebuild from the recovered
                    // heap, with the parameters the index was created with.
                    let saved = self.trs_params;
                    self.trs_params = TrsParams::from_bytes(&def.params).unwrap_or_default();
                    let built = self.create_hermit_at(key, def.host);
                    self.trs_params = saved;
                    built?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests inspect the structures from outside, like any caller of the crate"
)]
mod tests {
    use super::*;
    use crate::{Query, RangePredicate};
    use hermit_storage::ColumnDef;
    use std::collections::BTreeMap;

    #[test]
    fn params_blob_roundtrip() {
        let p = TrsParams {
            node_fanout: 4,
            max_height: 7,
            error_bound: 3.25,
            sampling_fraction: Some(0.05),
            seed: 42,
            ..Default::default()
        };
        assert_eq!(TrsParams::from_bytes(&p.to_bytes()), Some(p));
        let none = TrsParams { sampling_fraction: None, ..Default::default() };
        assert_eq!(TrsParams::from_bytes(&none.to_bytes()), Some(none));
        assert_eq!(TrsParams::from_bytes(&[1, 2, 3]), None, "short blob rejected");
        let mut bad = TrsParams::default().to_bytes();
        bad[0] = 0; // node_fanout = 0 fails validation
        assert_eq!(TrsParams::from_bytes(&bad), None);
    }

    fn tier_row(pk: i64, m: f64) -> Vec<Value> {
        vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]
    }

    /// `db` holds exactly `model` (pk → target): through the primary index,
    /// and through the Hermit and baseline routes, which resolve their tids
    /// through the primary index under logical pointers.
    fn assert_holds(db: &Database, model: &BTreeMap<i64, f64>, step: &str) {
        assert_eq!(db.len(), model.len(), "{step}");
        let streams = (0..2).flat_map(|s| 1_000_000 * (s + 1)..1_000_000 * (s + 1) + 80);
        for pk in (-1..=600).chain(streams) {
            let want = model.get(&pk).map(|&m| tier_row(pk, m));
            let got = db.primary().get(pk).map(|loc| db.heap().get(loc).unwrap());
            assert_eq!(got, want, "{step}: pk {pk}");
        }
        for (col, lo, hi) in [(2, 40.0, 120.0), (1, 80.0, 240.0)] {
            let scale = if col == 1 { 2.0 } else { 1.0 };
            let want: Vec<i64> = model
                .iter()
                .filter(|(_, &m)| (lo..=hi).contains(&(m * scale)))
                .map(|(&pk, _)| pk)
                .collect();
            let result = db.execute(&Query::filter(RangePredicate::range(col, lo, hi)));
            let mut got: Vec<i64> = result
                .rows
                .iter()
                .map(|&loc| db.heap().get(loc).unwrap()[0].as_i64().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{step}: column {col} range");
        }
    }

    /// Reopen → delete and re-insert run keys, extend, interleave two
    /// ascending streams → checkpoint → reopen, on both tid schemes. The
    /// reopened keys form one run; a run key that is deleted and comes back
    /// is an outlier, and so is a stream key that the other stream's rows
    /// keep from continuing a run; the next reopen finds the same runs in
    /// the heap. The database matches a model after every step.
    #[test]
    fn primary_runs_round_trip_through_reopen_and_checkpoint() {
        for scheme in [TidScheme::Physical, TidScheme::Logical] {
            let dir =
                std::env::temp_dir().join(format!("hermit-runs-{scheme:?}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = DurabilityConfig::default();
            let schema = Schema::new(vec![
                ColumnDef::int("pk"),
                ColumnDef::float("host"),
                ColumnDef::float("target"),
            ]);
            let mut db = Database::create_durable(schema, 0, &dir, &config).unwrap();
            db.scheme = scheme;
            let mut model = BTreeMap::new();
            for pk in 0..500i64 {
                db.insert(&tier_row(pk, pk as f64)).unwrap();
                model.insert(pk, pk as f64);
            }
            db.create_baseline_index(1, true).unwrap();
            db.create_hermit_index(2, 1).unwrap();
            db.checkpoint(&dir).unwrap();
            drop(db);

            let db = Database::open(&dir, &config).unwrap();
            assert_eq!(db.scheme(), scheme);
            assert_eq!(db.primary().tier_lens(), (500, 0));
            assert_holds(&db, &model, "reopened");
            for pk in (0..100i64).step_by(2) {
                db.delete_by_pk(pk).unwrap();
                model.remove(&pk);
                if pk % 4 == 0 {
                    db.insert(&tier_row(pk, pk as f64 + 0.25)).unwrap();
                    model.insert(pk, pk as f64 + 0.25);
                }
            }
            // The re-inserts took the slots after key 499's: key 500 starts
            // a new run.
            for pk in 500..520i64 {
                db.insert(&tier_row(pk, pk as f64 - 450.0)).unwrap();
                model.insert(pk, pk as f64 - 450.0);
            }
            assert_eq!(db.primary().tier_lens(), (470, 25));
            // Two streams, alternating row by row: no run survives but the
            // last key's, which nothing has followed yet.
            for i in 0..80i64 {
                for pk in [1_000_000 + i, 2_000_000 + i] {
                    db.insert(&tier_row(pk, (pk % 400) as f64)).unwrap();
                    model.insert(pk, (pk % 400) as f64);
                }
            }
            assert_eq!(db.primary().tier_lens(), (470 + 1, 25 + 159));
            for pk in (1_000_000..1_000_080i64).step_by(3) {
                db.delete_by_pk(pk).unwrap();
                model.remove(&pk);
            }
            assert_holds(&db, &model, "after churn");
            db.checkpoint(&dir).unwrap();
            drop(db);

            let db = Database::open(&dir, &config).unwrap();
            assert_eq!(db.primary().tier_lens(), (470 + 1, 25 + 159 - 27));
            assert_holds(&db, &model, "reopened after the checkpoint");
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
