//! Multi-statement transactions over one [`Database`]: begin / commit /
//! rollback, transactional DML, and snapshot reads.
//!
//! The bookkeeping (ids, per-pk write locks, undo lists, visibility views)
//! lives in [`hermit_txn`]; this module is the integration with the engine
//! — the heap, every index kind, and PR 5's epoch-fenced WAL.
//!
//! # Write protocol
//!
//! Two textbook rules carry it: **force the log at commit**, and **WAL
//! before data**.
//!
//! Transactional DML inverts the auto-commit ordering: it is **logged
//! before it is applied**. Auto-commit statements log last because the WAL
//! is a redo-only log of applied statements — a failed statement must leave
//! no record. A transaction instead carries an undo list, and recovery is
//! redo-then-undo (below), so the invariant it needs is the opposite one:
//! *no applied write without a WAL record*, or a crash could persist a
//! loser's effect (via buffer-pool steal) that recovery cannot see to roll
//! back.
//!
//! "Logged" means *handed to the log file* — appended and written with one
//! `write`, in every `wal_sync_every` mode — not fsynced. A record inside an
//! open transaction owes nobody durability: the transaction's one
//! durability point is its commit record, and the fsync that forces it
//! covers everything the transaction wrote before. What the record must do
//! is reach the device *before the page it describes*, and that is enforced
//! where pages leave: the buffer pool forces the log up to its written
//! position before any write-back (`WalTail::make_durable`). So a
//! transaction of N statements costs N + 2 writes and **at most one**
//! fsync — its commit may ride another committer's — plus one fsync for
//! each of its dirty pages a steal pushes out early.
//!
//! * **Begin** — log `TxnBegin`.
//! * **Insert** — lock the pk (first-writer-wins), log `TxnInsert`, apply
//!   physically. The row is physically present but invisible to every other
//!   reader until commit (see [`hermit_txn::ReadView`]).
//! * **Delete of a pre-existing row** — *deferred*: the pk is locked and
//!   the pre-image parked, but the row stays physically present (and
//!   visible to other snapshots) until commit. The pre-image rides in the
//!   `TxnDelete` record because the pool may steal the tombstoned page
//!   before any commit or abort record lands — undoing a loser then needs
//!   the bytes from the log.
//! * **Delete of the txn's own insert** — applied (and logged) immediately:
//!   no other reader ever saw the row.
//! * **Commit** — *log → wait → apply + publish*, log-first like every
//!   other transactional statement. Under the WAL guard: append a
//!   `TxnDelete` (with pre-image) per deferred delete and the `TxnCommit`
//!   record, and write them. Then the guard is released and the commit
//!   **waits until the record is durable** (`WalTail::wait_durable`; a
//!   positive commit acknowledgement survives a crash regardless of
//!   `wal_sync_every`) holding neither the guard nor the visibility latch —
//!   other statements append and readers read during the fsync. Only then,
//!   under the exclusive visibility latch, are the deferred deletes applied
//!   and the locks released. Nobody can write those pks in between: the
//!   transaction holds their locks until the last step. A crash after the
//!   commit record is durable and before the apply recovers as committed —
//!   redo applies the logged deletes. A failed append or wait applies
//!   nothing, parks the deferred deletes again and leaves the transaction
//!   open.
//! * **Rollback** — apply the undo list in reverse (idempotent
//!   delete-if-present / insert-if-absent compensations), then log
//!   `TxnAbort`, unforced. Rollback never requires a healthy WAL: the
//!   in-memory rollback always completes, because recovery reaches the same
//!   state without the abort record.
//!
//! # Recovery: redo-then-undo (ARIES-lite)
//!
//! [`Database::open`](Database::open) replays the same-epoch WAL in order,
//! applying *every* record idempotently — including records of transactions
//! that never committed — while accumulating each open transaction's undo
//! list. `TxnCommit` closes a winner; `TxnAbort` (and end-of-log, for
//! losers) applies the accumulated undo in reverse. Redo-everything is not
//! optional: the buffer pool steals, so any prefix of a loser's effects may
//! already sit in the page file — re-applying the rest and then undoing the
//! whole transaction is what converges from every crash point. The epoch
//! fence from PR 5 is what keeps this sound across checkpoints: only
//! current-epoch records replay, and [`Database::checkpoint`] refuses to
//! run while transactions are open ([`CoreError::OpenTransactions`]) so a
//! checkpoint can never bake an uncommitted write into the new epoch while
//! discarding its undo information with the old log.
//!
//! # Isolation
//!
//! Reads are snapshot-isolated at statement granularity: a query freezes
//! the dirty-pk overlay ([`TxnManager::read_view`]) once and filters
//! validation against it, so it never sees another transaction's
//! uncommitted insert and keeps seeing rows another transaction has
//! pending-deleted. The overlay is kept in lockstep with the heap by the
//! manager's *visibility latch*: queries hold the shared side for their
//! whole execution while transactional physical applies and commit/abort
//! publication hold the exclusive side, so a reader observes every
//! transaction all-or-nothing — never a row applied after its freeze, never
//! a half-published commit. The exclusive side is never held across an
//! fsync: a commit waits for its record *before* it takes the latch.
//! (Auto-commit DML is already atomic per statement and skips the latch;
//! its rows may appear between two queries but never mid-validation of
//! one.) Writers conflict first-writer-wins per pk — no lock queues, hence
//! no deadlocks; losers get
//! [`StorageError::WriteConflict`] and may retry. On a non-durable
//! database the duplicate-pk pre-checks are best-effort (there is no WAL
//! guard serializing them); on a durable database every write path holds
//! the WAL guard, which makes them exact.

use crate::batch::BatchScratch;
use crate::breakdown::InsertTimer;
use crate::database::Database;
use crate::error::CoreError;
use crate::executor::QueryResult;
use crate::latches::{self, Held, Visibility};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::recovery::Bracket;
use hermit_storage::wal::WalRecord;
use hermit_storage::{StorageError, Tid, Value};
use hermit_txn::{DeleteMode, TxnCounters, TxnManager, Undo};

impl Database {
    /// The transaction manager's counter snapshot (begins / commits /
    /// aborts / conflicts / active gauge) for the metrics exporter.
    pub fn txn_counters(&self) -> TxnCounters {
        self.txns.counters()
    }

    /// Number of currently open transactions.
    pub fn txn_active(&self) -> usize {
        self.txns.active()
    }

    /// Borrow the transaction manager (crate-internal integration hook).
    pub(crate) fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Open a transaction and return its id.
    ///
    /// On a durable database the `TxnBegin` record is written (not fsynced)
    /// under the quiesce + WAL guards; a WAL failure closes the id again and
    /// propagates, so a transaction the caller never learned about cannot
    /// linger open.
    pub fn begin(&self) -> Result<u64, CoreError> {
        let mut root = Held::unlocked();
        let mut bracket = self.bracket(&mut root)?;
        let txn = self.txns.begin();
        if let (Some(log), held) = bracket.split() {
            if let Err(e) = log.log_txn(&WalRecord::TxnBegin { txn }, held) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the id was opened above and no one else knows it, so closing it cannot fail"
                )]
                let _ = self.txns.start_abort(txn).and_then(|_| self.txns.finish_abort(txn));
                return Err(e.into());
            }
        }
        Ok(txn)
    }

    /// Insert a row inside transaction `txn`.
    ///
    /// The pk is locked first-writer-wins; a pk that is physically live —
    /// including one this same transaction holds a pending delete on — is
    /// rejected as [`StorageError::WriteConflict`] (re-inserting a deleted
    /// key becomes possible only after the deleting transaction commits).
    /// The `TxnInsert` record is in the log file *before* the physical
    /// apply, and is not fsynced; see the module docs for why.
    pub fn insert_txn(&self, txn: u64, row: &[Value]) -> Result<Tid, CoreError> {
        let mut root = Held::unlocked();
        let mut bracket = self.bracket(&mut root)?;
        let pk = row
            .get(self.pk_col)
            .and_then(|v| v.as_i64())
            .ok_or(StorageError::TypeMismatch { column: self.pk_col, expected: "Int" })?;
        // Encoded once — into the `TxnInsert` record on a durable database —
        // and the heap copies those cells; a row that does not fit the
        // schema is refused here, before it is locked or logged.
        let mut unlogged = Vec::new();
        match bracket.split().0 {
            Some(log) => {
                log.stage_insert(Some(txn), row.len(), |out| self.heap.encode_row(row, out))?
            }
            None => self.heap.encode_row(row, &mut unlogged)?,
        }
        if !self.txns.is_open(txn) {
            return Err(CoreError::UnknownTxn { txn });
        }
        if self.primary.read_at(bracket.held()).get(pk).is_some() {
            // Duplicate pk: the commit/rollback machinery keys everything
            // on pk uniqueness, so unlike the auto-commit path this is a
            // hard error, reported in the same retryable class as a lock
            // conflict.
            return Err(StorageError::WriteConflict { pk }.into());
        }
        self.txns.note_insert(txn, pk)?;
        if let (Some(log), held) = bracket.split() {
            if let Err(e) = log.log_staged(held) {
                // Nothing was applied: unwind the lock and undo entry so
                // the failed statement leaves no trace.
                self.txns.forget_insert(txn, pk);
                return Err(e.into());
            }
        }
        // Apply after the record is in the file, under the exclusive side of the
        // visibility latch: a query that froze its view before this
        // statement locked the pk would not filter the row, so the physical
        // apply must wait until that query has drained. If the apply itself
        // fails the undo entry stays: its delete-if-present compensation is
        // a no-op for a row that never landed, and recovery's redo-then-undo
        // converges on the same rolled-back state.
        let (log, held) = bracket.split();
        let encoded = log.map_or(&unlogged[..], |log| log.staged_cells());
        let mut vis = latches::write_visibility(&self.txns, held);
        let tid = self.apply_insert(row, Some(encoded), pk, InsertTimer(None), vis.held())?;
        Ok(tid)
    }

    /// Delete a row by pk inside transaction `txn`.
    ///
    /// A pre-existing row is **deferred**: locked and parked, physically
    /// deleted (and WAL-logged with its pre-image) only at commit, so
    /// concurrent snapshots keep reading it. A row this same transaction
    /// inserted is deleted immediately. Read-your-writes: a pk the
    /// transaction already deleted reports
    /// [`StorageError::PkNotFound`].
    pub fn delete_by_pk_txn(&self, txn: u64, pk: i64) -> Result<(), CoreError> {
        let mut root = Held::unlocked();
        let mut bracket = self.bracket(&mut root)?;
        if !self.txns.is_open(txn) {
            return Err(CoreError::UnknownTxn { txn });
        }
        if self.txns.has_pending_delete(txn, pk) {
            return Err(StorageError::PkNotFound { pk }.into());
        }
        if self.primary.read_at(bracket.held()).get(pk).is_none() {
            return Err(StorageError::PkNotFound { pk }.into());
        }
        // Exclusive visibility latch across lock + apply: `lock_delete`
        // flips an own-insert's lock kind to `Delete` (visible-to-others)
        // before the physical delete lands, and a view frozen inside that
        // gap would read a row no transaction ever committed.
        let (log, held) = bracket.split();
        let mut vis = latches::write_visibility(&self.txns, held);
        match self.txns.lock_delete(txn, pk)? {
            DeleteMode::OwnInsert => {
                // The row was this txn's own insert: no other reader ever
                // saw it, so the physical delete applies now. Log first
                // (pre-image included — the insert's page may be stolen
                // before any commit/abort record lands).
                let loc = self
                    .primary
                    .read_at(vis.held())
                    .get(pk)
                    .ok_or(StorageError::PkNotFound { pk })?;
                let row = self.heap.get(loc)?;
                if let Some(log) = log {
                    // On failure the WAL is poisoned: commit is impossible
                    // and rollback (which removes this row anyway) is the
                    // only exit, so the flipped lock needs no unwinding.
                    log.log_txn(&WalRecord::TxnDelete { txn, pk, row: row.clone() }, vis.token())?;
                }
                let pre = self.apply_delete(pk, vis.held())?;
                self.txns.note_applied_delete(txn, pk, pre)?;
            }
            DeleteMode::Deferred => {
                // Park the pre-image; nothing is logged or applied until
                // commit. (If a non-durable race deleted the row between
                // the existence check and the lock, the dangling lock is
                // released with the transaction — harmless.)
                let loc = self
                    .primary
                    .read_at(vis.held())
                    .get(pk)
                    .ok_or(StorageError::PkNotFound { pk })?;
                let row = self.heap.get(loc)?;
                self.txns.note_pending_delete(txn, pk, row)?;
            }
        }
        Ok(())
    }

    /// Commit transaction `txn`: log → wait → apply + publish.
    ///
    /// 1. Under the WAL guard, append the deferred deletes' `TxnDelete`
    ///    records (with pre-images) and the `TxnCommit` record, and write
    ///    them. The pks are locked by the transaction, so nobody can write
    ///    them between this and step 3.
    /// 2. Release the guard and **wait until the commit record is durable**
    ///    — holding neither the guard nor the visibility latch, so other
    ///    statements append, and readers read, during the fsync.
    /// 3. Under the exclusive visibility latch, apply the deferred deletes,
    ///    release the locks and advance the visibility watermark: a reader
    ///    sees the whole commit or none of it.
    ///
    /// A failure in steps 1–2 leaves the transaction open with a sound undo
    /// list and its deferred deletes parked again, nothing of them applied
    /// — the caller should [`rollback`](Self::rollback) (which works
    /// even behind a poisoned WAL) or disconnect and let recovery roll it
    /// back.
    pub fn commit(&self, txn: u64) -> Result<(), CoreError> {
        let mut root = Held::unlocked();
        let bracket = self.bracket(&mut root)?;
        let pending = self.txns.start_commit(txn)?;
        let mut quiesce = None;
        let held = match bracket {
            Bracket::Logged(mut statement) => {
                let (log, held) = statement.split();
                let logged = pending
                    .iter()
                    .try_for_each(|&(pk, ref row)| {
                        log.log_txn(&WalRecord::TxnDelete { txn, pk, row: row.clone() }, held)
                    })
                    .and_then(|()| statement.force_commit(txn));
                match logged {
                    Ok(guard) => quiesce.insert(guard).held(),
                    Err(e) => {
                        self.txns.restore_pending(txn, pending);
                        return Err(e.into());
                    }
                }
            }
            Bracket::Unlogged(root) => root.weaken(),
        };
        // Exclusive visibility latch across apply + publication: a reader
        // must see the whole commit (deferred deletes applied, locks gone)
        // or none of it, never a half-committed transaction.
        let mut vis = latches::write_visibility(&self.txns, held);
        for (pk, _) in pending {
            // The pk is locked by this txn, so the row is still live. The
            // commit record is already durable: if the heap refuses now, the
            // log and the memory image disagree until a restart replays the
            // log, so stop accepting statements.
            let pre = self.apply_delete(pk, vis.held()).inspect_err(|_| {
                if let Some(d) = &self.durability {
                    d.poison();
                }
            })?;
            self.txns.note_applied_delete(txn, pk, pre)?;
        }
        self.txns.finish_commit(txn)?;
        Ok(())
    }

    /// Roll back transaction `txn`: apply the undo list in reverse
    /// (deferred deletes were never applied and simply evaporate) and
    /// publish, then append the `TxnAbort` record when the WAL is healthy.
    /// The WAL guard is held throughout, so no record lands between the
    /// rollback and its abort record.
    ///
    /// The in-memory rollback always completes — even behind a poisoned
    /// WAL — because releasing the locks must never be blocked on I/O and
    /// recovery rolls the loser back regardless. A WAL failure while
    /// logging the abort record is reported *after* the rollback finished.
    pub fn rollback(&self, txn: u64) -> Result<(), CoreError> {
        let mut root = Held::unlocked();
        let mut bracket = self.bracket_unchecked(&mut root);
        let (log, held) = bracket.split();
        // Exclusive visibility latch across undo + publication, for the
        // same all-or-nothing reason as commit.
        let mut vis = latches::write_visibility(&self.txns, held);
        let undo = self.txns.start_abort(txn)?;
        self.apply_undo(&undo, vis.held())?;
        let logged = log.map_or(Ok(()), |log| log.log_txn_abort(txn, vis.token()));
        self.txns.finish_abort(txn)?;
        logged?;
        Ok(())
    }

    /// Plan and execute a query as transaction `txn`; see
    /// [`execute_plan_for_txn`](Self::execute_plan_for_txn).
    pub fn execute_for_txn(&self, query: &Query, txn: u64) -> QueryResult {
        self.execute_plan_for_txn(&self.plan(query), txn)
    }

    /// Execute an already-built plan as transaction `txn`: the read view is
    /// frozen with `txn` as the owner, so the transaction sees its own
    /// uncommitted writes (inserts visible, pending deletes gone) on top of
    /// the same snapshot rules every other reader gets.
    pub fn execute_plan_for_txn(&self, plan: &QueryPlan, txn: u64) -> QueryResult {
        self.run_plan(plan, Some(txn), &mut BatchScratch::default())
    }

    /// Apply an undo list in reverse order. Both compensations are
    /// idempotent — delete-if-present, insert-if-absent — so replaying the
    /// same undo after a crash mid-rollback re-converges. Shared by
    /// [`rollback`](Self::rollback) and recovery's loser rollback.
    pub(crate) fn apply_undo(
        &self,
        undo: &[Undo],
        held: &mut Held<Visibility>,
    ) -> Result<(), CoreError> {
        for u in undo.iter().rev() {
            match u {
                Undo::Insert { pk } => {
                    if self.primary.read_at(held).get(*pk).is_some() {
                        self.apply_delete(*pk, held)?;
                    }
                }
                Undo::Delete { pk, row } => {
                    if self.primary.read_at(held).get(*pk).is_none() {
                        self.apply_insert(row, None, *pk, InsertTimer(None), held)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RangePredicate;
    use hermit_storage::{ColumnDef, Schema, TidScheme};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
        ])
    }

    fn indexed_db(n: usize) -> Database {
        let mut db = Database::new(schema(), 0, TidScheme::Logical);
        for i in 0..n {
            let m = i as f64;
            db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        db
    }

    fn count(db: &Database, lb: f64, ub: f64) -> usize {
        db.execute(&Query::filter(RangePredicate::range(2, lb, ub))).rows.len()
    }

    #[test]
    fn commit_makes_writes_visible() {
        let db = indexed_db(100);
        let t = db.begin().unwrap();
        db.insert_txn(t, &[Value::Int(1_000), Value::Float(401.0), Value::Float(200.5)]).unwrap();
        db.delete_by_pk_txn(t, 50).unwrap();
        // Pre-commit: auto-commit readers see the old state.
        assert_eq!(count(&db, 200.0, 201.0), 0, "uncommitted insert invisible");
        assert_eq!(count(&db, 50.0, 50.0), 1, "pending delete still visible");
        // The owner sees its own writes.
        let own = db.execute_for_txn(&Query::filter(RangePredicate::range(2, 200.0, 201.0)), t);
        assert_eq!(own.rows.len(), 1);
        let own = db.execute_for_txn(&Query::filter(RangePredicate::point(2, 50.0)), t);
        assert!(own.rows.is_empty(), "owner must not see its own pending delete");
        db.commit(t).unwrap();
        assert_eq!(count(&db, 200.0, 201.0), 1);
        assert_eq!(count(&db, 50.0, 50.0), 0);
        assert_eq!(db.len(), 100);
        let c = db.txn_counters();
        assert_eq!((c.begins, c.commits, c.aborts, c.active), (1, 1, 0, 0));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let db = indexed_db(100);
        let before = count(&db, 0.0, 1_000.0);
        let t = db.begin().unwrap();
        db.insert_txn(t, &[Value::Int(500), Value::Float(999.0), Value::Float(499.5)]).unwrap();
        db.delete_by_pk_txn(t, 10).unwrap();
        db.delete_by_pk_txn(t, 500).unwrap(); // delete own insert
        db.delete_by_pk_txn(t, 20).unwrap();
        db.rollback(t).unwrap();
        assert_eq!(count(&db, 0.0, 1_000.0), before);
        assert_eq!(db.len(), 100);
        assert_eq!(count(&db, 10.0, 10.0), 1, "deferred delete undone");
        assert_eq!(count(&db, 499.5, 499.5), 0, "own insert gone");
        assert!(!db.txns.is_open(t));
    }

    #[test]
    fn conflicts_are_first_writer_wins() {
        let db = indexed_db(50);
        let a = db.begin().unwrap();
        let b = db.begin().unwrap();
        db.delete_by_pk_txn(a, 7).unwrap();
        assert!(matches!(
            db.delete_by_pk_txn(b, 7),
            Err(CoreError::Storage(StorageError::WriteConflict { pk: 7 }))
        ));
        // Auto-commit writers lose the same way.
        assert_eq!(db.delete_by_pk(7), Err(StorageError::WriteConflict { pk: 7 }));
        // Duplicate insert of a live pk is rejected.
        assert!(matches!(
            db.insert_txn(b, &[Value::Int(7), Value::Float(0.0), Value::Float(0.0)]),
            Err(CoreError::Storage(StorageError::WriteConflict { pk: 7 }))
        ));
        db.rollback(a).unwrap();
        db.delete_by_pk_txn(b, 7).unwrap();
        db.commit(b).unwrap();
        assert_eq!(count(&db, 7.0, 7.0), 0);
    }

    #[test]
    fn unknown_txn_is_typed() {
        let db = indexed_db(10);
        assert!(matches!(db.commit(99), Err(CoreError::UnknownTxn { txn: 99 })));
        assert!(matches!(db.rollback(99), Err(CoreError::UnknownTxn { txn: 99 })));
        assert!(matches!(
            db.insert_txn(99, &[Value::Int(77), Value::Float(0.0), Value::Float(0.0)]),
            Err(CoreError::UnknownTxn { txn: 99 })
        ));
        assert!(matches!(db.delete_by_pk_txn(99, 1), Err(CoreError::UnknownTxn { txn: 99 })));
    }

    #[test]
    fn read_your_writes_delete_semantics() {
        let db = indexed_db(10);
        let t = db.begin().unwrap();
        db.delete_by_pk_txn(t, 3).unwrap();
        assert!(matches!(
            db.delete_by_pk_txn(t, 3),
            Err(CoreError::Storage(StorageError::PkNotFound { pk: 3 }))
        ));
        db.rollback(t).unwrap();
        assert_eq!(count(&db, 3.0, 3.0), 1);
    }

    #[test]
    fn seq_scan_respects_visibility() {
        // Query on an unindexed column takes the scan path.
        let db = indexed_db(20);
        let t = db.begin().unwrap();
        db.insert_txn(t, &[Value::Int(100), Value::Float(5.0), Value::Float(500.0)]).unwrap();
        db.delete_by_pk_txn(t, 4).unwrap();
        let q = Query::filter(RangePredicate::range(1, 0.0, 10_000.0));
        let auto = db.execute(&q);
        assert_eq!(auto.rows.len(), 20, "scan: insert hidden, pending delete visible");
        let own = db.execute_for_txn(&q, t);
        assert_eq!(own.rows.len(), 20, "scan: owner sees insert, not its delete");
        db.rollback(t).unwrap();
        assert_eq!(db.execute(&q).rows.len(), 20);
    }
}
