#![forbid(unsafe_code)]
//! Multi-statement transaction mechanism for the Hermit engine.
//!
//! This crate owns the *bookkeeping* of transactions — ids, the transaction
//! table, per-pk write locks, undo records, and snapshot visibility — while
//! `hermit_core` owns their *integration*: routing DML through the manager,
//! writing the `TxnBegin`/`TxnInsert`/`TxnDelete`/`TxnCommit`/`TxnAbort`
//! records into the epoch-fenced WAL, and rolling losers back on recovery.
//!
//! ## Design
//!
//! * **Monotonic txn ids.** [`TxnManager::begin`] hands out ids from a
//!   counter that recovery re-seeds past the highest id seen in the WAL
//!   ([`TxnManager::seed_next_id`]), so a reopened database never reuses an
//!   id that still appears in the current log generation. Ids reset with
//!   the log: a checkpoint starts a new WAL epoch (PR 5's epoch fencing)
//!   and only records of the current epoch replay, so cross-epoch collisions
//!   are fenced off the same way stale DML records are.
//! * **First-writer-wins pk locks.** The lock table maps each written
//!   primary key to its owning open transaction. A second writer — another
//!   transaction *or* an auto-commit statement — fails fast with
//!   [`TxnError::Conflict`] instead of blocking; the caller may retry after
//!   the owner finishes. There is no lock queue and therefore no deadlock.
//! * **Undo records.** Every applied txn write pushes its inverse:
//!   [`Undo::Insert`] (delete the pk) or [`Undo::Delete`] (reinstate the
//!   pre-image row). Rollback applies the list in reverse; the operations
//!   are idempotent ("delete if present" / "insert if absent"), so a crash
//!   mid-rollback re-converges when recovery runs the same undo again.
//! * **Deferred deletes.** Deleting a row another snapshot may still read
//!   does not tombstone it in place — the pre-image must stay readable.
//!   The delete parks in the txn's pending list and is applied (and WAL-
//!   logged, carrying the full pre-image) at commit, under the same WAL
//!   guard as the commit record. Deleting a row the *same* transaction
//!   inserted applies immediately: no concurrent reader ever saw it.
//! * **Snapshot visibility.** A [`ReadView`] is the lock/dirty table frozen
//!   at query start plus the reader's own txn id. A pk dirtied by another
//!   open transaction reads as its *committed* state (insert → invisible,
//!   pending delete → still visible); the owner sees its own writes. When
//!   no transaction is open the view is a no-op and queries skip the
//!   overlay entirely.
//! * **Visibility latch.** A frozen overlay only filters writes whose locks
//!   existed at freeze time, so transactional *physical* mutations and
//!   commit/abort publication hold the exclusive side of a reader-parallel
//!   latch ([`TxnManager::write_visibility`]) while queries hold the shared
//!   side ([`TxnManager::read_visibility`]) from view freeze through the
//!   last validated row. An in-flight query therefore never observes a row
//!   applied after its freeze, and commits/aborts become visible
//!   all-or-nothing.
//!
//! The counters ([`TxnCounters`]) feed the server's `Stats` exporter as
//! `hermit_txn_begins` / `hermit_txn_commits` / `hermit_txn_aborts` /
//! `hermit_txn_conflicts` and the `hermit_txn_active` gauge.

use hermit_storage::Value;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Transaction-management failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction id is not open (never begun, or already finished).
    UnknownTxn {
        /// The offending id.
        txn: u64,
    },
    /// The primary key is write-locked by another open transaction, or
    /// would violate the one-write-per-pk rule within the same transaction.
    Conflict {
        /// The contended primary key.
        pk: i64,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownTxn { txn } => write!(f, "transaction {txn} is not open"),
            TxnError::Conflict { pk } => {
                write!(f, "primary key {pk} is write-locked by an open transaction")
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// What kind of write an open transaction holds on a pk (drives both
/// conflict detection and snapshot visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// The txn inserted this pk (physically present, invisible to others).
    Insert,
    /// The txn deleted this pk (pre-existing rows stay physically present
    /// until commit and remain visible to others; the owner no longer sees
    /// them).
    Delete,
}

/// Inverse of one applied transactional write, pushed in statement order
/// and applied in reverse on rollback. Both operations are idempotent.
#[derive(Debug, Clone, PartialEq)]
pub enum Undo {
    /// Undo an applied insert: delete `pk` if it is present.
    Insert {
        /// Primary key the transaction inserted.
        pk: i64,
    },
    /// Undo an applied delete: reinstate `row` if `pk` is absent.
    Delete {
        /// Primary key the transaction deleted.
        pk: i64,
        /// Full pre-image of the deleted row, in schema order.
        row: Vec<Value>,
    },
}

/// How a transactional delete must be executed, as decided by the lock
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteMode {
    /// The row was inserted by this same transaction: apply the physical
    /// delete immediately (no other reader ever saw the row).
    OwnInsert,
    /// The row pre-exists the transaction: defer the physical delete to
    /// commit so concurrent snapshots keep reading the pre-image.
    Deferred,
}

struct OpenTxn {
    undo: Vec<Undo>,
    /// Deferred deletes: `(pk, pre-image)` applied and WAL-logged at commit.
    pending: Vec<(i64, Vec<Value>)>,
    /// Pks this txn holds locks on (for O(own writes) release).
    locked: Vec<i64>,
}

struct TableState {
    next_id: u64,
    open: HashMap<u64, OpenTxn>,
    /// pk → (owning txn, kind). Doubles as the snapshot-visibility dirty map.
    locks: HashMap<i64, (u64, WriteKind)>,
}

/// Monotonic counter snapshot for the metrics exporter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnCounters {
    /// Transactions ever begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (explicitly or by disconnect).
    pub aborts: u64,
    /// Write-write conflicts reported (first-writer-wins losers).
    pub conflicts: u64,
    /// Currently open transactions (gauge).
    pub active: usize,
}

/// The transaction table: id allocation, pk write locks, undo bookkeeping,
/// and snapshot-visibility views. One per [`Database`](../hermit_core).
pub struct TxnManager {
    state: Mutex<TableState>,
    /// Visibility latch (see the module docs): queries shared, transactional
    /// physical applies and commit/abort publication exclusive.
    vis: RwLock<()>,
    /// Mirror of `locks.len()`, readable without the mutex: the all-clear
    /// fast path for [`read_view`](Self::read_view).
    dirty: AtomicUsize,
    /// Highest committed txn id (visibility watermark; everything at or
    /// below it that is not in the dirty overlay is committed state).
    watermark: AtomicU64,
    begins: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Fresh manager with no open transactions; ids start at 1.
    pub fn new() -> Self {
        TxnManager {
            state: Mutex::new(TableState {
                next_id: 1,
                open: HashMap::new(),
                locks: HashMap::new(),
            }),
            vis: RwLock::new(()),
            dirty: AtomicUsize::new(0),
            watermark: AtomicU64::new(0),
            begins: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// Raise the id counter to at least `floor` (recovery calls this with
    /// one past the highest txn id seen in the replayed WAL).
    pub fn seed_next_id(&self, floor: u64) {
        let mut s = self.state.lock();
        s.next_id = s.next_id.max(floor);
    }

    /// Open a transaction and return its id.
    pub fn begin(&self) -> u64 {
        let mut s = self.state.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.open.insert(id, OpenTxn { undo: Vec::new(), pending: Vec::new(), locked: Vec::new() });
        self.begins.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Whether `txn` is currently open.
    pub fn is_open(&self, txn: u64) -> bool {
        self.state.lock().open.contains_key(&txn)
    }

    /// Number of open transactions.
    pub fn active(&self) -> usize {
        self.state.lock().open.len()
    }

    /// Highest committed transaction id.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Counter snapshot for the metrics exporter.
    pub fn counters(&self) -> TxnCounters {
        TxnCounters {
            begins: self.begins.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            active: self.active(),
        }
    }

    /// Guard for **auto-commit** (non-transactional) DML: fails with
    /// [`TxnError::Conflict`] when `pk` is write-locked by an open
    /// transaction.
    pub fn check_unlocked(&self, pk: i64) -> Result<(), TxnError> {
        if self.dirty.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        if self.state.lock().locks.contains_key(&pk) {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(TxnError::Conflict { pk });
        }
        Ok(())
    }

    /// Lock `pk` for insert by `txn` and push its undo record. Fails on any
    /// existing lock (another txn's, or a second write by the same txn —
    /// each txn writes a pk at most once, except delete-after-own-insert).
    pub fn note_insert(&self, txn: u64, pk: i64) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        if !s.open.contains_key(&txn) {
            return Err(TxnError::UnknownTxn { txn });
        }
        if s.locks.contains_key(&pk) {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(TxnError::Conflict { pk });
        }
        s.locks.insert(pk, (txn, WriteKind::Insert));
        self.dirty.store(s.locks.len(), Ordering::Release);
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.undo.push(Undo::Insert { pk });
        t.locked.push(pk);
        Ok(())
    }

    /// Undo the lock and bookkeeping of a [`note_insert`](Self::note_insert)
    /// whose WAL append failed before anything was applied.
    pub fn forget_insert(&self, txn: u64, pk: i64) {
        let mut s = self.state.lock();
        if let Some((owner, WriteKind::Insert)) = s.locks.get(&pk).copied() {
            if owner == txn {
                s.locks.remove(&pk);
                self.dirty.store(s.locks.len(), Ordering::Release);
            }
        }
        if let Some(t) = s.open.get_mut(&txn) {
            if t.undo.last() == Some(&Undo::Insert { pk }) {
                t.undo.pop();
                t.locked.retain(|&p| p != pk);
            }
        }
    }

    /// Lock `pk` for delete by `txn`: decides between the immediate
    /// (own-insert) and deferred (pre-existing row) execution modes.
    pub fn lock_delete(&self, txn: u64, pk: i64) -> Result<DeleteMode, TxnError> {
        let mut s = self.state.lock();
        if !s.open.contains_key(&txn) {
            return Err(TxnError::UnknownTxn { txn });
        }
        match s.locks.get(&pk).copied() {
            Some((owner, _)) if owner != txn => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                Err(TxnError::Conflict { pk })
            }
            Some((_, WriteKind::Delete)) => {
                // Double delete by the same txn; the caller normally catches
                // this earlier as "pk not visible", this is the backstop.
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                Err(TxnError::Conflict { pk })
            }
            Some((_, WriteKind::Insert)) => {
                s.locks.insert(pk, (txn, WriteKind::Delete));
                Ok(DeleteMode::OwnInsert)
            }
            None => {
                s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?.locked.push(pk);
                s.locks.insert(pk, (txn, WriteKind::Delete));
                self.dirty.store(s.locks.len(), Ordering::Release);
                Ok(DeleteMode::Deferred)
            }
        }
    }

    /// Record the undo for a physically-applied delete (own-insert deletes,
    /// and each deferred delete as commit applies it).
    pub fn note_applied_delete(&self, txn: u64, pk: i64, row: Vec<Value>) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.undo.push(Undo::Delete { pk, row });
        Ok(())
    }

    /// Park a deferred delete `(pk, pre-image)` for application at commit.
    pub fn note_pending_delete(&self, txn: u64, pk: i64, row: Vec<Value>) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.pending.push((pk, row));
        Ok(())
    }

    /// Whether `txn` holds a **pending (deferred) delete** on `pk` — i.e.
    /// the row is still physically present but the owner must not see it.
    pub fn has_pending_delete(&self, txn: u64, pk: i64) -> bool {
        let s = self.state.lock();
        matches!(s.locks.get(&pk), Some(&(owner, WriteKind::Delete)) if owner == txn)
    }

    /// Start committing: returns the deferred deletes to apply (in
    /// statement order). The txn stays open and locked; call
    /// [`note_applied_delete`](Self::note_applied_delete) as each lands and
    /// [`finish_commit`](Self::finish_commit) once the commit record is in
    /// the WAL.
    pub fn start_commit(&self, txn: u64) -> Result<Vec<(i64, Vec<Value>)>, TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        Ok(std::mem::take(&mut t.pending))
    }

    /// Park the deferred deletes [`start_commit`](Self::start_commit) took
    /// again: the commit could not be logged, nothing was applied, and the
    /// transaction stays open exactly as it was.
    pub fn restore_pending(&self, txn: u64, pending: Vec<(i64, Vec<Value>)>) {
        if let Some(t) = self.state.lock().open.get_mut(&txn) {
            t.pending = pending;
        }
    }

    /// Finish a commit: release locks, close the txn, bump the watermark.
    pub fn finish_commit(&self, txn: u64) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.remove(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        for pk in &t.locked {
            if matches!(s.locks.get(pk), Some(&(owner, _)) if owner == txn) {
                s.locks.remove(pk);
            }
        }
        self.dirty.store(s.locks.len(), Ordering::Release);
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.watermark.fetch_max(txn, Ordering::AcqRel);
        Ok(())
    }

    /// Start a rollback: returns the undo list in **push order** (apply it
    /// in reverse). The txn stays open and locked until
    /// [`finish_abort`](Self::finish_abort).
    pub fn start_abort(&self, txn: u64) -> Result<Vec<Undo>, TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.pending.clear(); // deferred deletes were never applied — nothing to undo
        Ok(std::mem::take(&mut t.undo))
    }

    /// Finish a rollback: release locks and close the txn.
    pub fn finish_abort(&self, txn: u64) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.remove(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        for pk in &t.locked {
            if matches!(s.locks.get(pk), Some(&(owner, _)) if owner == txn) {
                s.locks.remove(pk);
            }
        }
        self.dirty.store(s.locks.len(), Ordering::Release);
        self.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Shared side of the visibility latch. A query holds this from the
    /// moment it freezes its [`ReadView`] until its last row is validated:
    /// while held, no transaction can physically apply a write or publish a
    /// commit/abort, so the frozen overlay stays in lockstep with the heap
    /// the query reads. Readers run in parallel; with no open transactions
    /// the exclusive side is never taken and this is an uncontended read
    /// lock.
    pub fn read_visibility(&self) -> RwLockReadGuard<'_, ()> {
        self.vis.read()
    }

    /// Exclusive side of the visibility latch, held across every
    /// transactional **physical** mutation (statement apply, commit's
    /// deferred-delete application, rollback's undo) together with the
    /// lock-release that publishes it, so in-flight snapshots never observe
    /// a half-applied or half-published transaction.
    pub fn write_visibility(&self) -> RwLockWriteGuard<'_, ()> {
        self.vis.write()
    }

    /// Snapshot the visibility overlay for a query. `owner` is the reading
    /// transaction (or `None` for an auto-commit reader). When no
    /// transaction holds any write lock this is a lock-free no-op view.
    pub fn read_view(&self, owner: Option<u64>) -> ReadView {
        if self.dirty.load(Ordering::Acquire) == 0 {
            return ReadView { owner, dirty: None };
        }
        let s = self.state.lock();
        if s.locks.is_empty() {
            return ReadView { owner, dirty: None };
        }
        ReadView { owner, dirty: Some(s.locks.clone()) }
    }
}

/// A frozen visibility overlay: the dirty/lock table at query start plus
/// the reader's own transaction id. See the module docs for the rules.
#[derive(Debug, Clone)]
pub struct ReadView {
    owner: Option<u64>,
    dirty: Option<HashMap<i64, (u64, WriteKind)>>,
}

impl ReadView {
    /// A view that filters nothing (no open transactions).
    pub fn unfiltered() -> Self {
        ReadView { owner: None, dirty: None }
    }

    /// Whether this view needs per-row pk checks at all. `false` is the
    /// fast path: the executor skips the overlay entirely.
    pub fn is_filtering(&self) -> bool {
        self.dirty.is_some()
    }

    /// The reading transaction, if any.
    pub fn owner(&self) -> Option<u64> {
        self.owner
    }

    /// Is the physically-present row with this pk visible to the reader?
    ///
    /// * Untouched pk → visible (committed state).
    /// * Another txn's insert → invisible; its pending delete → visible.
    /// * Own insert → visible; own delete → invisible (read-your-writes).
    pub fn visible_pk(&self, pk: i64) -> bool {
        let Some(dirty) = &self.dirty else { return true };
        match dirty.get(&pk) {
            None => true,
            Some(&(owner, kind)) => {
                let own = self.owner == Some(owner);
                match kind {
                    WriteKind::Insert => own,
                    WriteKind::Delete => !own,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_and_seedable() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b > a);
        m.seed_next_id(100);
        assert_eq!(m.begin(), 100);
        m.seed_next_id(50); // floor only raises
        assert_eq!(m.begin(), 101);
    }

    #[test]
    fn first_writer_wins() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        m.note_insert(a, 7).unwrap();
        assert_eq!(m.note_insert(b, 7), Err(TxnError::Conflict { pk: 7 }));
        assert_eq!(m.lock_delete(b, 7), Err(TxnError::Conflict { pk: 7 }));
        assert_eq!(m.check_unlocked(7), Err(TxnError::Conflict { pk: 7 }));
        assert!(m.check_unlocked(8).is_ok());
        assert_eq!(m.counters().conflicts, 3);
        m.finish_commit(a).unwrap();
        assert!(m.note_insert(b, 7).is_ok());
    }

    #[test]
    fn delete_modes() {
        let m = TxnManager::new();
        let t = m.begin();
        m.note_insert(t, 1).unwrap();
        assert_eq!(m.lock_delete(t, 1), Ok(DeleteMode::OwnInsert));
        assert_eq!(m.lock_delete(t, 2), Ok(DeleteMode::Deferred));
        assert!(m.has_pending_delete(t, 2));
        // Double delete is a conflict backstop.
        assert_eq!(m.lock_delete(t, 2), Err(TxnError::Conflict { pk: 2 }));
    }

    #[test]
    fn visibility_rules() {
        let m = TxnManager::new();
        let t = m.begin();
        m.note_insert(t, 1).unwrap();
        m.lock_delete(t, 2).unwrap();

        let other = m.read_view(None);
        assert!(other.is_filtering());
        assert!(!other.visible_pk(1), "another txn's insert is invisible");
        assert!(other.visible_pk(2), "another txn's pending delete stays visible");
        assert!(other.visible_pk(3), "untouched pk is visible");

        let own = m.read_view(Some(t));
        assert!(own.visible_pk(1), "own insert is visible");
        assert!(!own.visible_pk(2), "own delete is invisible");

        m.finish_abort(t).unwrap();
        assert!(!m.read_view(None).is_filtering(), "empty table is the fast path");
    }

    #[test]
    fn undo_is_returned_in_push_order_and_pending_cleared_on_abort() {
        let m = TxnManager::new();
        let t = m.begin();
        m.note_insert(t, 1).unwrap();
        m.lock_delete(t, 2).unwrap();
        m.note_pending_delete(t, 2, vec![Value::Int(2)]).unwrap();
        m.note_applied_delete(t, 1, vec![Value::Int(1)]).unwrap();
        let undo = m.start_abort(t).unwrap();
        assert_eq!(
            undo,
            vec![Undo::Insert { pk: 1 }, Undo::Delete { pk: 1, row: vec![Value::Int(1)] }]
        );
        m.finish_abort(t).unwrap();
        assert_eq!(m.active(), 0);
        assert!(m.check_unlocked(2).is_ok(), "locks released on abort");
    }

    #[test]
    fn commit_hands_back_pending_deletes() {
        let m = TxnManager::new();
        let t = m.begin();
        m.lock_delete(t, 9).unwrap();
        m.note_pending_delete(t, 9, vec![Value::Int(9)]).unwrap();
        let pending = m.start_commit(t).unwrap();
        assert_eq!(pending, vec![(9, vec![Value::Int(9)])]);
        m.note_applied_delete(t, 9, vec![Value::Int(9)]).unwrap();
        m.finish_commit(t).unwrap();
        assert_eq!(m.watermark(), t);
        let c = m.counters();
        assert_eq!((c.begins, c.commits, c.aborts, c.active), (1, 1, 0, 0));
    }

    #[test]
    fn unknown_txn_is_typed() {
        let m = TxnManager::new();
        assert_eq!(m.note_insert(42, 1), Err(TxnError::UnknownTxn { txn: 42 }));
        assert_eq!(m.start_commit(42), Err(TxnError::UnknownTxn { txn: 42 }));
        assert_eq!(m.finish_abort(42), Err(TxnError::UnknownTxn { txn: 42 }));
    }
}
