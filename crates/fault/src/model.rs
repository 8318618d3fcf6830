//! The reference model every correctness suite checks the engine against.
//!
//! A [`Model`] is a table of rows keyed by primary key, with auto-commit
//! insert and delete and transactions under the engine's rules
//! (`hermit_core::txn`): a writer locks a pk first-writer-wins, and any
//! other writer of it is refused; a transactional insert is refused while
//! the pk is physically present (live, pending another transaction's
//! delete, or another's uncommitted insert); a reader sees the committed
//! rows, a transaction also its own writes; commit publishes whole,
//! rollback leaves no trace. [`Model::new`] starts empty and follows the
//! statements it is given; [`Model::of`] starts from the rows a database
//! already holds (a table the workload generators built).
//!
//! A query is answered from the rows alone: every conjunct is
//! [`RangePredicate::matches`] over [`Value::as_f64`], then the projection
//! (a missing column reads as NULL). No index, plan or executor is
//! involved, so a bug the engine's structures share cannot hide in the
//! answer. What the model takes from the database is where each row
//! lives: one pass over the heap's live rows maps every pk to its
//! location. Every plan emits rows in ascending location order, so an
//! engine answer must be exactly the model's rows in that order, and a
//! `LIMIT n` answer exactly the first `n` of them. With no transaction
//! open, no candidate may be unresolved either: an index entry that names
//! no live row is a delete the indexes missed — except after crash
//! recovery ([`Model::recovered`]).
//!
//! [`Model::verify`] checks a database's answers to a query panel against
//! the model; a [`Mirror`] runs each statement on a database and on the
//! model and checks that both give the same outcome.

use hermit_core::{
    BatchOptions, CoreError, Database, IndexKey, Query, QueryResult, RangePredicate,
};
use hermit_storage::{RowLoc, StorageError, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Why a statement was refused (a typed refusal, not a failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The pk is locked by another transaction, or (for a transactional
    /// insert) present.
    Conflict,
    /// No visible row has the pk.
    NotFound,
}

/// One open transaction's writes: its inserts it has not deleted again, and
/// the committed rows it deletes at commit.
#[derive(Debug, Clone, Default)]
struct OpenTxn {
    inserted: BTreeMap<i64, Vec<Value>>,
    deleted: BTreeSet<i64>,
}

/// The reference table: committed rows, open transactions and their locks.
#[derive(Debug, Clone)]
pub struct Model {
    pk_col: usize,
    committed: BTreeMap<i64, Vec<Value>>,
    txns: BTreeMap<u64, OpenTxn>,
    /// pk → the transaction holding its write lock.
    locks: BTreeMap<i64, u64>,
    /// Whether an index may hold entries for rows that are gone, which
    /// crash recovery leaves behind (see [`Model::recovered`]).
    stale_entries: bool,
}

impl Model {
    /// An empty table whose primary key is column `pk_col`.
    pub fn new(pk_col: usize) -> Self {
        Model {
            pk_col,
            committed: BTreeMap::new(),
            txns: BTreeMap::new(),
            locks: BTreeMap::new(),
            stale_entries: false,
        }
    }

    /// This model, for checking a database recovered by `Database::open`.
    /// Replay skips a delete the heap already reflects, so a restored Hermit
    /// snapshot may keep an entry for a deleted row: its candidate counts
    /// in `unresolved`. Every other database may count one only while a
    /// transaction is open.
    pub fn recovered(mut self) -> Self {
        self.stale_entries = true;
        self
    }

    /// A model of the rows `db` holds, read in one pass over its heap: for
    /// a table built by other means than statements the model saw.
    ///
    /// # Panics
    /// If the heap cannot be read or holds a pk twice. Every row must be
    /// committed: the heap does not say which rows an open transaction
    /// wrote.
    pub fn of(db: &Database) -> Self {
        let width = db.heap().schema().width();
        let mut model = Model::new(db.pk_col());
        db.heap()
            .for_each_live_row(|_, row| {
                let row: Vec<Value> = (0..width).map(|c| row.value(c)).collect();
                model.insert(&row).expect("no transaction is open");
                true
            })
            .expect("a readable heap");
        model
    }

    /// The committed rows, by pk.
    pub fn rows(&self) -> &BTreeMap<i64, Vec<Value>> {
        &self.committed
    }

    fn pk_of(&self, row: &[Value]) -> i64 {
        row.get(self.pk_col).and_then(Value::as_i64).expect("a row with an integer pk")
    }

    /// Whether a row with `pk` is in the table, committed or not.
    fn present(&self, pk: i64) -> bool {
        self.committed.contains_key(&pk) || self.txns.values().any(|t| t.inserted.contains_key(&pk))
    }

    /// Auto-commit insert.
    ///
    /// # Panics
    /// If the pk is live: the engine does not refuse an auto-commit
    /// duplicate, so the model cannot say what it does.
    pub fn insert(&mut self, row: &[Value]) -> Result<(), Refusal> {
        let pk = self.pk_of(row);
        if self.locks.contains_key(&pk) {
            return Err(Refusal::Conflict);
        }
        let old = self.committed.insert(pk, row.to_vec());
        assert!(old.is_none(), "auto-commit insert of live pk {pk}");
        Ok(())
    }

    /// Auto-commit delete.
    pub fn delete(&mut self, pk: i64) -> Result<(), Refusal> {
        if self.locks.contains_key(&pk) {
            return Err(Refusal::Conflict);
        }
        self.committed.remove(&pk).map(drop).ok_or(Refusal::NotFound)
    }

    /// Open transaction `txn` (the id the engine handed out).
    pub fn begin(&mut self, txn: u64) {
        assert!(self.txns.insert(txn, OpenTxn::default()).is_none(), "{txn} is already open");
    }

    /// Insert inside `txn`.
    pub fn insert_txn(&mut self, txn: u64, row: &[Value]) -> Result<(), Refusal> {
        let pk = self.pk_of(row);
        if self.present(pk) || self.locks.contains_key(&pk) {
            return Err(Refusal::Conflict);
        }
        self.locks.insert(pk, txn);
        self.open(txn).inserted.insert(pk, row.to_vec());
        Ok(())
    }

    /// Delete inside `txn`: its own insert goes at once (the pk stays
    /// locked), a committed row at commit.
    pub fn delete_txn(&mut self, txn: u64, pk: i64) -> Result<(), Refusal> {
        let present = self.present(pk);
        match self.locks.get(&pk).copied() {
            Some(owner) if owner == txn => {
                self.open(txn).inserted.remove(&pk).map(drop).ok_or(Refusal::NotFound)
            }
            _ if !present => Err(Refusal::NotFound),
            Some(_) => Err(Refusal::Conflict),
            None => {
                self.open(txn).deleted.insert(pk);
                self.locks.insert(pk, txn);
                Ok(())
            }
        }
    }

    /// Commit `txn`: its deletes and inserts land together.
    pub fn commit(&mut self, txn: u64) {
        let t = self.close(txn);
        for pk in &t.deleted {
            self.committed.remove(pk);
        }
        self.committed.extend(t.inserted);
    }

    /// Roll `txn` back: nothing of it remains.
    pub fn rollback(&mut self, txn: u64) {
        self.close(txn);
    }

    fn open(&mut self, txn: u64) -> &mut OpenTxn {
        self.txns.get_mut(&txn).unwrap_or_else(|| panic!("transaction {txn} is not open"))
    }

    /// End `txn`, releasing its locks; its writes are returned.
    fn close(&mut self, txn: u64) -> OpenTxn {
        self.locks.retain(|_, owner| *owner != txn);
        self.txns.remove(&txn).unwrap_or_else(|| panic!("transaction {txn} is not open"))
    }

    /// The answer to `q` for `reader` (an auto-commit reader, or an open
    /// transaction): `(pk, projected cells)` in pk order, every matching
    /// row — a `LIMIT` is not applied.
    pub fn answer(&self, q: &Query, reader: Option<u64>) -> Vec<(i64, Vec<Value>)> {
        let txn = reader.and_then(|t| self.txns.get(&t));
        let committed =
            self.committed.iter().filter(|(pk, _)| txn.is_none_or(|t| !t.deleted.contains(pk)));
        let own = txn.into_iter().flat_map(|t| t.inserted.iter());
        let mut out: Vec<(i64, Vec<Value>)> = committed
            .chain(own)
            .filter(|(_, row)| {
                q.conjuncts().iter().all(|p| p.matches(row.get(p.column).and_then(Value::as_f64)))
            })
            .map(|(&pk, row)| (pk, project(row, q.projection())))
            .collect();
        out.sort_by_key(|&(pk, _)| pk);
        out
    }

    /// Where every row of `db` lives, pk → location, from one pass over the
    /// heap's live rows (committed or not).
    fn placement(&self, db: &Database) -> Result<HashMap<i64, RowLoc>, String> {
        let mut at = HashMap::with_capacity(db.len());
        db.heap()
            .for_each_live_row(|loc, row| {
                at.extend(row.value(self.pk_col).as_i64().map(|pk| (pk, loc)));
                true
            })
            .map_err(|e| format!("heap scan: {e}"))?;
        Ok(at)
    }

    /// Check one engine result for `q`, executed on `db` as `reader`,
    /// against the model: exactly the model's rows, in ascending heap
    /// location, the first `n` of them under a `LIMIT n`, with a projection
    /// aligned with the rows and only where one was asked for; no page
    /// unreadable, and with no transaction open no candidate unresolved.
    pub fn check_result(
        &self,
        db: &Database,
        q: &Query,
        r: &QueryResult,
        reader: Option<u64>,
    ) -> Result<(), String> {
        self.check_placed(db, &self.placement(db)?, q, r, reader)
    }

    /// [`check_result`](Self::check_result) against a known placement.
    fn check_placed(
        &self,
        db: &Database,
        at: &HashMap<i64, RowLoc>,
        q: &Query,
        r: &QueryResult,
        reader: Option<u64>,
    ) -> Result<(), String> {
        if r.unreadable > 0 {
            return Err(format!("{q:?}: {} heap pages unreadable", r.unreadable));
        }
        if r.unresolved > 0 && self.txns.is_empty() && !self.stale_entries {
            return Err(format!("{q:?}: {} index entries name no live row", r.unresolved));
        }
        let projected = r.projected.as_ref().filter(|block| block.len() == r.rows.len());
        if q.projection().is_some() != projected.is_some() {
            return Err(format!("{q:?}: projection unasked, missing or misaligned"));
        }
        let mut want = Vec::new();
        for (pk, cells) in self.answer(q, reader) {
            let loc = at.get(&pk).ok_or_else(|| format!("{q:?}: pk {pk} is not in the heap"))?;
            want.push((*loc, cells));
        }
        want.sort_by_key(|&(loc, _)| loc);
        want.truncate(q.limit_rows().unwrap_or(usize::MAX));
        let mut got = Vec::with_capacity(r.rows.len());
        for (i, &loc) in r.rows.iter().enumerate() {
            let row = db.heap().get(loc).map_err(|e| format!("{q:?}: row at {loc:?}: {e}"))?;
            let cells = project(&row, q.projection());
            if projected.is_some_and(|block| block.row(i) != cells) {
                return Err(format!("{q:?}: projected cells at {loc:?} are not its row's"));
            }
            got.push((loc, cells));
        }
        let same = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
        let (g, w, n, m) = (got.get(same), want.get(same), got.len(), want.len());
        (got == want).then_some(()).ok_or_else(|| {
            format!("{q:?}: engine {n} rows, model {m}; first difference {g:?} / {w:?}")
        })
    }

    /// Check `db` against the model on every query of `panel`, as `reader`.
    /// An auto-commit reader runs each query alone and the panel as one
    /// batch, and with no transaction open the row counts must agree too; a
    /// transaction runs each query alone.
    pub fn verify(
        &self,
        db: &Database,
        panel: &[Query],
        reader: Option<u64>,
    ) -> Result<(), String> {
        let (engine, model) = (db.len(), self.committed.len());
        if self.txns.is_empty() && engine != model {
            return Err(format!("engine holds {engine} rows, the model {model}"));
        }
        let at = self.placement(db)?;
        let batched = match reader {
            None => db.execute_batch(panel, &BatchOptions::default()),
            Some(_) => Vec::new(),
        };
        for (i, q) in panel.iter().enumerate() {
            let alone = reader.map_or_else(|| db.execute(q), |txn| db.execute_for_txn(q, txn));
            self.check_placed(db, &at, q, &alone, reader)
                .map_err(|e| format!("{reader:?}: {e}"))?;
            if let Some(b) = batched.get(i) {
                self.check_placed(db, &at, q, b, None).map_err(|e| format!("batched: {e}"))?;
            }
        }
        Ok(())
    }

    /// [`verify`](Self::verify) as an auto-commit reader, panicking on a
    /// difference.
    pub fn check(&self, db: &Database, panel: &[Query]) {
        if let Err(e) = self.verify(db, panel, None) {
            panic!("engine and model disagree: {e}");
        }
    }

    /// Check the box `leading × value`, forced through the composite index
    /// at `key` ([`Database::lookup_box`]), against the model.
    pub fn verify_box(
        &self,
        db: &Database,
        key: IndexKey,
        leading: RangePredicate,
        value: RangePredicate,
    ) -> Result<(), String> {
        let q = Query::filter(leading).and(value);
        self.check_result(db, &q, &db.lookup_box(key, leading, value), None)
            .map_err(|e| format!("box through {key:?}: {e}"))
    }
}

/// `row`'s cells in `projection`'s order (all of them without one).
fn project(row: &[Value], projection: Option<&[usize]>) -> Vec<Value> {
    match projection {
        None => row.to_vec(),
        Some(cols) => cols.iter().map(|&c| row.get(c).copied().unwrap_or(Value::Null)).collect(),
    }
}

/// A database and a [`Model`] driven together: each statement runs on
/// both, and both must give the same outcome — the same success, or the
/// same [`Refusal`]. Any other engine failure panics: the model has no I/O
/// errors.
pub struct Mirror<'a> {
    db: &'a Database,
    model: &'a mut Model,
}

/// Hold the engine's outcome of `what` to the model's.
fn agree<T, E: Into<CoreError>>(
    what: std::fmt::Arguments<'_>,
    engine: Result<T, E>,
    model: Result<(), Refusal>,
) -> Result<(), Refusal> {
    let engine = engine.map(drop).map_err(|e| match e.into() {
        CoreError::Storage(StorageError::WriteConflict { .. }) => Refusal::Conflict,
        CoreError::Storage(StorageError::PkNotFound { .. }) => Refusal::NotFound,
        e => panic!("{what}: the engine failed: {e}"),
    });
    assert_eq!(engine, model, "{what}: engine and model disagree");
    model
}

impl<'a> Mirror<'a> {
    /// Pair `db` with `model`, which must hold what `db` holds.
    pub fn new(db: &'a Database, model: &'a mut Model) -> Self {
        Mirror { db, model }
    }

    /// Auto-commit insert on both.
    pub fn insert(&mut self, row: &[Value]) -> Result<(), Refusal> {
        agree(format_args!("insert {row:?}"), self.db.insert(row), self.model.insert(row))
    }

    /// Auto-commit delete on both.
    pub fn delete(&mut self, pk: i64) -> Result<(), Refusal> {
        agree(format_args!("delete {pk}"), self.db.delete_by_pk(pk), self.model.delete(pk))
    }

    /// Open a transaction on both; its id is the engine's.
    pub fn begin(&mut self) -> u64 {
        let txn = self.db.begin().unwrap_or_else(|e| panic!("begin: the engine failed: {e}"));
        self.model.begin(txn);
        txn
    }

    /// Transactional insert on both.
    pub fn insert_txn(&mut self, txn: u64, row: &[Value]) -> Result<(), Refusal> {
        agree(
            format_args!("txn {txn} insert {row:?}"),
            self.db.insert_txn(txn, row),
            self.model.insert_txn(txn, row),
        )
    }

    /// Transactional delete on both.
    pub fn delete_txn(&mut self, txn: u64, pk: i64) -> Result<(), Refusal> {
        agree(
            format_args!("txn {txn} delete {pk}"),
            self.db.delete_by_pk_txn(txn, pk),
            self.model.delete_txn(txn, pk),
        )
    }

    /// Commit on both; a commit is never refused.
    pub fn commit(&mut self, txn: u64) {
        self.db.commit(txn).unwrap_or_else(|e| panic!("commit {txn}: the engine failed: {e}"));
        self.model.commit(txn);
    }

    /// Roll back on both.
    pub fn rollback(&mut self, txn: u64) {
        self.db.rollback(txn).unwrap_or_else(|e| panic!("rollback {txn}: the engine failed: {e}"));
        self.model.rollback(txn);
    }
}
