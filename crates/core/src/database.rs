//! The database facade: one table, a primary index, and secondary indexes.
//!
//! This is the integration point of the whole system. A [`Database`] owns:
//!
//! * a heap — a slotted-page [`PagedTable`] behind a buffer pool. An
//!   in-memory database ([`Database::new`], the DBMS-X setting) keeps its
//!   pages in a [`SimulatedPageStore`] behind a pool that holds every
//!   laptop-scale figure table without eviction; a durable one
//!   ([`Database::create_durable`]) keeps them in a file (the PostgreSQL
//!   setting of §7.8);
//! * a primary index (primary key → row location), used both for
//!   uniqueness and to resolve logical tids: a hash map, or on a
//!   physical-pointer database from [`Database::new_paged`] a map of runs
//!   of consecutive keys in consecutive slots ([`HashPrimaryIndex`]);
//! * secondary indexes in one registry, each named by an [`IndexKey`] — a
//!   column behind an optional leading column — and each a baseline
//!   B+-tree on one column or two, or a Hermit TRS-Tree
//!   ([`SecondaryIndex`]).
//!
//! The tuple-identifier scheme ([`TidScheme`]) is fixed per database, as in
//! real systems (PostgreSQL = physical, MySQL = logical).
//!
//! # Concurrency
//!
//! Every component a query or a DML statement touches is individually
//! latched, so reads, writes, transactions, checkpoints and maintenance
//! sweeps all take `&self`, and a database is served from many threads at
//! once through [`crate::shared::SharedDatabase`] — an `Arc` handle that
//! dereferences to it and adds no method of its own:
//!
//! * the heap's buffer pool is internally synchronized (its shard locks are
//!   leaves);
//! * the primary index sits behind an `RwLock`;
//! * baseline B+-trees, single-column and composite, each carry their own
//!   `RwLock`, and Hermit indexes, single-column and composite, use
//!   [`hermit_trs::ConcurrentTrsTree`] — the Appendix-B protocol with a
//!   side buffer for writes that race a background reorganization.
//!
//! The order in which these latches may nest is **not** documented here:
//! the canonical declaration is [`crate::latches::LATCH_HIERARCHY`], and
//! its rank types make every acquisition in this crate take a token that
//! proves the order. If you add a lock site, read that module first.
//!
//! Structural DDL (creating indexes, changing TRS parameters) still takes
//! `&mut self`: the index registry is not latched, which keeps every
//! per-query lookup latch-free. Build the schema first, then share.

use crate::breakdown::{InsertBreakdown, InsertTimer};
use crate::composite::CompositeKey;
use crate::correlation::{discover_correlations, DiscoveryConfig};
use crate::error::CoreError;
use crate::index::{IndexKey, SecondaryIndex};
use crate::latches::{Held, LatchedRwLock, Primary, Visibility, Witnessed};
use crate::recovery::Bracket;
use hermit_btree::{BPlusTree, HashPrimaryIndex};
use hermit_storage::paged::{BufferPool, PagedTable, SimulatedPageStore, PAGE_SIZE};
use hermit_storage::wal::WalRecord;
use hermit_storage::{
    ColumnId, F64Key, RowLoc, RowRef, Schema, StorageError, Tid, TidScheme, Value,
};
use hermit_trs::{ConcurrentTrsTree, PairSource, TrsParams, TrsTree};
use hermit_txn::TxnManager;
use parking_lot::RwLockReadGuard;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Frames of the buffer pool behind an in-memory database
/// ([`Database::new`]): every scale-1 figure table stays resident with room
/// to spare — the largest, Fig. 23's 1 M synthetic rows, fills ≈ 4.4 K
/// pages, and 2 M such rows would fill ≈ 8.9 K. Frame bookkeeping is
/// allocated up front (≈ 0.55 MiB for an empty database), page buffers only
/// as the table grows into them. The pool has one shard, so a page-ordered
/// validation batch takes its lock once — the read side, which concurrent
/// readers share.
pub const IN_MEMORY_POOL_PAGES: usize = 16 * 1024;

/// Memory usage of one database, split the way the paper's space-breakdown
/// figures (5b, 7b, 20b) report it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Base-table bytes.
    pub table: usize,
    /// Primary index + host-column baseline indexes ("existing indexes").
    pub existing_indexes: usize,
    /// Newly created indexes under test (baseline or Hermit).
    pub new_indexes: usize,
}

impl MemoryReport {
    /// Sum of all components.
    pub fn total(&self) -> usize {
        self.table + self.existing_indexes + self.new_indexes
    }
}

/// I/O-side counters of the buffer pool and its page store (see
/// [`Database::pool_io_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolIoCounters {
    /// Buffer-pool misses whose page-store read failed.
    pub read_errors: u64,
    /// Buffer-pool misses served by reading one record through, with no
    /// page installed (`PoolStats::read_through`).
    pub read_through: u64,
    /// Reads the store served, whole pages and records. Can exceed the
    /// pool's misses: two threads missing on one page both read it, and a
    /// read whose image went stale in flight is read again as a page.
    pub store_reads: u64,
    /// Page writes the store accepted (allocations, evictions, flushes).
    pub store_writes: u64,
}

/// A single-table database with Hermit support.
pub struct Database {
    pub(crate) heap: PagedTable,
    pub(crate) scheme: TidScheme,
    pub(crate) pk_col: ColumnId,
    pub(crate) primary: LatchedRwLock<Primary, HashPrimaryIndex>,
    /// Every secondary index, single-column and composite, by key. The map
    /// itself only changes under `&mut self` (DDL); each index is
    /// internally latched, so DML and queries share it latch-free.
    pub(crate) indexes: BTreeMap<IndexKey, SecondaryIndex>,
    /// Indexes that existed before the experiment began; their maintenance
    /// cost and memory are charged to "existing indexes" in breakdowns.
    pub(crate) existing: Vec<IndexKey>,
    pub(crate) trs_params: TrsParams,
    /// Checkpoint/WAL state for restart-survivable databases (see
    /// [`crate::recovery`]); `None` for ephemeral ones. DML holds its
    /// quiesce latch (read side) across the heap apply + WAL append so a
    /// checkpoint observes no half-logged statements.
    pub(crate) durability: Option<crate::recovery::Durability>,
    /// Transaction table: ids, per-pk write locks, undo bookkeeping, and
    /// snapshot-visibility views (see [`crate::txn`]). Always present —
    /// with no open transactions every hook is a lock-free fast path.
    pub(crate) txns: TxnManager,
}

impl Database {
    /// In-memory database: a paged heap over an in-memory store, whose pool
    /// ([`IN_MEMORY_POOL_PAGES`]) keeps the table resident, and a hash
    /// primary index.
    pub fn new(schema: Schema, pk_col: ColumnId, scheme: TidScheme) -> Self {
        let store = Arc::new(SimulatedPageStore::new());
        let pool = BufferPool::new(store, IN_MEMORY_POOL_PAGES);
        let table = PagedTable::new(schema, Arc::new(pool));
        Self::from_parts(table, scheme, pk_col, HashPrimaryIndex::new())
    }

    /// Paged database over a caller-built table (its own store and pool);
    /// always physical pointers, like PostgreSQL. Its primary index keeps
    /// runs of consecutive keys in consecutive slots
    /// ([`HashPrimaryIndex::with_runs`]).
    pub fn new_paged(table: PagedTable, pk_col: ColumnId) -> Self {
        let primary = HashPrimaryIndex::with_runs(PagedTable::slots_per_page(table.schema()));
        Self::from_parts(table, TidScheme::Physical, pk_col, primary)
    }

    /// A database over `table` whose primary index is `primary`, already
    /// built for it (recovery builds it in `PagedTable::reopen`'s scan).
    pub(crate) fn from_parts(
        table: PagedTable,
        scheme: TidScheme,
        pk_col: ColumnId,
        primary: HashPrimaryIndex,
    ) -> Self {
        Database {
            heap: table,
            scheme,
            pk_col,
            primary: LatchedRwLock::new(primary),
            indexes: BTreeMap::new(),
            existing: Vec::new(),
            trs_params: TrsParams::default(),
            durability: None,
            txns: TxnManager::new(),
        }
    }

    /// Override the TRS-Tree parameters used by subsequent
    /// `create_hermit_index` calls.
    pub fn set_trs_params(&mut self, params: TrsParams) {
        self.trs_params = params;
    }

    /// The tuple-identifier scheme in force.
    pub fn scheme(&self) -> TidScheme {
        self.scheme
    }

    /// The primary-key column.
    pub fn pk_col(&self) -> ColumnId {
        self.pk_col
    }

    /// Borrow the heap.
    pub fn heap(&self) -> &PagedTable {
        &self.heap
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Borrow the single-column secondary index on `col`.
    pub fn index(&self, col: ColumnId) -> Option<&SecondaryIndex> {
        self.indexes.get(&IndexKey::single(col))
    }

    /// Borrow the secondary index named `key`, single-column or composite.
    pub fn index_at(&self, key: IndexKey) -> Option<&SecondaryIndex> {
        self.indexes.get(&key)
    }

    /// Every secondary index, in key order: single-column ones by column,
    /// then composites by `(leading, column)`.
    pub fn indexes(&self) -> impl Iterator<Item = (IndexKey, &SecondaryIndex)> {
        self.indexes.iter().map(|(&key, index)| (key, index))
    }

    /// The baseline index a Hermit index at `key` routes its translated
    /// probes through: the one at `(key.leading, host)`, if that is a
    /// baseline of the matching shape.
    pub(crate) fn host_index(&self, key: IndexKey, host: ColumnId) -> Option<&SecondaryIndex> {
        let index = self.indexes.get(&key.host(host))?;
        match (index, key.leading) {
            (SecondaryIndex::Baseline(_), None) | (SecondaryIndex::Composite(_), Some(_)) => {
                Some(index)
            }
            _ => None,
        }
    }

    /// The primary index (read latch), without a token: for callers
    /// outside the engine, checked by the runtime witness only.
    #[expect(clippy::disallowed_methods, reason = "the tokenless accessor itself")]
    pub fn primary(&self) -> Witnessed<RwLockReadGuard<'_, HashPrimaryIndex>> {
        self.primary.read()
    }

    /// Build the tid for a newly inserted row.
    fn make_tid(&self, pk: i64, loc: RowLoc) -> Tid {
        match self.scheme {
            TidScheme::Logical => Tid::from_pk(pk),
            TidScheme::Physical => Tid::from_loc(loc),
        }
    }

    /// The tid of the live row `row` at `loc` (an index build's scan):
    /// the pk is read from the row only under logical pointers.
    fn row_tid(&self, loc: RowLoc, row: &RowRef<'_>) -> Tid {
        match self.scheme {
            TidScheme::Logical => Tid::from_pk(row.value(self.pk_col).as_i64().unwrap_or(0)),
            TidScheme::Physical => Tid::from_loc(loc),
        }
    }

    /// Resolve a tid to a row location (the primary-index hop under logical
    /// pointers).
    pub fn resolve(&self, tid: Tid) -> Option<RowLoc> {
        match self.scheme {
            TidScheme::Physical => Some(tid.as_loc()),
            TidScheme::Logical => self.primary.read_at(&mut Held::unlocked()).get(tid.as_pk()),
        }
    }

    /// Insert a row, maintaining the primary and all secondary indexes.
    ///
    /// Takes `&self`: every touched structure is internally latched, so
    /// writers may run concurrently with each other and with readers (see
    /// the module docs and [`crate::shared`]).
    pub fn insert(&self, row: &[Value]) -> hermit_storage::Result<Tid> {
        self.insert_with(row, InsertTimer(None))
    }

    /// Insert with per-phase timing (Fig. 22's harness); [`insert`](Self::insert)
    /// reads no clock.
    ///
    /// The tuple lands in the base table first and in the indexes second —
    /// the real-RDBMS ordering the Appendix-B reorganization scan relies on
    /// (a rebuild scan sees at least the tuples the index has).
    pub fn insert_timed(
        &self,
        row: &[Value],
        breakdown: &mut InsertBreakdown,
    ) -> hermit_storage::Result<Tid> {
        self.insert_with(row, InsertTimer(Some(breakdown)))
    }

    fn insert_with(&self, row: &[Value], timer: InsertTimer<'_>) -> hermit_storage::Result<Tid> {
        // Durable databases: refuse up front while the WAL is poisoned,
        // then hold the quiesce latch (shared side) and the WAL guard
        // across heap apply + WAL append. The quiesce latch keeps a live
        // checkpoint from cutting between the two; the WAL guard keeps
        // apply order and log order identical across threads (same-pk
        // races would otherwise replay in the wrong order). See
        // `crate::recovery`.
        let mut root = Held::unlocked();
        let bracket = self.bracket(&mut root)?;
        let pk = row
            .get(self.pk_col)
            .and_then(|v| v.as_i64())
            .ok_or(StorageError::TypeMismatch { column: self.pk_col, expected: "Int" })?;
        // First-writer-wins against open transactions: a pk they have
        // dirtied is off limits to auto-commit writers too.
        self.txns.check_unlocked(pk).map_err(|_| StorageError::WriteConflict { pk })?;

        let mut statement = match bracket {
            Bracket::Logged(statement) => statement,
            Bracket::Unlogged(root) => {
                return self.apply_insert(row, None, pk, timer, root.weaken())
            }
        };
        // The row is encoded once, into its log record, and checked against
        // the schema on the way; the heap stores the same cells.
        let (log, held) = statement.split();
        log.stage_insert(None, row.len(), |out| self.heap.encode_row(row, out))?;
        let tid = self.apply_insert(row, Some(log.staged_cells()), pk, timer, held.weaken())?;
        // Log last: the WAL is a redo log of *applied* statements, so a
        // failed insert never leaves a record to replay. At a commit point
        // the guard is released before the wait for the fsync.
        statement.commit_staged()?;
        Ok(tid)
    }

    /// Physically apply an insert: heap, primary index, secondary index
    /// maintenance. No conflict check, no WAL — the shared
    /// apply step of auto-commit inserts, transactional inserts, recovery
    /// replay, and rollback compensation. `encoded` is the row's record when
    /// the caller already encoded it ([`PagedTable::encode_row`]). Runs at
    /// the visibility rank: under a transaction's visibility latch, or
    /// weakened from a statement's or a root token.
    pub(crate) fn apply_insert(
        &self,
        row: &[Value],
        encoded: Option<&[u8]>,
        pk: i64,
        mut timer: InsertTimer<'_>,
        held: &mut Held<Visibility>,
    ) -> hermit_storage::Result<Tid> {
        let t0 = timer.start();
        let loc = match encoded {
            Some(encoded) => self.heap.insert_encoded(row, encoded)?,
            None => self.heap.insert(row)?,
        };
        self.primary.write_at(held).insert(pk, loc);
        timer.charge(t0, |b| &mut b.table);
        let tid = self.make_tid(pk, loc);

        // Maintain every index, charging existing vs new separately.
        for (key, index) in &self.indexes {
            let t1 = timer.start();
            match index {
                SecondaryIndex::Baseline(tree) => {
                    if let Some(v) = row[key.column].as_f64() {
                        tree.write_at(held).insert(F64Key(v), tid);
                    }
                }
                SecondaryIndex::Composite(tree) => {
                    if let Some(k) = composite_key(*key, row) {
                        tree.write_at(held).insert(k, tid);
                    }
                }
                SecondaryIndex::Hermit { trs, host } => {
                    if let (Some(m), Some(n)) = (row[key.column].as_f64(), row[*host].as_f64()) {
                        trs.insert(m, n, tid);
                    }
                }
            }
            timer.charge(t1, |b| {
                if self.existing.contains(key) {
                    &mut b.existing_indexes
                } else {
                    &mut b.new_indexes
                }
            });
        }
        Ok(tid)
    }

    /// Delete a row by primary key, maintaining all indexes.
    ///
    /// The heap delete happens *first*, as one atomic fetch-and-tombstone:
    /// if it fails, no index has been touched and the database stays
    /// consistent (previously the secondary indexes were updated before
    /// the heap, so a failing heap delete left them
    /// disagreeing with the base table). Index entries are removed after; a
    /// concurrent reader that still finds the stale tid simply fails tid
    /// resolution / validation, exactly like any other dead candidate.
    pub fn delete_by_pk(&self, pk: i64) -> hermit_storage::Result<()> {
        let mut root = Held::unlocked();
        let mut bracket = self.bracket(&mut root)?;
        self.txns.check_unlocked(pk).map_err(|_| StorageError::WriteConflict { pk })?;
        self.apply_delete(pk, bracket.held().weaken())?;
        if let Bracket::Logged(statement) = bracket {
            statement.commit_auto(&WalRecord::Delete { pk })?;
        }
        Ok(())
    }

    /// Physically apply a delete by pk: heap fetch-and-tombstone first,
    /// then primary and secondary index removal. No conflict
    /// check, no WAL — the shared apply step of auto-commit deletes,
    /// transactional deletes, recovery replay, and rollback compensation.
    /// Returns the deleted row's pre-image. Runs at the visibility rank,
    /// like [`apply_insert`](Self::apply_insert).
    pub(crate) fn apply_delete(
        &self,
        pk: i64,
        held: &mut Held<Visibility>,
    ) -> hermit_storage::Result<Vec<Value>> {
        let loc = self.primary.read_at(held).get(pk).ok_or(StorageError::PkNotFound { pk })?;
        let row = self.heap.delete_returning(loc)?;
        let tid = self.make_tid(pk, loc);
        self.primary.write_at(held).remove(pk);
        for (key, index) in &self.indexes {
            match index {
                SecondaryIndex::Baseline(tree) => {
                    if let Some(v) = row[key.column].as_f64() {
                        tree.write_at(held).remove(&F64Key(v), &tid);
                    }
                }
                SecondaryIndex::Composite(tree) => {
                    if let Some(k) = composite_key(*key, &row) {
                        tree.write_at(held).remove(&k, &tid);
                    }
                }
                SecondaryIndex::Hermit { trs, .. } => {
                    if let Some(m) = row[key.column].as_f64() {
                        trs.delete(m, tid);
                    }
                }
            }
        }
        Ok(row)
    }

    /// Create a complete baseline B+-tree index on `col`, bulk-loaded from
    /// the current table contents. `existing` marks it as a pre-existing
    /// index for breakdown accounting (host indexes, primary-adjacent
    /// indexes).
    pub fn create_baseline_index(
        &mut self,
        col: ColumnId,
        existing: bool,
    ) -> hermit_storage::Result<()> {
        self.create_baseline_at(IndexKey::single(col), existing)
    }

    /// Create a Hermit index on `target` routed through `host`, whose
    /// baseline index must already exist — violating the paper's
    /// precondition is a typed [`CoreError::MissingHostIndex`], not a
    /// panic.
    pub fn create_hermit_index(
        &mut self,
        target: ColumnId,
        host: ColumnId,
    ) -> Result<(), CoreError> {
        self.create_hermit_at(IndexKey::single(target), host)
    }

    /// Create a composite baseline B+-tree on `(leading, value)`,
    /// bulk-loaded from the current table contents: subsequent DML
    /// maintains it and the query planner can choose it for box queries.
    /// Returns its key.
    pub fn create_composite_baseline(
        &mut self,
        leading: ColumnId,
        value: ColumnId,
    ) -> Result<IndexKey, CoreError> {
        let key = IndexKey::composite(leading, value);
        self.create_baseline_at(key, false)?;
        Ok(key)
    }

    /// Bulk-load a complete baseline B+-tree at `key` — on one column, or
    /// on `(leading, column)` — from the current table contents.
    /// `existing` charges it to the existing indexes.
    pub(crate) fn create_baseline_at(
        &mut self,
        key: IndexKey,
        existing: bool,
    ) -> hermit_storage::Result<()> {
        // An unknown column is a typed error, not an empty index.
        if let Some(leading) = key.leading {
            self.heap.stats(leading)?;
        }
        self.heap.stats(key.column)?;
        let index = match key.leading {
            None => {
                SecondaryIndex::baseline(self.bulk_load(|row| row.f64(key.column).map(F64Key))?)
            }
            Some(leading) => {
                SecondaryIndex::Composite(LatchedRwLock::new(self.bulk_load(|row| {
                    Some((F64Key(row.f64(leading)?), F64Key(row.f64(key.column)?)))
                })?))
            }
        };
        self.register(key, index, existing);
        Ok(())
    }

    /// Create a composite Hermit index on `(leading, target)` routed
    /// through `host`: requires a composite baseline on `(leading, host)`
    /// (typed [`CoreError::MissingHostIndex`] otherwise). Returns its key.
    pub fn create_composite_hermit(
        &mut self,
        leading: ColumnId,
        target: ColumnId,
        host: ColumnId,
    ) -> Result<IndexKey, CoreError> {
        let key = IndexKey::composite(leading, target);
        self.create_hermit_at(key, host)?;
        Ok(key)
    }

    /// Build a Hermit index at `key` on `key.column → host`. The paper's
    /// precondition: the baseline at `(key.leading, host)` must already
    /// exist for the TRS-Tree's second hop to probe.
    pub(crate) fn create_hermit_at(
        &mut self,
        key: IndexKey,
        host: ColumnId,
    ) -> Result<(), CoreError> {
        if self.host_index(key, host).is_none() {
            return Err(CoreError::MissingHostIndex {
                leading: key.leading,
                target: key.column,
                host,
            });
        }
        let trs = self.build_trs(key.column, host)?;
        self.register(key, SecondaryIndex::Hermit { trs, host }, false);
        Ok(())
    }

    /// Put `index` into the registry at `key`, replacing whatever was
    /// there; `existing` charges it to the existing indexes.
    pub(crate) fn register(&mut self, key: IndexKey, index: SecondaryIndex, existing: bool) {
        self.indexes.insert(key, index);
        if existing && !self.existing.contains(&key) {
            self.existing.push(key);
        }
    }

    /// Bulk-load a B+-tree keyed by `key` in one pass over the heap, no row
    /// boxed; rows `key` maps to `None` are left out. Sorting the pairs is
    /// the stable sort by key whenever scan order has tids ascending, as it
    /// always does under physical pointers.
    fn bulk_load<K: Ord + Copy>(
        &self,
        key: impl Fn(&RowRef<'_>) -> Option<K>,
    ) -> hermit_storage::Result<BPlusTree<K, Tid>> {
        let mut entries: Vec<(K, Tid)> = Vec::with_capacity(self.heap.len());
        self.heap.for_each_live_row(|loc, row| {
            if let Some(k) = key(&row) {
                entries.push((k, self.row_tid(loc, &row)));
            }
            true
        })?;
        entries.sort_unstable();
        Ok(BPlusTree::bulk_load(entries))
    }

    /// Build a TRS-Tree on `target → host` from Algorithm 1's temporary
    /// table: `(target, host, tid)` projected in one pass over the heap,
    /// skipping rows where either side is NULL. The caller has checked the
    /// host column.
    fn build_trs(
        &self,
        target: ColumnId,
        host: ColumnId,
    ) -> hermit_storage::Result<ConcurrentTrsTree> {
        let range = self.heap.stats(target)?.range().unwrap_or((0.0, 0.0));
        let mut pairs = Vec::with_capacity(self.heap.len());
        self.heap.for_each_live_row(|loc, row| {
            if let (Some(m), Some(n)) = (row.f64(target), row.f64(host)) {
                pairs.push((m, n, self.row_tid(loc, &row)));
            }
            true
        })?;
        Ok(ConcurrentTrsTree::new(TrsTree::build(self.trs_params, range, pairs)))
    }

    /// The paper's index-creation flow (§3): on `CREATE INDEX`, check the
    /// correlation registry for a qualifying host column that already has
    /// an index; build a Hermit index if one exists, otherwise fall back to
    /// a baseline index. Returns `true` if a Hermit index was created.
    pub fn create_index_auto(
        &mut self,
        target: ColumnId,
        config: &DiscoveryConfig,
    ) -> Result<bool, CoreError> {
        let hosts: Vec<ColumnId> = self
            .indexes
            .iter()
            .filter(|(key, idx)| {
                matches!(idx, SecondaryIndex::Baseline(_)) && key.leading.is_none()
            })
            .map(|(key, _)| key.column)
            .collect();
        let candidates = discover_correlations(&self.heap, target, &hosts, config);
        if let Some(best) = candidates.first() {
            self.create_hermit_index(target, best.host)?;
            Ok(true)
        } else {
            self.create_baseline_index(target, false)?;
            Ok(false)
        }
    }

    /// Buffer-pool counters — `(hits, misses, evictions)` since startup (or
    /// the pool's last reset). Always `Some`: every database has a pool.
    /// The serving layer's `Stats` exporter reads this.
    pub fn pool_counters(&self) -> Option<(u64, u64, u64)> {
        let stats = self.heap.pool().stats();
        Some((stats.hits(), stats.misses(), stats.evictions()))
    }

    /// Bytes of page images the buffer pool holds (resident frames × page
    /// size), plus the heap's page summary that lets the pool read a cold
    /// record through.
    pub fn pool_bytes(&self) -> usize {
        self.heap.pool().frame_counts().0 * PAGE_SIZE + self.heap.summary_bytes()
    }

    /// The pool's I/O-side counters, next to
    /// [`pool_counters`](Self::pool_counters): failed page loads and the
    /// page store's own read/write counts.
    pub fn pool_io_counters(&self) -> PoolIoCounters {
        let pool = self.heap.pool();
        let io = pool.store().stats();
        PoolIoCounters {
            read_errors: pool.stats().read_errors(),
            read_through: pool.stats().read_through(),
            store_reads: io.reads(),
            store_writes: io.writes(),
        }
    }

    /// WAL records appended since the last commit-batch fsync — the depth
    /// of the not-yet-durable tail, bounded by
    /// [`DurabilityConfig::wal_sync_every`](crate::recovery::DurabilityConfig).
    /// `None` for non-durable databases. Takes the WAL guard briefly, so
    /// calling it from a metrics scrape contends with durable DML exactly
    /// like one more statement would.
    pub fn wal_depth(&self) -> Option<usize> {
        self.durability.as_ref().map(|d| d.wal_depth())
    }

    /// Memory report split the way the paper's breakdown figures are.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = MemoryReport {
            table: self.heap.page_count() * PAGE_SIZE,
            existing_indexes: self.primary.read_at(&mut Held::unlocked()).memory_bytes(),
            new_indexes: 0,
        };
        for (key, index) in &self.indexes {
            if self.existing.contains(key) {
                report.existing_indexes += index.memory_bytes();
            } else {
                report.new_indexes += index.memory_bytes();
            }
        }
        report
    }
}

/// The two-column key of `row` in the composite index at `key`; `None`
/// when either cell is NULL (or `key` names one column).
pub(crate) fn composite_key(key: IndexKey, row: &[Value]) -> Option<CompositeKey> {
    Some((F64Key(row[key.leading?].as_f64()?), F64Key(row[key.column].as_f64()?)))
}

/// [`PairSource`] adapter so TRS-Tree reorganization can re-scan a
/// database's base table for a (target, host) pair.
pub struct TablePairSource<'a> {
    /// The database to scan.
    pub db: &'a Database,
    /// Target column of the TRS-Tree being reorganized.
    pub target: ColumnId,
    /// Host column of the TRS-Tree being reorganized.
    pub host: ColumnId,
}

impl PairSource for TablePairSource<'_> {
    /// One pass over the heap that keeps only the rows whose target lies in
    /// `[lb, ub]`: nothing outside the range is projected. A heap page that
    /// cannot be read fails the whole scan.
    fn scan_range(&self, lb: f64, ub: f64) -> hermit_storage::Result<Vec<(f64, f64, Tid)>> {
        let mut out = Vec::new();
        self.db.heap.for_each_live_row(|loc, row| {
            if let Some(m) = row.f64(self.target).filter(|m| *m >= lb && *m <= ub) {
                if let Some(n) = row.f64(self.host) {
                    out.push((m, n, self.db.row_tid(loc, &row)));
                }
            }
            true
        })?;
        Ok(out)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests inspect the structures from outside, like any caller of the crate"
)]
mod tests {
    use super::*;
    use hermit_storage::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
        ])
    }

    fn populated(scheme: TidScheme, n: usize) -> Database {
        let db = Database::new(schema(), 0, scheme);
        for i in 0..n {
            let m = i as f64;
            db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
        }
        db
    }

    #[test]
    fn insert_and_resolve_both_schemes() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = Database::new(schema(), 0, scheme);
            let tid = db.insert(&[Value::Int(7), Value::Float(1.0), Value::Float(2.0)]).unwrap();
            let loc = db.resolve(tid).expect("tid resolves");
            assert_eq!(db.heap().get(loc).unwrap()[0], Value::Int(7));
        }
    }

    #[test]
    fn baseline_index_builds_and_maintains() {
        let mut db = populated(TidScheme::Physical, 1_000);
        db.create_baseline_index(2, false).unwrap();
        let SecondaryIndex::Baseline(tree) = db.index(2).unwrap() else { panic!() };
        assert_eq!(tree.read().len(), 1_000);
        // Subsequent inserts maintain it.
        db.insert(&[Value::Int(5_000), Value::Float(0.0), Value::Float(123.456)]).unwrap();
        let SecondaryIndex::Baseline(tree) = db.index(2).unwrap() else { panic!() };
        assert_eq!(tree.read().len(), 1_001);
        assert!(tree.read().contains_key(&F64Key(123.456)));
    }

    #[test]
    fn hermit_index_requires_host() {
        let mut db = populated(TidScheme::Physical, 100);
        assert_eq!(
            db.create_hermit_index(2, 1),
            Err(CoreError::MissingHostIndex { leading: None, target: 2, host: 1 }),
            "missing host index must be a typed error, not a panic"
        );
        // A Hermit index on the host does not satisfy it either.
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        assert_eq!(
            db.create_hermit_index(3, 2),
            Err(CoreError::MissingHostIndex { leading: None, target: 3, host: 2 }),
            "a TRS-Tree cannot serve as a host index"
        );
    }

    #[test]
    fn hermit_index_builds_on_host() {
        let mut db = populated(TidScheme::Physical, 10_000);
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        let idx = db.index(2).unwrap();
        assert!(idx.is_hermit());
        assert_eq!(idx.host_column(), Some(1));
        // The succinct index must be far smaller than the host B+-tree.
        let host_bytes = db.index(1).unwrap().memory_bytes();
        assert!(
            idx.memory_bytes() * 10 < host_bytes,
            "TRS-Tree ({}) should be ≪ B+-tree ({})",
            idx.memory_bytes(),
            host_bytes
        );
    }

    #[test]
    fn auto_index_picks_hermit_when_correlated() {
        let mut db = populated(TidScheme::Physical, 20_000);
        db.create_baseline_index(1, true).unwrap();
        let used_hermit = db.create_index_auto(2, &DiscoveryConfig::default()).unwrap();
        assert!(used_hermit, "perfectly correlated column must get a Hermit index");
        assert!(db.index(2).unwrap().is_hermit());
    }

    #[test]
    fn auto_index_falls_back_to_baseline() {
        // Host column is uncorrelated noise.
        let mut db = Database::new(schema(), 0, TidScheme::Physical);
        let mut state = 1u64;
        for i in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64;
            db.insert(&[Value::Int(i), Value::Float(noise), Value::Float(i as f64)]).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        let used_hermit = db.create_index_auto(2, &DiscoveryConfig::default()).unwrap();
        assert!(!used_hermit, "uncorrelated host must fall back to baseline");
        assert!(!db.index(2).unwrap().is_hermit());
    }

    /// A correlated table that held four times as many uncorrelated rows,
    /// all deleted by now, still gets its Hermit index: the tombstoned rows
    /// are not part of discovery's sample.
    #[test]
    fn auto_index_ignores_deleted_rows() {
        let mut db = populated(TidScheme::Physical, 5_000);
        let mut state = 1u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Value::Float((state >> 33) as f64)
        };
        for pk in 5_000..25_000 {
            db.insert(&[Value::Int(pk), noise(), noise()]).unwrap();
        }
        for pk in 5_000..25_000 {
            db.delete_by_pk(pk).unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        assert!(db.create_index_auto(2, &DiscoveryConfig::default()).unwrap());
    }

    /// A non-durable paged database, over its own small pool.
    fn paged(n: usize) -> Database {
        let pool = BufferPool::new(Arc::new(SimulatedPageStore::new()), 64);
        let db = Database::new_paged(PagedTable::new(schema(), Arc::new(pool)), 0);
        for i in 0..n {
            let m = i as f64;
            db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
        }
        db
    }

    #[test]
    fn auto_index_finds_the_host_on_a_paged_database() {
        let mut db = paged(20_000);
        db.create_baseline_index(1, true).unwrap();
        assert!(db.create_index_auto(2, &DiscoveryConfig::default()).unwrap());
        assert_eq!(db.index(2).unwrap().host_column(), Some(1));
    }

    /// Both composite kinds on both non-durable databases. (A durable one
    /// keeps them too, across a restart: `tests/durability.rs`.)
    #[test]
    fn composites_are_refused_only_on_a_durable_database() {
        for mut db in [populated(TidScheme::Logical, 5_000), paged(5_000)] {
            let rows = |db: &Database, key| {
                let leading = crate::RangePredicate::range(0, 1_000.0, 3_000.0);
                let value = crate::RangePredicate::range(2, 1_500.0, 2_000.0);
                db.lookup_box(key, leading, value).rows.len()
            };
            let host = db.create_composite_baseline(0, 1).unwrap();
            let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
            let hermit_rows = rows(&db, hermit);
            // The direct baseline takes the Hermit index's key.
            let direct = db.create_composite_baseline(0, 2).unwrap();
            let composites = db.indexes().filter(|(key, _)| key.leading.is_some()).count();
            assert_eq!(
                (host, hermit, direct, composites),
                (IndexKey::composite(0, 1), IndexKey::composite(0, 2), hermit, 2)
            );
            assert_eq!((hermit_rows, rows(&db, direct)), (501, 501));
        }
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut db = populated(TidScheme::Logical, 1_000);
        db.create_baseline_index(2, false).unwrap();
        db.delete_by_pk(500).unwrap();
        assert_eq!(db.len(), 999);
        let SecondaryIndex::Baseline(tree) = db.index(2).unwrap() else { panic!() };
        assert!(!tree.read().contains_key(&F64Key(500.0)));
        assert_eq!(
            db.delete_by_pk(500),
            Err(StorageError::PkNotFound { pk: 500 }),
            "double delete reports the missing primary key, not a bogus row location"
        );
    }

    #[test]
    fn memory_report_separates_new_from_existing() {
        let mut db = populated(TidScheme::Physical, 5_000);
        db.create_baseline_index(1, true).unwrap(); // existing (host)
        db.create_hermit_index(2, 1).unwrap(); // new
        let report = db.memory_report();
        assert_eq!(report.table, db.heap().page_count() * PAGE_SIZE);
        assert!(report.table > 0);
        assert!(report.existing_indexes > 0);
        assert!(report.new_indexes > 0);
        assert!(
            report.new_indexes < report.existing_indexes,
            "Hermit new-index share must be small: {report:?}"
        );
        assert_eq!(report.total(), report.table + report.existing_indexes + report.new_indexes);

        // A composite baseline and the composite Hermit index routed
        // through it count once each, as new indexes.
        let host = db.create_composite_baseline(0, 1).unwrap();
        let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
        let composite_bytes: usize =
            [host, hermit].iter().map(|&key| db.index_at(key).unwrap().memory_bytes()).sum();
        assert!(composite_bytes > 0);
        let after = db.memory_report();
        assert_eq!(after.existing_indexes, report.existing_indexes);
        assert_eq!(after.new_indexes, report.new_indexes + composite_bytes);
    }

    #[test]
    fn table_pair_source_scans_ranges() {
        let db = populated(TidScheme::Physical, 1_000);
        let src = TablePairSource { db: &db, target: 2, host: 1 };
        let pairs = src.scan_range(100.0, 110.0).unwrap();
        assert_eq!(pairs.len(), 11);
        assert!(pairs.iter().all(|(m, n, _)| *n == 2.0 * *m));
    }
}
