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
//! * per-column secondary indexes, each a baseline B+-tree or a Hermit
//!   TRS-Tree ([`SecondaryIndex`]), and composite `(leading, value)`
//!   indexes on a non-durable database.
//!
//! The tuple-identifier scheme ([`TidScheme`]) is fixed per database, as in
//! real systems (PostgreSQL = physical, MySQL = logical).
//!
//! # Concurrency
//!
//! Every component a query or a DML statement touches is individually
//! latched, so reads and writes take `&self` and a database can be served
//! from many threads at once through [`crate::shared::SharedDatabase`]:
//!
//! * the heap's buffer pool is internally synchronized (its shard locks are
//!   leaves);
//! * the primary index and the composite-index registry sit behind
//!   `RwLock`s;
//! * baseline secondary B+-trees each carry their own `RwLock`, and Hermit
//!   indexes use [`hermit_trs::ConcurrentTrsTree`] — the Appendix-B
//!   protocol with a side buffer for writes that race a background
//!   reorganization.
//!
//! The order in which these latches may nest is **not** documented here:
//! the canonical declaration is [`crate::latches::LATCH_HIERARCHY`], and
//! its rank types make every acquisition in this crate take a token that
//! proves the order. If you add a lock site, read that module first.
//!
//! Structural DDL (creating indexes, changing TRS parameters) still takes
//! `&mut self`: the index *registry* itself is not latched, which keeps
//! every per-query lookup latch-free. Build the schema first, then share.

use crate::breakdown::{InsertBreakdown, InsertTimer};
use crate::composite::{build_composite_tree, build_composite_trs, CompositeIndexes};
use crate::correlation::{discover_correlations, DiscoveryConfig};
use crate::error::CoreError;
use crate::index::SecondaryIndex;
use crate::latches::{
    Below, Held, LatchedRwLock, Primary, ReadGuard, Registry, Visibility, Witnessed, WriteGuard,
};
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
    /// Secondary indexes by indexed column. The map itself only changes
    /// under `&mut self` (DDL); each index is internally latched, so DML
    /// and queries share it latch-free.
    pub(crate) secondary: BTreeMap<ColumnId, SecondaryIndex>,
    /// Composite `(leading, value)` secondary indexes, maintained on insert
    /// and visible to the query planner.
    pub(crate) composites: LatchedRwLock<Registry, CompositeIndexes>,
    /// Whether `composites` holds an index. Registration takes `&mut self`,
    /// so DML reads this without the registry's latch.
    pub(crate) has_composites: bool,
    /// Columns whose indexes existed before the experiment began; their
    /// maintenance cost is charged to "existing indexes" in breakdowns.
    pub(crate) existing: Vec<ColumnId>,
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
            secondary: BTreeMap::new(),
            composites: LatchedRwLock::new(CompositeIndexes::new()),
            has_composites: false,
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

    /// The composite-index registry the planner consults (read latch).
    pub fn composites<'t, H: Below<Registry>>(
        &self,
        held: &'t mut Held<H>,
    ) -> ReadGuard<'t, '_, Registry, CompositeIndexes> {
        self.composites.read_at(held)
    }

    /// Write latch over the composite registry (maintenance: composite
    /// Hermit reorganization runs under it).
    pub(crate) fn composites_mut<'t, H: Below<Registry>>(
        &self,
        held: &'t mut Held<H>,
    ) -> WriteGuard<'t, '_, Registry, CompositeIndexes> {
        self.composites.write_at(held)
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

    /// Borrow a secondary index.
    pub fn index(&self, col: ColumnId) -> Option<&SecondaryIndex> {
        self.secondary.get(&col)
    }

    /// Mutable access to a secondary index (reorganization driver).
    pub fn index_mut(&mut self, col: ColumnId) -> Option<&mut SecondaryIndex> {
        self.secondary.get_mut(&col)
    }

    /// Columns with secondary indexes, in column order.
    pub fn indexed_columns(&self) -> Vec<ColumnId> {
        self.secondary.keys().copied().collect()
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

    // hermit-lint: hot-path
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

    /// Physically apply an insert: heap, primary index, secondary and
    /// composite index maintenance. No conflict check, no WAL — the shared
    /// apply step of auto-commit inserts, transactional inserts, recovery
    /// replay, and rollback compensation. `encoded` is the row's record when
    /// the caller already encoded it ([`PagedTable::encode_row`]). Runs at
    /// the visibility rank: under a transaction's visibility latch, or
    /// weakened from a statement's or a root token.
    // hermit-lint: hot-path
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

        // Maintain secondary indexes, charging existing vs new separately.
        for (&col, index) in self.secondary.iter() {
            let t1 = timer.start();
            match index {
                SecondaryIndex::Baseline(tree) => {
                    if let Some(key) = row[col].as_f64() {
                        tree.write_at(held).insert(F64Key(key), tid);
                    }
                }
                SecondaryIndex::Hermit { trs, host } => {
                    if let (Some(m), Some(n)) = (row[col].as_f64(), row[*host].as_f64()) {
                        trs.insert(m, n, tid);
                    }
                }
            }
            timer.charge(t1, |b| {
                if self.existing.contains(&col) {
                    &mut b.existing_indexes
                } else {
                    &mut b.new_indexes
                }
            });
        }

        // Maintain database-owned composite indexes (charged as new).
        if self.has_composites {
            let t2 = timer.start();
            self.composites.write_at(held).maintain_insert(row, tid);
            timer.charge(t2, |b| &mut b.new_indexes);
        }
        Ok(tid)
    }

    /// Delete a row by primary key, maintaining all indexes.
    ///
    /// The heap delete happens *first*, as one atomic fetch-and-tombstone:
    /// if it fails, no index has been touched and the database stays
    /// consistent (previously the secondary and composite indexes were
    /// updated before the heap, so a failing heap delete left them
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
    /// then primary / secondary / composite index removal. No conflict
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
        for (&col, index) in self.secondary.iter() {
            match index {
                SecondaryIndex::Baseline(tree) => {
                    if let Some(key) = row[col].as_f64() {
                        tree.write_at(held).remove(&F64Key(key), &tid);
                    }
                }
                SecondaryIndex::Hermit { trs, .. } => {
                    if let Some(m) = row[col].as_f64() {
                        trs.delete(m, tid);
                    }
                }
            }
        }
        if self.has_composites {
            self.composites.write_at(held).maintain_delete(&row, tid);
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
        // An unknown column is a typed error, not an empty index.
        self.heap.stats(col)?;
        // Bulk load: project (key, tid) in one pass over the heap, no row
        // boxed. Sorting the pairs is the stable sort by key whenever scan
        // order has tids ascending, as it always does under physical
        // pointers.
        let mut entries: Vec<(F64Key, Tid)> = Vec::with_capacity(self.heap.len());
        self.heap.for_each_live_row(|loc, row| {
            if let Some(k) = row.f64(col) {
                entries.push((F64Key(k), self.row_tid(loc, &row)));
            }
            true
        })?;
        entries.sort_unstable();
        let tree = BPlusTree::bulk_load(entries);
        self.secondary.insert(col, SecondaryIndex::baseline(tree));
        if existing && !self.existing.contains(&col) {
            self.existing.push(col);
        }
        Ok(())
    }

    /// The paper's precondition for a Hermit index: the host column must
    /// already carry a complete baseline index for the TRS-Tree's second
    /// hop to probe.
    fn require_host_index(&self, target: ColumnId, host: ColumnId) -> Result<(), CoreError> {
        if matches!(self.secondary.get(&host), Some(SecondaryIndex::Baseline(_))) {
            Ok(())
        } else {
            Err(CoreError::MissingHostIndex { target, host })
        }
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
        self.require_host_index(target, host)?;
        let range = self.heap.stats(target)?.range().unwrap_or((0.0, 0.0));
        let pairs = self.project_tid_pairs(target, host)?;
        let trs = TrsTree::build(self.trs_params, range, pairs);
        self.secondary
            .insert(target, SecondaryIndex::Hermit { trs: ConcurrentTrsTree::new(trs), host });
        Ok(())
    }

    /// A database *owns* composite indexes only while it is not durable: the
    /// checkpoint catalog records none, so a durable database would lose
    /// them at the next restart. (A standalone [`CompositeIndexes`] registry
    /// can be built over any database; keeping it is its owner's job.)
    fn require_non_durable_for_composites(&self) -> Result<(), CoreError> {
        match self.durability {
            None => Ok(()),
            Some(_) => Err(CoreError::CompositeOnDurable),
        }
    }

    /// Create a composite baseline B+-tree on `(leading, value)`,
    /// bulk-loaded from the current table contents and owned by this
    /// database: subsequent inserts maintain it and the query planner can
    /// choose it for 2-conjunct box queries. Returns its registry position.
    pub fn create_composite_baseline(
        &mut self,
        leading: ColumnId,
        value: ColumnId,
    ) -> Result<usize, CoreError> {
        self.require_non_durable_for_composites()?;
        let tree = build_composite_tree(&self.heap, self.scheme, self.pk_col, leading, value)?;
        self.has_composites = true;
        Ok(self.composites.get_mut().push_baseline(tree, leading, value))
    }

    /// Create a composite Hermit index on `(leading, target)` routed
    /// through `host`: requires a composite baseline on `(leading, host)`
    /// in this database's registry (typed
    /// [`CoreError::MissingCompositeHost`] otherwise). Returns its
    /// registry position.
    pub fn create_composite_hermit(
        &mut self,
        leading: ColumnId,
        target: ColumnId,
        host: ColumnId,
    ) -> Result<usize, CoreError> {
        self.require_non_durable_for_composites()?;
        if self.composites.get_mut().companion_baseline(leading, host).is_none() {
            return Err(CoreError::MissingCompositeHost { leading, host });
        }
        let trs = build_composite_trs(
            &self.heap,
            self.scheme,
            self.pk_col,
            target,
            host,
            self.trs_params,
        )?;
        self.has_composites = true;
        Ok(self.composites.get_mut().push_hermit(trs, leading, target, host))
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
        let hosts: Vec<ColumnId> =
            self.secondary.iter().filter(|(_, idx)| !idx.is_hermit()).map(|(&c, _)| c).collect();
        let candidates = discover_correlations(&self.heap, target, &hosts, config);
        if let Some(best) = candidates.first() {
            self.create_hermit_index(target, best.host)?;
            Ok(true)
        } else {
            self.create_baseline_index(target, false)?;
            Ok(false)
        }
    }

    /// Project `(target, host, tid)` pairs for TRS-Tree construction
    /// (Algorithm 1's temporary table) in one pass over the heap, skipping
    /// rows where either side is NULL. The caller has checked both columns.
    fn project_tid_pairs(
        &self,
        target: ColumnId,
        host: ColumnId,
    ) -> hermit_storage::Result<Vec<(f64, f64, Tid)>> {
        let mut pairs = Vec::with_capacity(self.heap.len());
        self.heap.for_each_live_row(|loc, row| {
            if let (Some(m), Some(n)) = (row.f64(target), row.f64(host)) {
                pairs.push((m, n, self.row_tid(loc, &row)));
            }
            true
        })?;
        Ok(pairs)
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
        for (col, index) in &self.secondary {
            if self.existing.contains(col) {
                report.existing_indexes += index.memory_bytes();
            } else {
                report.new_indexes += index.memory_bytes();
            }
        }
        report
    }
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
    /// cannot be read yields no pairs at all.
    fn scan_range(&self, lb: f64, ub: f64) -> Vec<(f64, f64, Tid)> {
        let mut out = Vec::new();
        let scanned = self.db.heap.for_each_live_row(|loc, row| {
            if let Some(m) = row.f64(self.target).filter(|m| *m >= lb && *m <= ub) {
                if let Some(n) = row.f64(self.host) {
                    out.push((m, n, self.db.row_tid(loc, &row)));
                }
            }
            true
        });
        match scanned {
            Ok(_) => out,
            Err(_) => Vec::new(),
        }
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
            Err(CoreError::MissingHostIndex { target: 2, host: 1 }),
            "missing host index must be a typed error, not a panic"
        );
        // A Hermit index on the host does not satisfy it either.
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        assert_eq!(
            db.create_hermit_index(3, 2),
            Err(CoreError::MissingHostIndex { target: 3, host: 2 }),
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

    /// Both composite kinds on both non-durable databases; a durable one
    /// refuses either with a typed error and registers nothing.
    #[test]
    fn composites_are_refused_only_on_a_durable_database() {
        for mut db in [populated(TidScheme::Logical, 5_000), paged(5_000)] {
            let host = db.create_composite_baseline(0, 1).unwrap();
            let hermit = db.create_composite_hermit(0, 2, 1).unwrap();
            let direct = db.create_composite_baseline(0, 2).unwrap();
            // Out of its latch: a lookup takes the visibility latch, which
            // ranks above the registry.
            let registry = std::mem::take(db.composites.get_mut());
            assert_eq!((host, hermit, direct, registry.len()), (0, 1, 2, 3));
            let rows = |idx| {
                let leading = crate::RangePredicate::range(0, 1_000.0, 3_000.0);
                let value = crate::RangePredicate::range(2, 1_500.0, 2_000.0);
                registry.lookup_box(&db, idx, leading, value).rows.len()
            };
            assert_eq!((rows(hermit), rows(direct)), (501, 501));
        }

        let dir = std::env::temp_dir().join(format!("hermit-dur-composite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::DurabilityConfig::default();
        let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
        db.insert(&[Value::Int(1), Value::Float(2.0), Value::Float(1.0)]).unwrap();
        assert_eq!(db.create_composite_baseline(0, 1), Err(CoreError::CompositeOnDurable));
        assert_eq!(db.create_composite_hermit(0, 2, 1), Err(CoreError::CompositeOnDurable));
        assert_eq!(db.composites(&mut Held::unlocked()).len(), 0);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
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
    }

    #[test]
    fn table_pair_source_scans_ranges() {
        let db = populated(TidScheme::Physical, 1_000);
        let src = TablePairSource { db: &db, target: 2, host: 1 };
        let pairs = src.scan_range(100.0, 110.0);
        assert_eq!(pairs.len(), 11);
        assert!(pairs.iter().all(|(m, n, _)| *n == 2.0 * *m));
    }
}
