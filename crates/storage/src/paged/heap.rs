//! A paged table heap of fixed-width numeric rows.
//!
//! Rows are `Value` rows serialized into 8 KiB pages behind a buffer pool.
//! A row's [`RowLoc`] is its page id (`block`) and slot (`offset`).
//!
//! Serialization: a record is its cells back to back, each the 9-byte image
//! of [`crate::value::encode_cell`] — the same bytes the WAL logs and the
//! wire protocol ships, so a record is copied out of a pinned page as is.
//!
//! # The page summary
//!
//! Candidates are validated through `BufferPool::read_batch`, which may
//! read just the span of a cold page's candidate records from the store
//! instead of loading the page (a read-through). Those bytes carry no
//! liveness — the slot count and the tombstones sit in the page header —
//! so the table keeps, per heap page, the slot count and one bit saying
//! whether any slot is tombstoned: four bytes, readable without a lock. A
//! read-through is taken only for slots below the count on a page with no
//! tombstone; a page with a tombstone, or one the summary does not know,
//! is loaded. The summary is written inside the `pool.write`
//! closures of [`insert`](PagedTable::insert) and
//! [`delete_returning`](PagedTable::delete_returning), under the page's
//! shard lock, so any write-back of the page comes after it and the pool
//! reads it only after finding the page unmapped; [`reopen`](PagedTable::reopen)'s
//! scan rebuilds it.

use super::buffer_pool::{BufferPool, PoolBatch, Seen};
use super::page::{Page, PageId};
use crate::batch::RowRef;
use crate::error::StorageError;
use crate::schema::{ColumnId, ColumnType, Schema};
use crate::stats::ColumnStats;
use crate::tid::RowLoc;
use crate::value::{self, encode_cell, Value, CELL_BYTES};
use crate::Result;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Append `row`'s record — its cells in schema order — to `out`, after
/// checking it against `schema`: arity, no NULL in a non-nullable column,
/// and no float in an integer column (an integer in a float column is
/// accepted — a client's literal `3` for a float column). On an error `out`
/// may hold a partial record.
pub fn encode_row(schema: &Schema, row: &[Value], out: &mut Vec<u8>) -> Result<()> {
    if row.len() != schema.width() {
        return Err(StorageError::ArityMismatch { got: row.len(), expected: schema.width() });
    }
    for (cid, v) in row.iter().enumerate() {
        let def = schema.column(cid)?;
        match (v, def.ty) {
            (Value::Null, _) if !def.nullable => {
                return Err(StorageError::UnexpectedNull { column: cid });
            }
            (Value::Float(_), ColumnType::Int) => {
                return Err(StorageError::TypeMismatch { column: cid, expected: def.ty.name() });
            }
            _ => {}
        }
        out.extend_from_slice(&encode_cell(v));
    }
    Ok(())
}

/// Decode the cell at the front of `bytes`. A tag the codec does not know
/// reads as a float, as it always has here: a page is CRC-checked as a
/// whole, so a bad tag is not corruption this layer can report. (Spelled as
/// a `match` on the codec's result and inlined: `unwrap_or` with the
/// fallback built eagerly made every `RowRef` read, and with it
/// `Database::open`'s heap pass, twice as slow.)
#[inline]
fn decode_cell(bytes: &[u8]) -> Value {
    let cell: &[u8; CELL_BYTES] = bytes[..CELL_BYTES].try_into().expect("cell is 9 bytes");
    match value::decode_cell(cell) {
        Ok(v) => v,
        Err(_) => {
            let [_, body @ ..] = *cell;
            Value::Float(f64::from_le_bytes(body))
        }
    }
}

fn decode_row(bytes: &[u8], width: usize) -> Vec<Value> {
    (0..width).map(|c| decode_cell(&bytes[c * CELL_BYTES..])).collect()
}

/// Decode one cell of an encoded row, treating out-of-range columns as NULL
/// (used by [`crate::batch::RowRef`]).
#[inline]
pub(crate) fn decode_cell_at(bytes: &[u8], cid: usize) -> Value {
    let start = cid * CELL_BYTES;
    if start + CELL_BYTES > bytes.len() {
        return Value::Null;
    }
    decode_cell(&bytes[start..])
}

/// Entries in the first segment of a [`PageSummaries`]; segment `k` holds
/// `SEGMENT_BASE << k`.
const SEGMENT_BASE: usize = 1024;
/// Enough segments for every `u32` page id a [`RowLoc`] can name.
const SEGMENTS: usize = 23;
/// A summary entry's flags; its low 16 bits are the page's slot count.
const KNOWN: u32 = 1 << 31;
const TOMBSTONE: u32 = 1 << 16;

/// The per-page summary (see the module docs), indexed by page id in
/// segments that double in size, each allocated on first use and never
/// moved — so a reader needs no lock. Writers store with `Release`, under
/// the page's shard lock; a read-through loads with `Acquire` after taking
/// and dropping that lock, so it sees every write made before it took it.
struct PageSummaries {
    /// `SEGMENTS` slots.
    segments: Box<[OnceLock<Box<[AtomicU32]>>]>,
}

impl PageSummaries {
    fn new() -> Self {
        PageSummaries { segments: (0..SEGMENTS).map(|_| OnceLock::new()).collect() }
    }

    /// Segment and index of page `pid`'s entry.
    fn position(pid: PageId) -> Option<(usize, usize)> {
        let pid = usize::try_from(pid).ok()?;
        let k = (pid / SEGMENT_BASE + 1).ilog2() as usize;
        (k < SEGMENTS).then(|| (k, pid - SEGMENT_BASE * ((1 << k) - 1)))
    }

    fn entry(&self, pid: PageId) -> Option<&AtomicU32> {
        let (k, i) = Self::position(pid)?;
        self.segments[k].get().map(|segment| &segment[i])
    }

    /// Record `pid`'s slot count after a write to it, keeping its tombstone
    /// bit (`tombstone` sets it). Called under the page's frame.
    fn note(&self, pid: PageId, count: u16, tombstone: bool) {
        let Some((k, i)) = Self::position(pid) else { return };
        let segment = self.segments[k]
            .get_or_init(|| (0..SEGMENT_BASE << k).map(|_| AtomicU32::new(0)).collect());
        let old = segment[i].load(Ordering::Relaxed);
        let flag = if tombstone { TOMBSTONE } else { old & TOMBSTONE };
        segment[i].store(KNOWN | flag | u32::from(count), Ordering::Release);
    }

    /// Mark `pid` as holding a tombstone.
    fn note_delete(&self, pid: PageId) {
        if let Some(entry) = self.entry(pid) {
            entry.fetch_or(TOMBSTONE, Ordering::Release);
        }
    }

    /// True when the summary alone shows `slot` of `pid` to be a live
    /// record: a known page with no tombstone and more slots than `slot`.
    fn is_live(&self, pid: PageId, slot: u16) -> bool {
        self.entry(pid)
            .map(|e| e.load(Ordering::Acquire))
            .is_some_and(|s| s & (KNOWN | TOMBSTONE) == KNOWN && u32::from(slot) < s & 0xFFFF)
    }

    fn memory_bytes(&self) -> usize {
        let entries: usize = self.segments.iter().filter_map(|s| s.get()).map(|s| s.len()).sum();
        entries * std::mem::size_of::<AtomicU32>()
    }
}

/// Candidates one pass of [`PagedTable::for_each_row_batch`] takes at a
/// time, rounded up to the end of a page's run: enough that a query's cold
/// pages make one store batch per pool shard, few enough that the window's
/// records stay a few KiB.
const WINDOW: usize = 256;

/// What a window slot holds after its pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The candidate's row is gone (deleted, or never there).
    Absent,
    /// The candidate's record is in the window buffer.
    Live,
    /// The candidate's page could not be read.
    Unreadable,
}

/// Reusable buffers of [`PagedTable::for_each_row_batch`]: keep one across
/// batches (a query pipeline's scratch), or pass a fresh `default()`.
#[derive(Debug, Default)]
pub struct BatchBuffers {
    /// Sort keys: a candidate's location above its index.
    order: Vec<u128>,
    /// The window's pages, ascending, and where each page's run of
    /// candidates starts in the window (one entry more than `pages`).
    pages: Vec<PageId>,
    runs: Vec<usize>,
    /// One record slot per window candidate, and what each holds.
    records: Vec<u8>,
    slots: Vec<Slot>,
    pool: PoolBatch,
}

impl BatchBuffers {
    /// Bytes the buffers have reserved: what a batch that fits in them
    /// allocates nothing beyond.
    pub fn capacity_bytes(&self) -> usize {
        self.order.capacity() * size_of::<u128>()
            + self.pages.capacity() * size_of::<PageId>()
            + self.runs.capacity() * size_of::<usize>()
            + self.records.capacity()
            + self.slots.capacity() * size_of::<Slot>()
            + self.pool.capacity_bytes()
    }
}

/// A table heap stored in pages behind a buffer pool.
pub struct PagedTable {
    schema: Schema,
    pool: Arc<BufferPool>,
    pages: Mutex<Vec<PageId>>,
    summaries: PageSummaries,
    stats: Mutex<Vec<ColumnStats>>,
    live_rows: AtomicUsize,
    record_width: u16,
}

impl PagedTable {
    /// Create an empty paged table over `pool`.
    pub fn new(schema: Schema, pool: Arc<BufferPool>) -> Self {
        let record_width = (schema.width() * CELL_BYTES) as u16;
        let stats = schema.columns().iter().map(|_| ColumnStats::default()).collect();
        PagedTable {
            schema,
            pool,
            pages: Mutex::new(Vec::new()),
            summaries: PageSummaries::new(),
            stats: Mutex::new(stats),
            live_rows: AtomicUsize::new(0),
            record_width,
        }
    }

    /// Reattach to a heap whose pages already exist in `pool`'s store: the
    /// recovery path. `pages` is the checkpointed page directory in heap
    /// order; the live row count and per-column [`ColumnStats`] are
    /// recomputed by scanning every page once (the catalog does not persist
    /// stats — recomputing them is cheap and cannot disagree with the data).
    ///
    /// Returns the table plus each page's `(live rows, content CRC)` as
    /// observed by the same scan, so recovery's torn-checkpoint
    /// cross-check against the catalog does not have to re-read the heap.
    /// The scan also hands every live row to `on_row`, in heap order, for
    /// a structure the caller builds in the same pass (recovery's primary
    /// index); `on_row` runs with the page pinned and must not re-enter the
    /// pool.
    pub fn reopen(
        schema: Schema,
        pool: Arc<BufferPool>,
        page_ids: Vec<PageId>,
        mut on_row: impl FnMut(RowLoc, RowRef<'_>),
    ) -> Result<(Self, Vec<(u32, u32)>)> {
        let record_width = (schema.width() * CELL_BYTES) as u16;
        let mut stats: Vec<ColumnStats> =
            schema.columns().iter().map(|_| ColumnStats::default()).collect();
        let mut observed = Vec::with_capacity(page_ids.len());
        let summaries = PageSummaries::new();
        for &pid in &page_ids {
            let entry = pool.read(pid, |page| {
                if page.record_width() != record_width {
                    return Err(StorageError::Io(format!(
                        "page {pid} holds {}-byte records, schema needs {record_width}",
                        page.record_width()
                    )));
                }
                let mut count = 0u32;
                for (slot, bytes) in page.iter() {
                    for (cid, stat) in stats.iter_mut().enumerate() {
                        stat.observe(&decode_cell(&bytes[cid * CELL_BYTES..]));
                    }
                    on_row(RowLoc::new(pid as u32, u32::from(slot)), RowRef::new(bytes));
                    count += 1;
                }
                summaries.note(pid, page.count(), count < u32::from(page.count()));
                Ok((count, crate::recovery::crc32(page.as_bytes())))
            })??;
            observed.push(entry);
        }
        let live = observed.iter().map(|&(c, _)| c as usize).sum();
        let table = PagedTable {
            schema,
            pool,
            pages: Mutex::new(page_ids),
            summaries,
            stats: Mutex::new(stats),
            live_rows: AtomicUsize::new(live),
            record_width,
        };
        Ok((table, observed))
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The buffer pool the table reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.live_rows.load(Ordering::Relaxed)
    }

    /// True if no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row slots per heap page of a table of `schema`: a row's location is
    /// slot `block × slots_per_page + offset` of the heap.
    pub fn slots_per_page(schema: &Schema) -> u16 {
        Page::capacity_for((schema.width() * CELL_BYTES) as u16)
    }

    /// Number of heap pages allocated.
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    /// The page directory (heap pages in allocation order) — what a
    /// checkpoint catalog persists.
    pub fn pages(&self) -> Vec<PageId> {
        self.pages.lock().clone()
    }

    /// Live rows per page, aligned with [`pages`](Self::pages).
    pub fn page_live_counts(&self) -> Result<Vec<u32>> {
        let pages = self.pages.lock().clone();
        let mut counts = Vec::with_capacity(pages.len());
        for pid in pages {
            counts.push(self.pool.read(pid, |page| page.iter().count() as u32)?);
        }
        Ok(counts)
    }

    /// `(live rows, content CRC)` per page, aligned with
    /// [`pages`](Self::pages). Checkpoints record these next to the
    /// directory so recovery can detect a page write that never reached
    /// the device — the CRC catches content changes the live count alone
    /// would miss (a delete plus an insert on the same page). One pass
    /// over the heap; the scan is load-bearing (the CRC cannot be
    /// maintained incrementally), which is why checkpoints pay it.
    pub fn page_checkpoint_entries(&self) -> Result<Vec<(u32, u32)>> {
        let pages = self.pages.lock().clone();
        let mut entries = Vec::with_capacity(pages.len());
        for pid in pages {
            entries.push(self.pool.read(pid, |page| {
                (page.iter().count() as u32, crate::recovery::crc32(page.as_bytes()))
            })?);
        }
        Ok(entries)
    }

    /// Append `row`'s record to `out`, checked against the table's schema
    /// (see [`encode_row`]) — the bytes [`insert_encoded`](Self::insert_encoded)
    /// stores, which a durable database encodes once for the heap and its
    /// log alike.
    pub fn encode_row(&self, row: &[Value], out: &mut Vec<u8>) -> Result<()> {
        encode_row(&self.schema, row, out)
    }

    /// Insert a row, appending a page when the last one fills.
    pub fn insert(&self, row: &[Value]) -> Result<RowLoc> {
        let mut encoded = Vec::with_capacity(self.record_width as usize);
        self.encode_row(row, &mut encoded)?;
        self.insert_encoded(row, &encoded)
    }

    /// Insert `row`, whose record [`encode_row`](Self::encode_row) already
    /// wrote as `encoded`.
    ///
    /// The page-directory lock is held across the slot write — including
    /// the write into a freshly allocated page. Releasing it before that
    /// write (as this method once did) let concurrent writers fill the new
    /// page first and the "empty" insert fail with `PageFull`.
    pub fn insert_encoded(&self, row: &[Value], encoded: &[u8]) -> Result<RowLoc> {
        if encoded.len() != usize::from(self.record_width) {
            return Err(StorageError::Io(format!(
                "a {}-byte record for {}-byte slots",
                encoded.len(),
                self.record_width
            )));
        }
        let mut pages = self.pages.lock();
        // Try the last page first.
        if let Some(&last) = pages.last() {
            let slot = self.pool.write(last, |page| self.insert_into(last, page, encoded))?;
            if let Ok(slot) = slot {
                return self.finish_insert(row, last, slot);
            }
        }
        let new_page = self.pool.allocate(self.record_width)?;
        pages.push(new_page);
        let slot =
            self.pool.write(new_page, |page| self.insert_into(new_page, page, encoded))??;
        self.finish_insert(row, new_page, slot)
    }

    /// Append `record` to page `pid`, pinned for writing, and summarize it.
    fn insert_into(&self, pid: PageId, page: &mut Page, record: &[u8]) -> Result<u16> {
        let slot = page.insert(record)?;
        self.summaries.note(pid, page.count(), false);
        Ok(slot)
    }

    fn finish_insert(&self, row: &[Value], page: PageId, slot: u16) -> Result<RowLoc> {
        let mut stats = self.stats.lock();
        for (cid, v) in row.iter().enumerate() {
            stats[cid].observe(v);
        }
        self.live_rows.fetch_add(1, Ordering::Relaxed);
        Ok(RowLoc::new(page as u32, slot as u32))
    }

    /// Fetch a full row; costs a buffer-pool access.
    pub fn get(&self, loc: RowLoc) -> Result<Vec<Value>> {
        let width = self.schema.width();
        self.pool.read(loc.block as PageId, |page| {
            page.get(loc.offset as u16).map(|b| decode_row(b, width))
        })?
    }

    /// Fetch one cell; still costs a full page access, as in a real heap.
    pub fn value(&self, loc: RowLoc, cid: ColumnId) -> Result<Value> {
        self.schema.column(cid)?;
        self.pool.read(loc.block as PageId, |page| {
            page.get(loc.offset as u16).map(|b| decode_cell(&b[cid * CELL_BYTES..]))
        })?
    }

    /// Numeric view of one cell (`Ok(None)` for NULL).
    pub fn value_f64(&self, loc: RowLoc, cid: ColumnId) -> Result<Option<f64>> {
        Ok(self.value(loc, cid)?.as_f64())
    }

    /// Visit a set of candidate rows grouped by page: candidates are sorted
    /// by `(page, slot)` in `buffers`, taken in windows of about 256
    /// candidates that never split a page's run, and each page is seen
    /// once. `f` receives the candidate's index into `locs` plus its row
    /// view (`None` when deleted).
    ///
    /// Returns the number of pages that could not be read. Their candidates
    /// are **not** visited: an unreadable page says nothing about whether
    /// its rows exist, so a caller that gets a non-zero count holds an
    /// incomplete answer and must report an error rather than a shorter
    /// result.
    ///
    /// Visitation order is ascending [`RowLoc`] order, not `locs` order —
    /// callers that care about the original position use the index argument.
    ///
    /// A window's pages go to the pool as one `BufferPool::read_batch`:
    /// resident pages are copied from under one read lock per pool shard,
    /// and the candidates of a cold page the pool does not admit are read
    /// through as one span, from the first to the last of them, when the
    /// page summary shows them all live (see the module docs). The records
    /// land in the window's buffer, and `f` then runs over the window with
    /// no pool lock held.
    pub fn for_each_row_batch(
        &self,
        locs: &[RowLoc],
        buffers: &mut BatchBuffers,
        mut f: impl FnMut(usize, Option<RowRef<'_>>),
    ) -> usize {
        let BatchBuffers { order, pages, runs, records, slots, pool } = buffers;
        // Sort keys, not indices: a key is the candidate's location above
        // its index, so the sort compares integers in place instead of
        // looking both locations up at every comparison.
        debug_assert!(u32::try_from(locs.len()).is_ok(), "an index takes 32 bits of a key");
        order.clear();
        order.extend(
            locs.iter().enumerate().map(|(i, loc)| u128::from(loc.encode()) << 32 | i as u128),
        );
        order.sort_unstable();
        let index = |key: u128| key as u32 as usize;
        let loc = |key: u128| RowLoc::decode((key >> 32) as u64);
        let slot = |key: u128| loc(key).offset as u16;
        let width = usize::from(self.record_width);
        let mut unreadable = 0usize;
        let mut rest = order.as_slice();
        while !rest.is_empty() {
            let last = loc(rest[rest.len().min(WINDOW) - 1]).block;
            let end = rest.iter().position(|&key| loc(key).block > last).unwrap_or(rest.len());
            let (window, tail) = rest.split_at(end);
            rest = tail;
            pages.clear();
            runs.clear();
            pages.reserve(window.len());
            runs.reserve(window.len() + 1);
            for (k, &key) in window.iter().enumerate() {
                let pid = PageId::from(loc(key).block);
                if pages.last() != Some(&pid) {
                    pages.push(pid);
                    runs.push(k);
                }
            }
            runs.push(window.len());
            records.resize(window.len() * width, 0);
            slots.clear();
            slots.resize(window.len(), Slot::Absent);
            let run = |p: usize| &window[runs[p]..runs[p + 1]];
            let locate = |p: usize| {
                let (first, last) = (slot(run(p)[0]), slot(*run(p).last()?));
                self.summaries.is_live(pages[p], last).then(|| {
                    let len = usize::from(last - first + 1) * width;
                    (Page::slot_offset(self.record_width, first), len)
                })
            };
            let visit = |p: usize, seen: Seen<'_>| {
                let span = runs[p]..runs[p + 1];
                let first = slot(window[span.start]);
                let mut keep = |k: usize, record: &[u8]| {
                    records[k * width..][..width].copy_from_slice(record);
                    slots[k] = Slot::Live;
                };
                match seen {
                    Seen::Page(page) => {
                        for k in span {
                            if let Ok(record) = page.get(slot(window[k])) {
                                keep(k, record);
                            }
                        }
                    }
                    Seen::Bytes(bytes) => {
                        for k in span {
                            let at = usize::from(slot(window[k]) - first) * width;
                            keep(k, &bytes[at..][..width]);
                        }
                    }
                    Seen::Unreadable => {
                        slots[span].fill(Slot::Unreadable);
                        unreadable += 1;
                    }
                }
            };
            self.pool.read_batch(pages, pool, locate, visit);
            for ((&key, slot), record) in
                window.iter().zip(&*slots).zip(records.chunks_exact(width))
            {
                match slot {
                    Slot::Live => f(index(key), Some(RowRef::new(record))),
                    Slot::Absent => f(index(key), None),
                    Slot::Unreadable => {}
                }
            }
        }
        unreadable
    }

    /// Tombstone a row. The old row is decoded under the same page access
    /// so per-column live counts can be folded out of the stats.
    pub fn delete(&self, loc: RowLoc) -> Result<()> {
        self.delete_returning(loc).map(|_| ())
    }

    /// Tombstone a row and return its old values — fetch and delete under
    /// *one* page access, so callers that must maintain indexes from the
    /// deleted row (`delete_by_pk`) pay a single pool access and never
    /// observe a row they then fail to delete.
    pub fn delete_returning(&self, loc: RowLoc) -> Result<Vec<Value>> {
        let width = self.schema.width();
        let pid = loc.block as PageId;
        let row = self.pool.write(pid, |page| {
            let old = page.get(loc.offset as u16).map(|b| decode_row(b, width))?;
            page.delete(loc.offset as u16)?;
            self.summaries.note_delete(pid);
            Ok::<_, StorageError>(old)
        })??;
        {
            let mut stats = self.stats.lock();
            for (cid, v) in row.iter().enumerate() {
                stats[cid].observe_delete(v);
            }
        }
        self.live_rows.fetch_sub(1, Ordering::Relaxed);
        Ok(row)
    }

    /// Stream every live row through a [`RowRef`] visitor, page by page in
    /// allocation order: each heap page is pinned once and all of its live
    /// rows are visited under that single pool access. The visitor returns
    /// `false` to stop early (a `LIMIT`ed sequential scan); the `Ok` value
    /// reports whether the scan ran to completion.
    ///
    /// The scan stops with the error at the first page that cannot be read
    /// — skipping it would silently drop its rows from the answer. `f` runs
    /// while the page is pinned, so it must not re-enter the buffer pool.
    pub fn for_each_live_row(&self, mut f: impl FnMut(RowLoc, RowRef<'_>) -> bool) -> Result<bool> {
        let pages = self.pages.lock().clone();
        for pid in pages {
            let keep_going = self.pool.read(pid, |page| {
                page.iter().all(|(slot, bytes)| {
                    f(RowLoc::new(pid as u32, slot as u32), RowRef::new(bytes))
                })
            })?;
            if !keep_going {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Bytes the page summary holds (see the module docs).
    pub fn summary_bytes(&self) -> usize {
        self.summaries.memory_bytes()
    }

    /// Incrementally maintained statistics of column `cid`: live counts
    /// follow deletes, the min/max range is append-only (it never shrinks).
    pub fn stats(&self, cid: ColumnId) -> Result<ColumnStats> {
        self.schema.column(cid)?;
        Ok(self.stats.lock()[cid].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::io::{PageStore, SimulatedPageStore};
    use crate::schema::ColumnDef;

    fn make_table(pool_pages: usize) -> PagedTable {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("a"),
            ColumnDef::float_null("b"),
        ]);
        let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pool_pages));
        PagedTable::new(schema, pool)
    }

    fn row(pk: i64, a: f64, b: Option<f64>) -> Vec<Value> {
        vec![Value::Int(pk), Value::Float(a), b.map_or(Value::Null, Value::Float)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = make_table(8);
        let l = t.insert(&row(1, 2.5, None)).unwrap();
        assert_eq!(t.get(l).unwrap(), row(1, 2.5, None));
        assert_eq!(t.value(l, 1).unwrap(), Value::Float(2.5));
        assert_eq!(t.value_f64(l, 2).unwrap(), None);
    }

    /// A record encoded once is stored as `insert` would have stored the
    /// row; a record of the wrong width, or a row the schema refuses, is an
    /// error that leaves the table as it was.
    #[test]
    fn an_encoded_insert_stores_what_insert_would() {
        let t = make_table(8);
        let mut encoded = Vec::new();
        t.encode_row(&row(1, 2.5, None), &mut encoded).unwrap();
        let a = t.insert_encoded(&row(1, 2.5, None), &encoded).unwrap();
        let b = t.insert(&row(1, 2.5, None)).unwrap();
        let bytes = |loc: RowLoc| {
            t.pool().read(loc.block as PageId, |p| p.get(loc.offset as u16).unwrap().to_vec())
        };
        assert_eq!(bytes(a).unwrap(), bytes(b).unwrap());
        assert_eq!(t.get(a).unwrap(), row(1, 2.5, None));
        assert!(t.insert_encoded(&row(2, 1.0, None), &encoded[1..]).is_err());
        let mut refused = Vec::new();
        assert_eq!(
            t.encode_row(&[Value::Int(3), Value::Null, Value::Null], &mut refused),
            Err(StorageError::UnexpectedNull { column: 1 })
        );
        assert!(matches!(
            t.encode_row(&[Value::Int(3)], &mut refused),
            Err(StorageError::ArityMismatch { got: 1, expected: 3 })
        ));
        assert_eq!((t.len(), t.stats(0).unwrap().non_null_count()), (2, 2));
    }

    #[test]
    fn spills_across_pages() {
        let t = make_table(4);
        let n = 2000usize; // 27-byte records, ~300 per page → several pages
        let locs: Vec<RowLoc> = (0..n)
            .map(|i| t.insert(&row(i as i64, i as f64, Some(i as f64 * 2.0))).unwrap())
            .collect();
        assert!(t.page_count() > 3, "expected multiple pages, got {}", t.page_count());
        // Random-ish probes across pages (forces pool churn with 4 frames).
        for i in (0..n).step_by(97) {
            assert_eq!(t.get(locs[i]).unwrap()[0], Value::Int(i as i64));
        }
        assert!(t.pool().stats().misses() > 0, "pool should have missed");
    }

    #[test]
    fn delete_and_scan() {
        let t = make_table(8);
        let l0 = t.insert(&row(1, 1.0, None)).unwrap();
        let _l1 = t.insert(&row(2, 2.0, None)).unwrap();
        t.delete(l0).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(live_pks(&t), vec![Value::Int(2)]);
        assert!(t.get(l0).is_err());
    }

    /// The first cell of every live row, in scan order.
    fn live_pks(t: &PagedTable) -> Vec<Value> {
        let mut pks = Vec::new();
        t.for_each_live_row(|_, row| {
            pks.push(row.value(0));
            true
        })
        .unwrap();
        pks
    }

    #[test]
    fn stats_maintained() {
        let t = make_table(8);
        t.insert(&row(1, 5.0, Some(-2.0))).unwrap();
        t.insert(&row(2, -5.0, None)).unwrap();
        assert_eq!(t.stats(1).unwrap().range(), Some((-5.0, 5.0)));
        assert_eq!(t.stats(2).unwrap().null_count(), 1);
    }

    #[test]
    fn rejects_bad_rows() {
        let t = make_table(8);
        assert!(t.insert(&[Value::Int(1)]).is_err());
        assert!(t.insert(&[Value::Null, Value::Float(1.0), Value::Null]).is_err());
    }

    #[test]
    fn a_one_row_batch_reads_both_columns_in_one_visit() {
        let t = make_table(8);
        let loc = t.insert(&row(3, 1.5, Some(9.0))).unwrap();
        let mut buffers = BatchBuffers::default();
        let mut read = |t: &PagedTable| {
            let mut seen = None;
            let unreadable = t.for_each_row_batch(&[loc], &mut buffers, |_, r| {
                seen = Some(r.map(|r| (r.f64(1), r.f64(2))));
            });
            assert_eq!(unreadable, 0);
            seen.expect("the candidate was visited")
        };
        t.pool().stats().reset();
        assert_eq!(read(&t), Some((Some(1.5), Some(9.0))));
        assert_eq!(t.pool().stats().hits() + t.pool().stats().misses(), 1, "one page access");
        // Deleted rows come back as None.
        t.delete(loc).unwrap();
        assert_eq!(read(&t), None);
    }

    #[test]
    fn batch_visits_each_page_once() {
        let t = make_table(64);
        let n = 2000usize;
        let locs: Vec<RowLoc> = (0..n)
            .map(|i| t.insert(&row(i as i64, i as f64, Some(i as f64 * 2.0))).unwrap())
            .collect();
        let pages = t.page_count();
        assert!(pages > 3);
        // Candidates shuffled across pages: every 7th row, in reverse.
        let cand: Vec<RowLoc> = (0..n).step_by(7).rev().map(|i| locs[i]).collect();
        t.pool().stats().reset();
        let mut got: Vec<Option<Option<f64>>> = vec![None; cand.len()];
        let mut buffers = BatchBuffers::default();
        let unreadable = t.for_each_row_batch(&cand, &mut buffers, |i, r| {
            got[i] = Some(r.expect("all rows live").f64(1));
        });
        assert_eq!(unreadable, 0);
        let accesses = t.pool().stats().hits() + t.pool().stats().misses();
        assert!(
            accesses <= pages as u64,
            "page-grouped batch should pin each page at most once: {accesses} accesses for {pages} pages"
        );
        for (i, &loc) in cand.iter().enumerate() {
            assert_eq!(got[i], Some(t.value_f64(loc, 1).unwrap()), "candidate {i} mismatch");
        }
    }

    #[test]
    fn for_each_live_row_streams_in_page_order_and_stops() {
        let t = make_table(64);
        let n = 1500usize;
        let locs: Vec<RowLoc> =
            (0..n).map(|i| t.insert(&row(i as i64, i as f64, None)).unwrap()).collect();
        t.delete(locs[7]).unwrap();
        t.pool().stats().reset();
        let mut seen = Vec::new();
        let complete = t.for_each_live_row(|_, r| {
            seen.push(r.f64(0).unwrap() as i64);
            true
        });
        assert!(complete.unwrap());
        assert_eq!(seen.len(), n - 1);
        assert!(!seen.contains(&7));
        let accesses = t.pool().stats().hits() + t.pool().stats().misses();
        assert_eq!(accesses, t.page_count() as u64, "one pool access per page");
        // Early stop terminates without visiting the rest.
        let mut count = 0;
        let complete = t.for_each_live_row(|_, _| {
            count += 1;
            count < 10
        });
        assert!(!complete.unwrap());
        assert_eq!(count, 10);
    }

    #[test]
    fn reopen_recomputes_rows_and_stats() {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("a"),
            ColumnDef::float_null("b"),
        ]);
        let store = Arc::new(SimulatedPageStore::new());
        let pool = Arc::new(BufferPool::new(Arc::clone(&store) as Arc<_>, 8));
        let t = PagedTable::new(schema.clone(), Arc::clone(&pool));
        let n = 900usize;
        let locs: Vec<RowLoc> = (0..n)
            .map(|i| t.insert(&row(i as i64, i as f64, (i % 3 == 0).then_some(i as f64))).unwrap())
            .collect();
        t.delete(locs[5]).unwrap();
        t.delete(locs[700]).unwrap();
        let pages = t.pages();
        let live = t.page_live_counts().unwrap();
        assert_eq!(live.iter().sum::<u32>() as usize, n - 2);
        pool.flush().unwrap();

        // Fresh pool over the same store: the recovered table must agree on
        // rows, stats, and per-page counts + CRCs.
        let checkpoint_entries = t.page_checkpoint_entries().unwrap();
        let pool2 = Arc::new(BufferPool::new(store, 8));
        let mut visited = Vec::new();
        let (r, observed) = PagedTable::reopen(schema, pool2, pages.clone(), |loc, row| {
            visited.push((loc, row.value(0)));
        })
        .unwrap();
        assert_eq!(r.len(), n - 2);
        let mut scan = Vec::new();
        t.for_each_live_row(|loc, row| {
            scan.push((loc, row.value(0)));
            true
        })
        .unwrap();
        assert_eq!(visited, scan, "reopen visits every live row, in heap order");
        assert_eq!(
            observed, checkpoint_entries,
            "reopen's (count, crc) scan must match the flushed table's"
        );
        assert_eq!(
            observed.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
            live,
            "reopen's live counts must match"
        );
        assert_eq!(r.get(locs[10]).unwrap(), t.get(locs[10]).unwrap());
        assert!(r.get(locs[5]).is_err(), "tombstone must survive reopen");
        let (sa, sb) = (t.stats(1).unwrap(), r.stats(1).unwrap());
        assert_eq!(sa.range(), sb.range());
        assert_eq!(sa.non_null_count(), sb.non_null_count());
        assert_eq!(t.stats(2).unwrap().null_count(), r.stats(2).unwrap().null_count());
        // Inserts continue where the directory left off.
        r.insert(&row(5_000, 1.0, None)).unwrap();
        assert_eq!(r.len(), n - 1);
        // A schema/page width mismatch is a typed error, not garbage rows.
        let bad = Schema::new(vec![ColumnDef::int("pk")]);
        let store2 = Arc::new(SimulatedPageStore::new());
        let pool3 = Arc::new(BufferPool::new(Arc::clone(&store2) as Arc<_>, 8));
        let seed = PagedTable::new(
            Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("a")]),
            Arc::clone(&pool3),
        );
        seed.insert(&[Value::Int(1), Value::Float(2.0)]).unwrap();
        pool3.flush().unwrap();
        let pool4 = Arc::new(BufferPool::new(store2, 8));
        assert!(matches!(
            PagedTable::reopen(bad, pool4, seed.pages(), |_, _| {}),
            Err(StorageError::Io(_))
        ));
    }

    #[test]
    fn concurrent_inserts_never_lose_page_slots() {
        // Regression: the slow path used to release the page-directory lock
        // before writing into a freshly allocated page, so racing writers
        // could fill it first and the insert failed with PageFull.
        let t = std::sync::Arc::new(make_table(64));
        let threads = 8;
        let per_thread = 500usize; // ~300 rows/page -> many page rollovers
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let pk = (w * per_thread + i) as i64;
                        t.insert(&row(pk, pk as f64, None)).expect("no PageFull under races");
                    }
                });
            }
        });
        assert_eq!(t.len(), threads * per_thread);
        assert_eq!(live_pks(&t).len(), threads * per_thread);
    }

    /// One candidate alone: its first column, or `None` when deleted.
    fn validate_one(t: &PagedTable, loc: RowLoc) -> Option<i64> {
        let mut seen = None;
        let unreadable = t.for_each_row_batch(&[loc], &mut BatchBuffers::default(), |_, r| {
            seen = Some(r.and_then(|r| r.value(0).as_i64()));
        });
        assert_eq!(unreadable, 0);
        seen.expect("the candidate was visited")
    }

    /// Delete a row, flush, push its page out of a two-frame pool, and
    /// validate it alone — it must stay deleted; a live row of a clean cold
    /// page comes back through a read-through. Then the same over a table
    /// reopened from the store, whose summary the reopen scan rebuilt.
    fn deleted_rows_stay_deleted_through_read_throughs(store: Arc<dyn PageStore>) {
        let schema = Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("a")]);
        let pool = Arc::new(BufferPool::new(Arc::clone(&store), 2));
        let t = PagedTable::new(schema.clone(), Arc::clone(&pool));
        let locs: Vec<RowLoc> = (0..3_000)
            .map(|i| t.insert(&[Value::Int(i), Value::Float(i as f64)]).unwrap())
            .collect();
        let pages = &t.pages();
        assert!(pages.len() >= 6, "{} pages", pages.len());
        let on_page =
            |k: usize| locs.iter().copied().filter(move |l| l.block as PageId == pages[k]);
        let (victim, neighbour) = {
            let mut first = on_page(0);
            (first.next().unwrap(), first.next().unwrap())
        };
        let cold = on_page(3).nth(5).unwrap();
        t.delete(victim).unwrap();
        pool.flush().unwrap();
        let evict = |t: &PagedTable| {
            for k in [4, 5] {
                t.get(on_page(k).next().unwrap()).unwrap();
            }
        };

        evict(&t);
        let read_through = pool.stats().read_through();
        assert_eq!(validate_one(&t, victim), None, "a deleted row came back");
        assert_eq!(validate_one(&t, cold), Some(cold_pk(&locs, cold)));
        assert_eq!(pool.stats().read_through(), read_through + 1, "the live row read through");
        assert_eq!(validate_one(&t, neighbour), Some(1));
        evict(&t);
        assert_eq!(validate_one(&t, victim), None, "a deleted row came back");

        let pool = Arc::new(BufferPool::new(store, 2));
        let (r, _) = PagedTable::reopen(schema, Arc::clone(&pool), t.pages(), |_, _| {}).unwrap();
        evict(&r);
        assert_eq!(validate_one(&r, victim), None, "a deleted row came back after reopen");
        evict(&r);
        assert_eq!(validate_one(&r, cold), Some(cold_pk(&locs, cold)));
        assert!(pool.stats().read_through() > 0, "reopened: the live row read through");
    }

    fn cold_pk(locs: &[RowLoc], loc: RowLoc) -> i64 {
        locs.iter().position(|&l| l == loc).unwrap() as i64
    }

    #[test]
    fn deleted_rows_stay_deleted_through_read_throughs_on_both_stores() {
        deleted_rows_stay_deleted_through_read_throughs(Arc::new(SimulatedPageStore::new()));
        let dir = std::env::temp_dir().join(format!("hermit-heap-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let store = Arc::new(crate::paged::io::FilePageStore::create(&path).unwrap());
        deleted_rows_stay_deleted_through_read_throughs(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_reports_deleted_rows_as_none() {
        let t = make_table(8);
        let locs: Vec<RowLoc> =
            (0..10).map(|i| t.insert(&row(i, i as f64, None)).unwrap()).collect();
        t.delete(locs[4]).unwrap();
        let mut buffers = BatchBuffers::default();
        let mut missing = Vec::new();
        t.for_each_row_batch(&locs, &mut buffers, |i, r| {
            if r.is_none() {
                missing.push(i);
            }
        });
        assert_eq!(missing, vec![4]);
    }

    /// The exact counters of two batches on a 4-frame pool over an
    /// in-memory store, 8 pages of `(pk, a)` rows starting cold. The first
    /// batch loads pages 0–3 (each miss admitted by a free frame nobody in
    /// the batch claimed yet) and reads page 4 through. The second hits
    /// page 0, loads page 4 (the doorkeeper saw it miss) and reads pages 6
    /// and 7 through — page 6's two candidates as one span. Loading a
    /// two-candidate run whatever the doorkeeper said, as the per-record
    /// read-through did, gave `(1, 8, 2, 2, 8)` after the second batch: one
    /// read-through fewer and one eviction more.
    #[test]
    fn batch_counters_are_exact() {
        let store = Arc::new(SimulatedPageStore::new());
        let pool = Arc::new(BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, 4));
        let schema = Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("a")]);
        let t = PagedTable::new(schema, Arc::clone(&pool));
        let per_page = usize::from(PagedTable::slots_per_page(t.schema()));
        for i in 0..(8 * per_page) as i64 {
            t.insert(&[Value::Int(i), Value::Float(i as f64)]).unwrap();
        }
        let pages = t.pages();
        assert_eq!(pages.len(), 8);
        pool.clear().unwrap();
        pool.stats().reset();
        store.stats().reset();
        let at = |page: usize, slot: u32| RowLoc::new(pages[page] as u32, slot);
        let counters = || {
            let s = pool.stats();
            (s.hits(), s.misses(), s.read_through(), s.evictions(), store.stats().reads())
        };
        let mut buffers = BatchBuffers::default();
        let mut validate = |locs: &[RowLoc]| {
            let mut pks = vec![None; locs.len()];
            let unreadable = t.for_each_row_batch(locs, &mut buffers, |i, row| {
                pks[i] = row.and_then(|r| r.value(0).as_i64());
            });
            assert_eq!(unreadable, 0);
            for (loc, pk) in locs.iter().zip(pks) {
                let want = pages.iter().position(|&p| p == PageId::from(loc.block)).unwrap()
                    * per_page
                    + loc.offset as usize;
                assert_eq!(pk, Some(want as i64), "{loc:?}");
            }
        };
        let first =
            [at(4, 0), at(3, 6), at(0, 5), at(1, 3), at(3, 2), at(2, 7), at(0, 1), at(3, 4)];
        validate(&first);
        assert_eq!(counters(), (0, 5, 1, 0, 5), "(hits, misses, read-throughs, evictions, reads)");
        validate(&[at(7, 0), at(6, 2), at(4, 1), at(0, 9), at(6, 1)]);
        assert_eq!(counters(), (1, 8, 3, 1, 8), "(hits, misses, read-throughs, evictions, reads)");
    }
}
