//! A sharded clock-replacement buffer pool over a [`PageStore`].
//!
//! The disk experiment (§7.8) reconfigures PostgreSQL's buffer pool so the
//! B+-tree fits in memory while heap fetches still pay for page access; our
//! pool exposes the same knob (capacity in pages) plus hit/miss counters so
//! the benchmark harness can report the breakdown.
//!
//! # Access
//!
//! Pages are visited *in place*: [`BufferPool::read`] and
//! [`BufferPool::write`] run a caller closure against the cached frame under
//! the page's shard lock and return whatever the closure extracts. Nothing
//! is copied out, no guard escapes, and the closure must not re-enter the
//! pool — which is what keeps the pool trivially deadlock-free. A heap's
//! candidate validation visits many pages at once through
//! `BufferPool::read_batch` (below).
//!
//! # Sharding
//!
//! The pool is split into independent *shards* — inner pools keyed by
//! `page_id % shards`, each behind its own reader-writer lock with its own
//! clock hand — so visits to different pages do not queue on one lock. A
//! hit ([`BufferPool::read`], a batch's classify pass) takes its shard's
//! read side, so readers of one shard do not queue on each other either; a
//! load, a [`write`](BufferPool::write) and the clock sweep take the write
//! side.
//! [`BufferPool::new`] builds a single-shard pool (fully deterministic
//! replacement, the right default for the small pools the experiments
//! configure); [`BufferPool::new_sharded`] spreads the capacity across N
//! shards for concurrent serving.
//!
//! # The miss path: pin → unlocked I/O → publish
//!
//! A shard lock is never held across a store *read*. A load
//!
//! 1. under the shard lock picks a frame — a free one, else the clock
//!    victim, written back first if dirty — unmaps it and takes its 8 KiB
//!    buffer, leaving the slot marked as loading;
//! 2. **unlocks** and issues one [`PageStore::read_into`] straight into that
//!    recycled buffer, on the calling thread (fault hooks are thread-local);
//!    readers missing on other pages of the shard do the same concurrently,
//!    and hits proceed;
//! 3. relocks and publishes the frame.
//!
//! [`BufferPool::allocate`] and write-misses take the same path, so in
//! steady state a miss neither allocates nor frees memory: buffers only
//! move between slots and loading threads.
//!
//! Two races are closed at publish time. **Duplicate loads:** two threads
//! may miss on the same page and both read it; whoever relocks second finds
//! the page mapped, returns its reserved frame to the free list and uses
//! the winner's. (Store reads can therefore exceed pool misses' worth of
//! *installs*; [`IoStats`](super::io::IoStats) shows the difference.)
//! **Stale installs:** between a loader's read and its publish the page can
//! be loaded by someone else, modified, and written back (evicted dirty, or
//! flushed and then evicted) — the loader's image is then older than the
//! store's. Every write-back bumps the shard's *write epoch*; a loader
//! whose epoch moved while it was reading discards the image and reads
//! again.
//!
//! Victim write-back stays under the shard lock: the victim must not be
//! re-readable from the store before its newest image is there.
//!
//! # Batches: classify → read → verify
//!
//! On a heap far larger than the pool, under access with no locality, most
//! loaded pages are evicted before anyone visits them again — and a load
//! copies 8 KiB to validate a record of a few dozen bytes. So
//! `BufferPool::read_batch` loads a missed page only when it is
//! *admitted*: when its shard has a free frame not already claimed by the
//! batch's own loads, or when the same page missed since the shard's
//! doorkeeper was last cleared — one bit per page, cleared every time the
//! shard has missed as many times as it has frames (TinyLFU's doorkeeper).
//! Every other miss is a **read-through**: the caller names one byte span
//! of the page — from its first to its last record the batch wants — and
//! the pool reads just that, installing and evicting nothing. It still
//! counts as a miss ([`PoolStats::misses`] means "not served from a
//! frame"), and [`PoolStats::read_through`] counts it again.
//! [`read`](BufferPool::read), [`write`](BufferPool::write) and
//! [`allocate`](BufferPool::allocate) always install.
//!
//! A batch's pages are grouped by shard, and each shard's group is served
//! in three steps:
//!
//! 1. **classify**, under one acquisition of the shard's read lock: visit
//!    every resident page, and for each missing one count the miss and
//!    decide its admission — the doorkeeper's bits are atomics, so this
//!    takes no write lock. Record the shard's write epoch. An unmapped
//!    page's newest image is in the store: a dirty frame leaves the pool
//!    only through a write-back under the shard's write lock;
//! 2. **read**, unlocked: ask the caller where each unadmitted page's span
//!    is (whatever the caller consults, read now, is at least as new as the
//!    store's image; a caller that cannot tell declines and the page takes
//!    the frame path), then read every span in one
//!    [`PageStore::read_ranges`] call. A failed call leaves each of its
//!    pages unreadable, and clears their doorkeeper bits: a page whose
//!    read failed is not admitted on the strength of that miss;
//! 3. **verify**, under the read lock again: if the epoch has not moved, no
//!    frame of this shard was written back in between, so a page still
//!    unmapped has had no write since step 1 — a write dirties a frame, and
//!    that frame is either still mapped or was written back, moving the
//!    epoch — and its bytes are current. Every other staged page, and every
//!    admitted one, takes the frame path: it is loaded as above (or found
//!    installed by another thread meanwhile) and visited in its frame.
//!
//! The counters a batch moves are added to [`PoolStats`] once, when it
//! ends.
//!
//! # WAL before data
//!
//! A pool under a durable database is given the log's [`WalTail`]
//! ([`BufferPool::attach_wal`]). Every write-back of a dirty frame — steal
//! or [`flush`](BufferPool::flush) — first makes the log durable up to the
//! position handed to its file, so a page carrying a transaction's
//! uncommitted change cannot reach the device ahead of the record recovery
//! needs to undo it. With nothing pending that is two atomic loads;
//! otherwise one log fsync, taken under the shard lock that is about to
//! write a page anyway.

use super::io::{PageRange, PageStore};
use super::page::{Page, PageId};
use crate::hash::IntMap;
use crate::wal::WalTail;
use crate::Result;
use parking_lot::{RwLock, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Hit/miss/eviction counters for a buffer pool.
///
/// The counters are shared by all shards (they are lock-free atomics), so
/// [`BufferPool::stats`] always reports pool-wide aggregates no matter how
/// the capacity is sharded.
#[derive(Debug, Default)]
pub struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    read_through: AtomicU64,
    evictions: AtomicU64,
    read_errors: AtomicU64,
}

impl PoolStats {
    /// Lookups served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups not served from a frame: they had to read from the store,
    /// a whole page or (a [read-through](Self::read_through)) one record.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Misses served by a read-through: the record's bytes alone, with
    /// nothing installed or evicted (see the module docs).
    pub fn read_through(&self) -> u64 {
        self.read_through.load(Ordering::Relaxed)
    }

    /// Pages evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Misses whose store read failed (the page stayed unloaded and the
    /// caller got the error).
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Add a finished batch's counts.
    fn add(&self, tally: &Tally) {
        for (counter, n) in [
            (&self.hits, tally.hits),
            (&self.misses, tally.misses),
            (&self.read_through, tally.read_through),
            (&self.read_errors, tally.read_errors),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.read_through.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.read_errors.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    page_id: PageId,
    page: Page,
    /// The clock's reference bit: set by every visit, a hit under the
    /// shard's read lock included; cleared by the sweep, under its write
    /// lock.
    referenced: AtomicBool,
    dirty: bool,
}

/// One frame slot of a shard.
enum Slot {
    /// Unoccupied and listed in [`PoolInner::free`]. Keeps its last
    /// occupant's buffer (none before first use) for the next load to fill.
    Free(Option<Page>),
    /// Reserved by a load in progress: the buffer is out with the loading
    /// thread, which publishes or releases the slot under the shard lock.
    Loading,
    /// Holds a mapped page.
    Resident(Frame),
}

struct PoolInner {
    slots: Vec<Slot>,
    /// page id → slot index, for [`Slot::Resident`] slots only
    map: IntMap<PageId, usize>,
    /// Indices of [`Slot::Free`] slots; popping one is O(1).
    free: Vec<usize>,
    clock_hand: usize,
    /// Bumped for every page image this shard writes back to the store; a
    /// load that observes it move between its read and its publish may hold
    /// a stale image and reads again (see the module docs).
    write_epoch: u64,
    /// The admission doorkeeper: bit `p % bits` is set by a miss on the
    /// shard's `p`-th page, and every bit is cleared each time the shard
    /// has missed as many times as it has frames. One word per frame, so
    /// exactly one bit per page while the shard's share of the heap is at
    /// most 64 × its frames; past that, pages share bits and a few more
    /// misses are admitted than the rule says. Atomic, so a batch admits
    /// under the read lock; misses racing there may see a bit a moment
    /// early or late, which only moves one admission.
    doorkeeper: Vec<AtomicU64>,
    /// Misses since the doorkeeper was last cleared.
    window_misses: AtomicUsize,
}

impl PoolInner {
    fn with_capacity(capacity: usize) -> Self {
        PoolInner {
            slots: (0..capacity).map(|_| Slot::Free(None)).collect(),
            // Grown as pages become resident: presized to a large pool's
            // capacity, a small table's few entries would scatter over a
            // sparse bucket array, a cache miss per lookup.
            map: IntMap::default(),
            // Reverse order so frames are handed out 0, 1, 2, ….
            free: (0..capacity).rev().collect(),
            clock_hand: 0,
            write_epoch: 0,
            doorkeeper: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            window_misses: AtomicUsize::new(0),
        }
    }

    /// Count `n` misses toward the doorkeeper's window in one atomic step
    /// and return the window's count before them, the position
    /// [`admit`](Self::admit) walks from. Racing batches' misses land wholly
    /// before or after these.
    fn count_misses(&self, n: usize) -> usize {
        let frames = self.slots.len();
        // `admit`'s walk of `n` steps from `before`, in closed form.
        let after = |before: usize| {
            Some(if before + n <= frames {
                before + n
            } else {
                (n - (frames - before) - 1) % frames + 1
            })
        };
        let (Ok(before) | Err(before)) =
            self.window_misses.fetch_update(Ordering::Relaxed, Ordering::Relaxed, after);
        before
    }

    /// Decide whether the miss at window position `*at` — counted by
    /// [`count_misses`](Self::count_misses) — on the shard's `local`-th page
    /// is admitted, and step past it: a free frame admits any miss — one of
    /// more than `claimed`, the frames the caller's own admitted misses will
    /// take — and the doorkeeper a page that already missed since its last
    /// clear.
    fn admit(&self, at: &mut usize, local: u64, claimed: usize) -> bool {
        if *at >= self.slots.len() {
            // This miss opens the next window.
            for word in &self.doorkeeper {
                word.store(0, Ordering::Relaxed);
            }
            *at = 0;
        }
        *at += 1;
        let (word, mask) = self.doorkeeper_bit(local);
        let seen = word.fetch_or(mask, Ordering::Relaxed) & mask != 0;
        seen || self.free.len() > claimed
    }

    /// Clear the doorkeeper's bit of the shard's `local`-th page: its read
    /// failed, so its next miss is not admitted on the strength of this one
    /// — a load would evict a frame for a read likely to fail again.
    fn forget(&self, local: u64) {
        let (word, mask) = self.doorkeeper_bit(local);
        word.fetch_and(!mask, Ordering::Relaxed);
    }

    /// The doorkeeper word and bit of the shard's `local`-th page.
    fn doorkeeper_bit(&self, local: u64) -> (&AtomicU64, u64) {
        let bit = local % (64 * self.doorkeeper.len() as u64);
        (&self.doorkeeper[(bit / 64) as usize], 1u64 << (bit % 64))
    }

    /// Map `id` to the reserved slot `idx`, now holding `page`.
    fn publish(&mut self, idx: usize, id: PageId, page: Page) {
        self.slots[idx] = Slot::Resident(Frame {
            page_id: id,
            page,
            referenced: AtomicBool::new(true),
            dirty: false,
        });
        self.map.insert(id, idx);
    }

    /// Give the reserved slot `idx` back unmapped, keeping `page` as its
    /// buffer.
    fn release(&mut self, idx: usize, page: Page) {
        self.slots[idx] = Slot::Free(Some(page));
        self.free.push(idx);
    }

    fn frame(&self, idx: usize) -> &Frame {
        match &self.slots[idx] {
            Slot::Resident(frame) => frame,
            _ => unreachable!("the page map only names resident slots"),
        }
    }

    fn frame_mut(&mut self, idx: usize) -> &mut Frame {
        match &mut self.slots[idx] {
            Slot::Resident(frame) => frame,
            _ => unreachable!("the page map only names resident slots"),
        }
    }
}

/// How [`BufferPool::read_batch`] saw one page of its batch.
#[derive(Clone, Copy)]
pub(crate) enum Seen<'a> {
    /// In a frame: a hit, or a miss the pool loaded.
    Page(&'a Page),
    /// Read through: the bytes of the span the caller located, verified to
    /// be the page's current ones.
    Bytes(&'a [u8]),
    /// The page could not be read.
    Unreadable,
}

/// Reusable buffers of [`BufferPool::read_batch`].
#[derive(Debug, Default)]
pub(crate) struct PoolBatch {
    /// Each page's shard.
    shard_of: Vec<usize>,
    /// The batch's page indices grouped by shard, each group in batch
    /// order, and where each shard's group ends.
    by_shard: Vec<usize>,
    ends: Vec<usize>,
    /// Pages of the current shard that take the frame path.
    loads: Vec<usize>,
    /// Pages of the current shard read through, and their spans.
    staged: Vec<usize>,
    ranges: Vec<PageRange>,
    /// The spans' bytes, back to back.
    bytes: Vec<u8>,
}

impl PoolBatch {
    /// Bytes the buffers have reserved.
    pub(crate) fn capacity_bytes(&self) -> usize {
        let words = self.shard_of.capacity()
            + self.by_shard.capacity()
            + self.ends.capacity()
            + self.loads.capacity()
            + self.staged.capacity();
        words * size_of::<usize>()
            + self.ranges.capacity() * size_of::<PageRange>()
            + self.bytes.capacity()
    }
}

/// What a batch adds to [`PoolStats`], once, when it ends.
#[derive(Default)]
struct Tally {
    hits: u64,
    misses: u64,
    read_through: u64,
    read_errors: u64,
}

/// Sharded clock-replacement buffer pool.
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    shards: Vec<RwLock<PoolInner>>,
    capacity: usize,
    stats: PoolStats,
    /// The log whose records describe this pool's pages, once attached.
    wal: OnceLock<Arc<WalTail>>,
}

impl BufferPool {
    /// Single-shard pool holding at most `capacity` pages over `store`.
    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> Self {
        Self::new_sharded(store, capacity, 1)
    }

    /// Pool of `capacity` pages split across `shards` independent clock
    /// pools (shard of a page = `page_id % shards`). Capacity is distributed
    /// as evenly as possible; every shard gets at least one frame, so
    /// `capacity >= shards` is required.
    pub fn new_sharded(store: Arc<dyn PageStore>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        assert!(capacity >= shards, "each shard needs at least one frame ({capacity} < {shards})");
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| RwLock::new(PoolInner::with_capacity(base + usize::from(i < extra))))
            .collect();
        BufferPool { store, shards, capacity, stats: PoolStats::default(), wal: OnceLock::new() }
    }

    /// Put this pool's write-backs behind `tail`'s log (see the module
    /// docs). A pool serves one log for its whole life; a second call is
    /// ignored.
    pub fn attach_wal(&self, tail: Arc<WalTail>) {
        self.wal.get_or_init(|| tail);
    }

    /// The WAL rule: before a dirty page goes to the store, the log is
    /// durable up to everything handed to its file.
    fn wal_before_data(&self) -> Result<()> {
        match self.wal.get() {
            Some(tail) => Ok(tail.make_durable()?),
            None => Ok(()),
        }
    }

    /// Pool capacity in pages (summed across shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independent shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss counters, aggregated across all shards.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// `(resident, free)` frame counts summed across shards. The remainder
    /// up to [`capacity`](Self::capacity) is out with loads in progress, so
    /// on a quiescent pool the two add up to the capacity — a load that
    /// failed or lost a duplicate-load race must have returned its frame.
    pub fn frame_counts(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(resident, free), shard| {
            let inner = shard.write();
            (resident + inner.map.len(), free + inner.free.len())
        })
    }

    #[inline]
    fn shard(&self, id: PageId) -> &RwLock<PoolInner> {
        &self.shards[self.shard_index(id)]
    }

    /// `id`'s shard: `id % shards`.
    #[inline]
    fn shard_index(&self, id: PageId) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// `id`'s index among its shard's pages (`id / shards`).
    #[inline]
    fn shard_page(&self, id: PageId) -> u64 {
        id / self.shards.len() as u64
    }

    /// Allocate a fresh page in the store and install an empty page image in
    /// the pool. The image is formatted in a recycled frame and persisted
    /// with the shard unlocked, so a later miss can re-read it.
    pub fn allocate(&self, record_width: u16) -> Result<PageId> {
        let id = self.store.allocate();
        let shard = self.shard(id);
        let (inner, idx, mut page) = self.reserve(shard, shard.write())?;
        drop(inner);
        page.format(record_width);
        let written = self.store.write(id, &page);
        let mut inner = shard.write();
        match written {
            Ok(()) => inner.publish(idx, id, page),
            Err(_) => inner.release(idx, page),
        }
        written.map(|()| id)
    }

    /// Visit a page through the pool: `f` runs against the cached frame
    /// under the page's shard lock and its result is returned. A hit holds
    /// the lock's read side, so readers of one shard visit it side by side;
    /// on a miss the page is loaded first, with the lock *released* for the
    /// store read (see the module docs). `f` must not re-enter the pool.
    /// Batch callers amortize the lock + map lookup by extracting many
    /// values under one `f`.
    pub fn read<T>(&self, id: PageId, f: impl FnOnce(&Page) -> T) -> Result<T> {
        {
            let inner = self.shard(id).read();
            if let Some(&idx) = inner.map.get(&id) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                let frame = inner.frame(idx);
                frame.referenced.store(true, Ordering::Relaxed);
                return Ok(f(&frame.page));
            }
        }
        let (mut inner, idx) = self.fetch(id)?;
        let frame = inner.frame_mut(idx);
        frame.referenced.store(true, Ordering::Relaxed);
        Ok(f(&frame.page))
    }

    /// Mutate a page through the pool; the frame is marked dirty and written
    /// back on eviction or [`flush`](Self::flush).
    pub fn write<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let (mut inner, idx) = self.fetch(id)?;
        let frame = inner.frame_mut(idx);
        frame.referenced.store(true, Ordering::Relaxed);
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// Write all dirty frames back to the store and [`PageStore::sync`] it,
    /// so a completed flush is an actual durability point (previously the
    /// written pages could still sit in the OS page cache at a crash).
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            self.write_back_dirty(&mut shard.write())?;
        }
        self.store.sync()
    }

    /// Drop every cached frame (writing dirty ones back). Used by benchmarks
    /// to start from a cold cache.
    pub fn clear(&self) -> Result<()> {
        for shard in &self.shards {
            let mut inner = shard.write();
            self.write_back_dirty(&mut inner)?;
            let inner = &mut *inner;
            inner.map.clear();
            inner.free.clear();
            inner.clock_hand = 0;
            for word in &mut inner.doorkeeper {
                *word.get_mut() = 0;
            }
            *inner.window_misses.get_mut() = 0;
            // Slots out with a load stay out; everything else is free again,
            // handed out 0, 1, 2, … like a new pool.
            for (idx, slot) in inner.slots.iter_mut().enumerate().rev() {
                *slot = match std::mem::replace(slot, Slot::Loading) {
                    Slot::Resident(frame) => Slot::Free(Some(frame.page)),
                    other => other,
                };
                if matches!(slot, Slot::Free(_)) {
                    inner.free.push(idx);
                }
            }
        }
        self.store.sync()
    }

    /// Write every dirty frame of one shard back to the store.
    fn write_back_dirty(&self, inner: &mut PoolInner) -> Result<()> {
        for slot in inner.slots.iter_mut() {
            if let Slot::Resident(frame) = slot {
                if frame.dirty {
                    self.wal_before_data()?;
                    self.store.write(frame.page_id, &frame.page)?;
                    frame.dirty = false;
                    inner.write_epoch += 1;
                }
            }
        }
        Ok(())
    }

    /// Visit every page of `pages` (distinct ids) once: `visit` gets each
    /// page's index in `pages` and how the pool saw it — in a frame, as the
    /// bytes of the span `locate` names for it, or unreadable. A hit or an
    /// admitted miss is visited in its frame; any other miss is a
    /// read-through, for which `locate` is asked — after the page was found
    /// unmapped — for the `(offset, len)` span the caller needs, or `None`
    /// to have the page loaded instead. Pages are taken shard by shard
    /// through classify → read → verify (see the module docs), so `visit`
    /// runs in no particular order, and for pages in frames under their
    /// shard's lock: it must not re-enter the pool.
    pub(crate) fn read_batch(
        &self,
        pages: &[PageId],
        buffers: &mut PoolBatch,
        mut locate: impl FnMut(usize) -> Option<(usize, usize)>,
        mut visit: impl FnMut(usize, Seen<'_>),
    ) {
        let PoolBatch { shard_of, by_shard, ends, loads, staged, ranges, bytes } = buffers;
        // Group the pages by shard, each group in batch order: a counting
        // sort, `ends[s]` ending up where shard `s`'s group ends.
        shard_of.clear();
        shard_of.extend(pages.iter().map(|&id| self.shard_index(id)));
        ends.clear();
        ends.resize(self.shards.len(), 0);
        for &s in shard_of.iter() {
            ends[s] += 1;
        }
        let mut start = 0;
        for end in ends.iter_mut() {
            (start, *end) = (start + *end, start);
        }
        by_shard.clear();
        by_shard.resize(pages.len(), 0);
        for (i, &s) in shard_of.iter().enumerate() {
            by_shard[ends[s]] = i;
            ends[s] += 1;
        }
        let mut tally = Tally::default();
        let mut start = 0;
        for (shard, &end) in self.shards.iter().zip(ends.iter()) {
            let group = &by_shard[start..end];
            start = end;
            if group.is_empty() {
                continue;
            }
            loads.clear();
            staged.clear();
            ranges.clear();
            // Classify, under one read lock.
            let epoch = {
                let inner = shard.read();
                for &i in group {
                    let id = pages[i];
                    if let Some(&idx) = inner.map.get(&id) {
                        tally.hits += 1;
                        let frame = inner.frame(idx);
                        frame.referenced.store(true, Ordering::Relaxed);
                        visit(i, Seen::Page(&frame.page));
                    } else {
                        staged.push(i);
                    }
                }
                if !staged.is_empty() {
                    tally.misses += staged.len() as u64;
                    let mut at = inner.count_misses(staged.len());
                    staged.retain(|&i| {
                        let local = self.shard_page(pages[i]);
                        let admitted = inner.admit(&mut at, local, loads.len());
                        if admitted {
                            loads.push(i);
                        }
                        !admitted
                    });
                }
                inner.write_epoch
            };
            // Read, unlocked: every located span in one store call.
            staged.retain(|&i| match locate(i) {
                Some((offset, len)) => {
                    ranges.push(PageRange { page: pages[i], offset, len });
                    true
                }
                None => {
                    loads.push(i);
                    false
                }
            });
            if !staged.is_empty() {
                bytes.clear();
                bytes.resize(ranges.iter().map(|r| r.len).sum(), 0);
                match self.store.read_ranges(ranges, bytes) {
                    Err(_) => {
                        tally.read_errors += staged.len() as u64;
                        let inner = shard.read();
                        for &i in staged.iter() {
                            inner.forget(self.shard_page(pages[i]));
                            visit(i, Seen::Unreadable);
                        }
                    }
                    // Verify, under the read lock again.
                    Ok(()) => {
                        let inner = shard.read();
                        let quiet = inner.write_epoch == epoch;
                        let mut spans = bytes.as_slice();
                        for (&i, range) in staged.iter().zip(ranges.iter()) {
                            let (span, rest) = spans.split_at(range.len);
                            spans = rest;
                            if quiet && !inner.map.contains_key(&range.page) {
                                tally.read_through += 1;
                                visit(i, Seen::Bytes(span));
                            } else {
                                loads.push(i);
                            }
                        }
                    }
                }
            }
            // The frame path.
            for &i in loads.iter() {
                if self.read_missed(pages[i], |page| visit(i, Seen::Page(page))).is_err() {
                    visit(i, Seen::Unreadable);
                }
            }
        }
        self.stats.add(&tally);
    }

    /// Visit page `id`, whose miss the caller counted, in a frame: the one
    /// another thread installed meanwhile, or one loaded now.
    fn read_missed<T>(&self, id: PageId, f: impl FnOnce(&Page) -> T) -> Result<T> {
        let shard = self.shard(id);
        let inner = shard.write();
        let (mut inner, idx) = match inner.map.get(&id).copied() {
            Some(idx) => (inner, idx),
            None => self.load(shard, inner, id)?,
        };
        let frame = inner.frame_mut(idx);
        frame.referenced.store(true, Ordering::Relaxed);
        Ok(f(&frame.page))
    }

    /// Lock `id`'s shard and return it with the index of the resident slot
    /// holding `id`, loading the page first if it is not cached.
    fn fetch(&self, id: PageId) -> Result<(RwLockWriteGuard<'_, PoolInner>, usize)> {
        let shard = self.shard(id);
        let inner = shard.write();
        if let Some(&idx) = inner.map.get(&id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((inner, idx));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Every miss counts toward the doorkeeper; this one is loaded anyway.
        inner.admit(&mut inner.count_misses(1), self.shard_page(id), 0);
        self.load(shard, inner, id)
    }

    /// Load `id`, which the locked shard does not map, into a reserved
    /// frame: read with the shard unlocked, then publish (module docs).
    fn load<'a>(
        &self,
        shard: &'a RwLock<PoolInner>,
        inner: RwLockWriteGuard<'a, PoolInner>,
        id: PageId,
    ) -> Result<(RwLockWriteGuard<'a, PoolInner>, usize)> {
        let (mut inner, idx, mut page) = self.reserve(shard, inner)?;
        loop {
            let epoch = inner.write_epoch;
            drop(inner);
            let loaded = self.store.read_into(id, &mut page);
            inner = shard.write();
            if let Err(e) = loaded {
                self.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                inner.release(idx, page);
                return Err(e);
            }
            if let Some(&winner) = inner.map.get(&id) {
                // Lost a duplicate-load race: the winner's frame may already
                // carry writes this image lacks.
                inner.release(idx, page);
                return Ok((inner, winner));
            }
            if inner.write_epoch == epoch {
                inner.publish(idx, id, page);
                return Ok((inner, idx));
            }
            // The shard wrote pages back while this one was being read — it
            // may have been among them. Read again.
        }
    }

    /// Take one frame of the locked shard out of circulation for a load:
    /// returns the guard, the slot index (now [`Slot::Loading`]) and the
    /// slot's recycled buffer. When every frame of the shard is out with
    /// another load, waits for one to come back — each is held for one
    /// store access, and none of their holders waits on this thread.
    fn reserve<'a>(
        &self,
        shard: &'a RwLock<PoolInner>,
        mut inner: RwLockWriteGuard<'a, PoolInner>,
    ) -> Result<(RwLockWriteGuard<'a, PoolInner>, usize, Page)> {
        loop {
            if let Some((idx, page)) = self.try_reserve(&mut inner)? {
                return Ok((inner, idx, page));
            }
            drop(inner);
            std::thread::yield_now();
            inner = shard.write();
        }
    }

    /// [`reserve`](Self::reserve) without the wait: a free slot if there is
    /// one, else the clock victim — written back first if dirty, then
    /// unmapped. `None` when no slot is free or resident.
    fn try_reserve(&self, inner: &mut PoolInner) -> Result<Option<(usize, Page)>> {
        if let Some(idx) = inner.free.pop() {
            let Slot::Free(buffer) = std::mem::replace(&mut inner.slots[idx], Slot::Loading) else {
                unreachable!("the free list only names free slots");
            };
            return Ok(Some((idx, buffer.unwrap_or_else(Page::zeroed))));
        }
        // Clock sweep: clear reference bits until a victim is found. One
        // sweep clears every bit, so two always reach a resident frame if
        // the shard has any.
        let cap = inner.slots.len();
        for _ in 0..2 * cap {
            let idx = inner.clock_hand;
            inner.clock_hand = (idx + 1) % cap;
            let Slot::Resident(frame) = &mut inner.slots[idx] else { continue };
            if *frame.referenced.get_mut() {
                *frame.referenced.get_mut() = false;
                continue;
            }
            if frame.dirty {
                self.wal_before_data()?;
                self.store.write(frame.page_id, &frame.page)?;
                frame.dirty = false;
                inner.write_epoch += 1;
            }
            let Slot::Resident(victim) = std::mem::replace(&mut inner.slots[idx], Slot::Loading)
            else {
                unreachable!("slot {idx} was resident a moment ago, under the same lock");
            };
            inner.map.remove(&victim.page_id);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(Some((idx, victim.page)));
        }
        Ok(None)
    }
}

/// Dropping the pool flushes dirty frames back to the store, best-effort.
///
/// Without this, every dirty frame still resident at drop was silently
/// discarded — on a file-backed store the rows were simply gone after
/// reopen. Errors are swallowed (there is nowhere to report them from a
/// destructor); paths that need guaranteed durability call
/// [`flush`](BufferPool::flush) explicitly and check the result.
impl Drop for BufferPool {
    fn drop(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "destructors have nowhere to report; durable paths call flush() explicitly and check it (see the impl docs)"
        )]
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::paged::io::SimulatedPageStore;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(SimulatedPageStore::new()), cap)
    }

    fn sharded(cap: usize, shards: usize) -> BufferPool {
        BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), cap, shards)
    }

    /// How a one-record visit was served.
    #[derive(Debug, PartialEq, Eq)]
    enum RecordRead<T> {
        /// The page was visited in a frame; the closure's result.
        Page(T),
        /// A read-through: the record's bytes are in the caller's buffer.
        ReadThrough,
    }

    /// One record of one page as a batch of one page: `locate` gives the
    /// record's offset (or declines), `f` visits the page if it is seen in
    /// a frame, and a read-through leaves the bytes in `record`.
    trait OneRecord {
        fn read_record<T>(
            &self,
            id: PageId,
            record: &mut [u8],
            locate: impl FnOnce() -> Option<usize>,
            f: impl FnOnce(&Page) -> T,
        ) -> Result<RecordRead<T>>;
    }

    impl OneRecord for BufferPool {
        fn read_record<T>(
            &self,
            id: PageId,
            record: &mut [u8],
            locate: impl FnOnce() -> Option<usize>,
            f: impl FnOnce(&Page) -> T,
        ) -> Result<RecordRead<T>> {
            let (mut locate, mut f) = (Some(locate), Some(f));
            let len = record.len();
            let mut got = None;
            self.read_batch(
                &[id],
                &mut PoolBatch::default(),
                |_| locate.take().and_then(|locate| locate()).map(|offset| (offset, len)),
                |_, seen| {
                    got = Some(match seen {
                        Seen::Page(page) => Ok(RecordRead::Page(f.take().unwrap()(page))),
                        Seen::Bytes(bytes) => {
                            record.copy_from_slice(bytes);
                            Ok(RecordRead::ReadThrough)
                        }
                        Seen::Unreadable => Err(StorageError::Io("unreadable".into())),
                    })
                },
            );
            got.expect("a batch visits each of its pages")
        }
    }

    #[test]
    fn read_through_and_hit() {
        let p = pool(4);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&7u64.to_le_bytes()).unwrap()).unwrap();
        let v = p
            .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 7);
        // allocate() installs the page, so both accesses were hits.
        assert_eq!(p.stats().misses(), 0);
        assert!(p.stats().hits() >= 2);
    }

    /// Hits on one shard share its lock: a reader inside a visit of a
    /// page does not hold off another reader of the same page, whether
    /// that one visits through `read` or a batch.
    #[test]
    fn hits_on_one_shard_run_side_by_side() {
        let p = pool(4);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&7u64.to_le_bytes()).unwrap()).unwrap();
        let (inside, other_done) = (std::sync::Barrier::new(2), std::sync::mpsc::channel());
        std::thread::scope(|s| {
            s.spawn(|| {
                inside.wait();
                let batch = p.read_record(id, &mut [], || None, |page| page.count());
                assert_eq!(batch.unwrap(), RecordRead::Page(1));
                p.read(id, |page| page.count()).unwrap();
                other_done.0.send(()).unwrap();
            });
            p.read(id, |_| {
                inside.wait();
                // Still inside this visit: the other reader must get in.
                let waited = other_done.1.recv_timeout(std::time::Duration::from_secs(10));
                assert!(waited.is_ok(), "a second reader queued behind a hit");
            })
            .unwrap();
        });
        assert_eq!(p.stats().hits(), 4, "the write and three visits, all hits");
    }

    #[test]
    fn eviction_and_writeback() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        // Pool holds 2 of 4 pages; reading them all forces misses + evictions.
        for (i, &id) in ids.iter().enumerate() {
            let v = p
                .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
                .unwrap();
            assert_eq!(v, i as u64, "page {id} lost its dirty data across eviction");
        }
        assert!(p.stats().evictions() > 0);
        assert!(p.stats().misses() > 0);
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let store = Arc::new(SimulatedPageStore::new());
        let p = BufferPool::new(store.clone(), 2);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&99u64.to_le_bytes()).unwrap()).unwrap();
        p.flush().unwrap();
        // Bypass the pool: the store must have the data.
        let mut raw = Page::zeroed();
        store.read_into(id, &mut raw).unwrap();
        assert_eq!(raw.get(0).unwrap(), &99u64.to_le_bytes());
    }

    #[test]
    fn dropped_pool_flushes_dirty_frames_to_the_store() {
        use crate::paged::io::FilePageStore;
        let dir = std::env::temp_dir().join(format!("hermit-pool-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let id = {
            let store = Arc::new(FilePageStore::create(&path).unwrap());
            let p = BufferPool::new(store, 4);
            let id = p.allocate(8).unwrap();
            p.write(id, |page| page.insert(&4_2u64.to_le_bytes()).unwrap()).unwrap();
            id
            // Pool dropped here with the frame still dirty — the Drop impl
            // must write it back (the old behavior lost the row entirely).
        };
        let store = FilePageStore::open(&path).unwrap();
        let mut page = Page::zeroed();
        store.read_into(id, &mut page).unwrap();
        assert_eq!(
            page.get(0).unwrap(),
            &4_2u64.to_le_bytes(),
            "dirty frame dropped on the floor: row did not survive pool drop + reopen"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_cools_the_cache() {
        let p = pool(4);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        p.clear().unwrap();
        p.stats().reset();
        p.read(id, |_| ()).unwrap();
        assert_eq!(p.stats().misses(), 1, "read after clear must miss");
    }

    #[test]
    fn capacity_one_pool_works() {
        let p = pool(1);
        let a = p.allocate(8).unwrap();
        let b = p.allocate(8).unwrap();
        p.write(a, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        p.write(b, |page| page.insert(&2u64.to_le_bytes()).unwrap()).unwrap();
        let va =
            p.read(a, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())).unwrap();
        let vb =
            p.read(b, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())).unwrap();
        assert_eq!((va, vb), (1, 2));
    }

    #[test]
    fn sharded_pool_distributes_capacity() {
        let p = sharded(10, 4);
        assert_eq!(p.capacity(), 10);
        assert_eq!(p.shard_count(), 4);
        // 10 frames over 4 shards → 3 + 3 + 2 + 2.
        let sizes: Vec<usize> = p.shards.iter().map(|s| s.read().slots.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn sharded_pool_roundtrips_across_shards() {
        let p = sharded(8, 4);
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        // Each shard holds 2 frames for 4 resident pages → forced evictions
        // inside every shard; data must survive the churn.
        for (i, &id) in ids.iter().enumerate() {
            let v = p
                .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
                .unwrap();
            assert_eq!(v, i as u64, "page {id} lost data across sharded eviction");
        }
        assert!(p.stats().evictions() > 0);
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        let p = sharded(4, 4);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate(8).unwrap()).collect();
        p.stats().reset();
        // One read per page; pages 0..4 land in 4 distinct shards, and every
        // hit must show up in the shared counters.
        for &id in &ids {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().hits(), 4);
        assert_eq!(p.stats().misses(), 0);
        p.clear().unwrap();
        p.stats().reset();
        for &id in &ids {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().misses(), 4, "cold reads in every shard must all be counted");
    }

    #[test]
    fn clock_victim_rotation_single_shard() {
        // Capacity 3 with pages a,b,c resident, all reference bits set by
        // their installs. Installing d sweeps the clock: one full rotation
        // clears every bit, the hand wraps to frame 0 and evicts a. The
        // next install (e) resumes from frame 1 and evicts b — rotation, not
        // restart-from-zero.
        let p = pool(3);
        let a = p.allocate(8).unwrap();
        let b = p.allocate(8).unwrap();
        let c = p.allocate(8).unwrap();
        let d = p.allocate(8).unwrap();
        let e = p.allocate(8).unwrap();
        assert_eq!(p.stats().evictions(), 2);
        // Survivors c (bit cleared by d's sweep), d, and e are resident.
        p.stats().reset();
        for id in [c, d, e] {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().hits(), 3, "c/d/e must have survived the rotation");
        assert_eq!(p.stats().misses(), 0);
        // The rotation's victims were a then b.
        p.stats().reset();
        p.read(a, |_| ()).unwrap();
        p.read(b, |_| ()).unwrap();
        assert_eq!(p.stats().misses(), 2, "a and b must have been the clock victims");
    }

    #[test]
    fn free_list_fills_before_evicting() {
        let p = pool(4);
        for _ in 0..4 {
            p.allocate(8).unwrap();
        }
        assert_eq!(p.stats().evictions(), 0, "fills must use free frames, not evict");
        p.allocate(8).unwrap();
        assert_eq!(p.stats().evictions(), 1, "fifth install into 4 frames must evict");
    }

    #[test]
    #[should_panic(expected = "each shard needs at least one frame")]
    fn rejects_more_shards_than_frames() {
        let _ = sharded(2, 4);
    }

    #[test]
    fn concurrent_sharded_reads() {
        let p = std::sync::Arc::new(sharded(16, 4));
        let ids: Vec<PageId> = (0..32).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, &id) in ids.iter().enumerate().skip(t % 2).step_by(2) {
                            let v = p
                                .read(id, |page| {
                                    u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())
                                })
                                .unwrap();
                            assert_eq!(v, i as u64, "thread {t} round {round}");
                        }
                    }
                });
            }
        });
        // 32 pages through 16 frames: plenty of concurrent churn.
        assert!(p.stats().evictions() > 0);
    }
    /// A flag one thread raises and another waits for — at most 5 s, so a
    /// broken handshake fails a test instead of hanging it.
    #[derive(Default)]
    struct Signal {
        raised: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl Signal {
        fn raise(&self) {
            *self.raised.lock().unwrap() = true;
            self.cv.notify_all();
        }

        /// Whether the flag was raised in time.
        fn wait(&self) -> bool {
            let raised = self.raised.lock().unwrap();
            let deadline = std::time::Duration::from_secs(5);
            *self.cv.wait_timeout_while(raised, deadline, |r| !*r).unwrap().0
        }
    }

    /// A store whose reads rendezvous: each `read_into` waits (bounded) until
    /// `parties` reads are inside the store at once, then all proceed.
    /// `met` records whether the rendezvous ever completed. With
    /// `pause_ranges` set, a `read_ranges` that has read its bytes raises
    /// `range_read` and waits for `resume` before it returns.
    struct GatedStore {
        inner: SimulatedPageStore,
        parties: usize,
        inside: std::sync::Mutex<usize>,
        arrived: std::sync::Condvar,
        met: std::sync::atomic::AtomicBool,
        pause_ranges: std::sync::atomic::AtomicBool,
        range_read: Signal,
        resume: Signal,
    }

    impl GatedStore {
        fn new(parties: usize) -> Self {
            GatedStore {
                inner: SimulatedPageStore::new(),
                parties,
                inside: std::sync::Mutex::new(0),
                arrived: std::sync::Condvar::new(),
                met: std::sync::atomic::AtomicBool::new(false),
                pause_ranges: std::sync::atomic::AtomicBool::new(false),
                range_read: Signal::default(),
                resume: Signal::default(),
            }
        }

        fn met(&self) -> bool {
            self.met.load(Ordering::SeqCst)
        }
    }

    impl PageStore for GatedStore {
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }

        fn read_into(&self, id: PageId, page: &mut Page) -> Result<()> {
            let mut inside = self.inside.lock().unwrap();
            *inside += 1;
            self.arrived.notify_all();
            let deadline = std::time::Duration::from_secs(5);
            let (guard, _) =
                self.arrived.wait_timeout_while(inside, deadline, |n| *n < self.parties).unwrap();
            if *guard >= self.parties {
                self.met.store(true, Ordering::SeqCst);
            }
            drop(guard);
            self.inner.read_into(id, page)
        }

        fn read_ranges(&self, ranges: &[PageRange], buf: &mut [u8]) -> Result<()> {
            self.inner.read_ranges(ranges, buf)?;
            if self.pause_ranges.load(Ordering::SeqCst) {
                self.range_read.raise();
                self.resume.wait();
            }
            Ok(())
        }

        fn write(&self, id: PageId, page: &Page) -> Result<()> {
            self.inner.write(id, page)
        }

        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }

        fn stats(&self) -> &crate::paged::io::IoStats {
            self.inner.stats()
        }

        fn reset_watermark(&self, pages: u64) -> Result<()> {
            self.inner.reset_watermark(pages)
        }
    }

    fn counter(page: &Page) -> u64 {
        u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())
    }

    #[test]
    fn cold_readers_of_different_pages_overlap_inside_the_store() {
        // One shard, so both pages share a lock: the rendezvous can only
        // complete if that lock is released for the store read. Holding it
        // across the read (the old design) leaves the second reader queued
        // on the mutex and the first alone in the store until the timeout.
        let store = Arc::new(GatedStore::new(2));
        let p = BufferPool::new(store.clone(), 4);
        let a = p.allocate(8).unwrap();
        let b = p.allocate(8).unwrap();
        p.write(a, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        p.write(b, |page| page.insert(&2u64.to_le_bytes()).unwrap()).unwrap();
        p.clear().unwrap();
        let (va, vb) = std::thread::scope(|s| {
            let ra = s.spawn(|| p.read(a, counter).unwrap());
            let rb = s.spawn(|| p.read(b, counter).unwrap());
            (ra.join().unwrap(), rb.join().unwrap())
        });
        assert_eq!((va, vb), (1, 2));
        assert!(store.met(), "two cold readers were never inside the store together");
        assert_eq!(p.frame_counts(), (2, 2));
    }

    #[test]
    fn racing_loads_of_one_page_map_exactly_one_frame() {
        const READERS: usize = 4;
        let store = Arc::new(GatedStore::new(READERS));
        let p = BufferPool::new(store.clone(), 6);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&77u64.to_le_bytes()).unwrap()).unwrap();
        p.clear().unwrap();
        p.stats().reset();
        store.stats().reset();
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| assert_eq!(p.read(id, counter).unwrap(), 77));
            }
        });
        // Every reader missed and read the page (the gate holds them all
        // inside the store at once); one image was published, and the
        // losers' reserved frames went back to the free list.
        assert!(store.met());
        assert_eq!(p.stats().misses(), READERS as u64);
        assert_eq!(store.stats().reads(), READERS as u64);
        assert_eq!(p.frame_counts(), (1, 5), "one mapped frame, the rest free again");
        p.stats().reset();
        assert_eq!(p.read(id, counter).unwrap(), 77);
        assert_eq!((p.stats().hits(), p.stats().misses()), (1, 0));
    }

    #[test]
    fn stale_images_are_never_installed_over_written_back_pages() {
        // Writers bump per-page counters through a pool far smaller than
        // the page set, over a store slow enough that loads overlap
        // evictions and flushes. Each `write` is atomic under its shard
        // lock, so the only way to lose an increment is to install an image
        // read before another thread's newer one was written back.
        use std::time::Duration;
        const PAGES: usize = 8;
        const WRITERS: usize = 3;
        const ROUNDS: usize = 400;
        for (frames, shards) in [(2, 1), (3, 1), (4, 2)] {
            let store = Arc::new(SimulatedPageStore::with_latency(
                Duration::from_micros(20),
                Duration::from_micros(5),
            ));
            let p = BufferPool::new_sharded(store, frames, shards);
            let ids: Vec<PageId> = (0..PAGES).map(|_| p.allocate(8).unwrap()).collect();
            for &id in &ids {
                p.write(id, |page| page.insert(&0u64.to_le_bytes()).unwrap()).unwrap();
            }
            let issued: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let (p, ids, issued) = (&p, &ids, &issued);
                        s.spawn(move || {
                            let mut x = 0x9E37_79B9u64 + w as u64;
                            for _ in 0..ROUNDS {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let k = (x >> 33) as usize % PAGES;
                                p.write(ids[k], |page| {
                                    let next = counter(page) + 1;
                                    page.update(0, &next.to_le_bytes()).unwrap();
                                })
                                .unwrap();
                                issued[k].fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                    .collect();
                // Readers force evictions; a flusher cleans frames so that
                // they are later evicted *without* a write-back.
                for r in 0..2usize {
                    let (p, ids, done) = (&p, &ids, &done);
                    s.spawn(move || {
                        let mut k = r;
                        while !done.load(Ordering::Acquire) {
                            p.read(ids[k % PAGES], counter).unwrap();
                            k += 3;
                        }
                    });
                }
                {
                    let (p, done) = (&p, &done);
                    s.spawn(move || {
                        while !done.load(Ordering::Acquire) {
                            p.flush().unwrap();
                            std::thread::yield_now();
                        }
                    });
                }
                // Release the readers and the flusher before unwrapping: a
                // writer that panicked must fail the test, not hang it.
                let outcomes: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
                done.store(true, Ordering::Release);
                for outcome in outcomes {
                    outcome.expect("writer panicked");
                }
            });
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(
                    p.read(id, counter).unwrap(),
                    issued[k].load(Ordering::Relaxed),
                    "{frames} frames / {shards} shard(s): page {k} lost increments"
                );
            }
            let (resident, free) = p.frame_counts();
            assert_eq!(resident + free, frames, "a frame leaked out of the pool");
        }
    }

    #[test]
    fn write_back_forces_the_attached_log_first() {
        use crate::wal::{WalRecord, WalWriter};
        let dir = std::env::temp_dir().join(format!("hermit-pool-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = WalWriter::create(&dir.join("wal.log"), 0).unwrap();
        let tail = Arc::clone(wal.tail());
        let p = pool(1);
        p.attach_wal(Arc::clone(&tail));
        let a = p.allocate(8).unwrap();

        // A record in the file but not fsynced, and the page it describes.
        wal.append(&WalRecord::Delete { pk: 1 }).unwrap();
        wal.flush().unwrap();
        p.write(a, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        assert!(tail.durable() < tail.written());
        // Stealing the only frame writes the page back: log first.
        let b = p.allocate(8).unwrap();
        assert_eq!(tail.durable(), tail.written());
        assert_eq!(tail.barrier_fsyncs(), 1);

        // A dirty page with nothing pending in the log costs no fsync.
        p.write(b, |page| page.insert(&2u64.to_le_bytes()).unwrap()).unwrap();
        p.flush().unwrap();
        assert_eq!(tail.fsyncs(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_load_returns_its_frame() {
        let store = Arc::new(SimulatedPageStore::new());
        let p = BufferPool::new(store.clone(), 2);
        let id = p.allocate(8).unwrap();
        p.clear().unwrap();
        // A page id the store never wrote: every load fails.
        let ghost = store.allocate();
        for _ in 0..5 {
            assert!(p.read(ghost, |_| ()).is_err());
            assert!(p.write(ghost, |_| ()).is_err());
        }
        assert_eq!(p.stats().read_errors(), 10);
        assert_eq!(p.frame_counts(), (0, 2), "failed loads must hand their frames back");
        p.read(id, |_| ()).unwrap();
        assert_eq!(p.frame_counts(), (1, 1));
    }

    /// `n` pages, page `i` holding `i` in slot 0.
    fn pages_of(p: &BufferPool, n: u64) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let id = p.allocate(8).unwrap();
                p.write(id, |page| page.insert(&i.to_le_bytes()).unwrap()).unwrap();
                id
            })
            .collect()
    }

    /// Slot 0 of `id` as a one-record visit: its value, and whether it was
    /// read through.
    fn record_of(p: &BufferPool, id: PageId) -> (u64, bool) {
        let mut bytes = [0u8; 8];
        match p.read_record(id, &mut bytes, || Some(Page::slot_offset(8, 0)), counter).unwrap() {
            RecordRead::Page(v) => (v, false),
            RecordRead::ReadThrough => (u64::from_le_bytes(bytes), true),
        }
    }

    #[test]
    fn a_read_through_installs_and_evicts_nothing() {
        let p = pool(2);
        let ids = pages_of(&p, 4); // the last two are resident
        p.stats().reset();
        assert_eq!(record_of(&p, ids[0]), (0, true));
        assert_eq!(record_of(&p, ids[1]), (1, true));
        let s = p.stats();
        assert_eq!((s.misses(), s.read_through(), s.evictions()), (2, 2, 0));
        assert_eq!(p.frame_counts(), (2, 0));
        for &id in &ids[2..] {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().hits(), 2, "the resident pages stayed");
    }

    #[test]
    fn a_page_missed_twice_inside_the_window_is_installed() {
        let p = pool(2);
        let ids = pages_of(&p, 4);
        p.stats().reset();
        assert_eq!(record_of(&p, ids[0]), (0, true));
        assert_eq!(record_of(&p, ids[0]), (0, false), "the second miss is admitted");
        assert_eq!((p.stats().evictions(), p.stats().read_through()), (1, 1));
        assert_eq!(record_of(&p, ids[0]), (0, false));
        assert_eq!(p.stats().hits(), 1, "and installed");
        assert_eq!(p.frame_counts(), (2, 0));

        // The window is as many misses as the shard has frames: a page
        // that misses again only after two other misses reads through again.
        let p = pool(2);
        let ids = pages_of(&p, 4);
        assert_eq!(record_of(&p, ids[0]), (0, true));
        assert_eq!(record_of(&p, ids[1]), (1, true));
        assert_eq!(record_of(&p, ids[0]), (0, true));
        assert_eq!(p.stats().read_through(), 3);
    }

    #[test]
    fn a_shard_with_a_free_frame_always_installs() {
        let p = sharded(4, 2);
        let ids = pages_of(&p, 4);
        p.clear().unwrap();
        p.stats().reset();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(record_of(&p, id), (i as u64, false));
        }
        assert_eq!((p.stats().misses(), p.stats().read_through()), (4, 0));
        assert_eq!(p.frame_counts(), (4, 0));
    }

    #[test]
    fn a_declined_or_failed_read_through_takes_no_frame_of_its_own() {
        let store = Arc::new(SimulatedPageStore::new());
        let p = BufferPool::new(store.clone(), 1);
        let ids = pages_of(&p, 2);
        // Declined: the page is loaded after all.
        let mut bytes = [0u8; 8];
        let got = p.read_record(ids[0], &mut bytes, || None, counter).unwrap();
        assert_eq!((got, p.stats().read_through()), (RecordRead::Page(0), 0));
        // Failed: the error, counted, and the frame still where it was.
        let ghost = store.allocate();
        let offset = || Some(Page::slot_offset(8, 0));
        assert!(p.read_record(ghost, &mut bytes, offset, counter).is_err());
        assert_eq!(p.stats().read_errors(), 1);
        assert_eq!(p.frame_counts(), (1, 0));
        assert_eq!(record_of(&p, ids[0]), (0, false), "still resident");
    }

    #[test]
    fn a_page_whose_read_through_failed_is_not_admitted_by_that_miss() {
        let store = Arc::new(SimulatedPageStore::new());
        let p = BufferPool::new(store.clone(), 2);
        pages_of(&p, 3); // the last two are resident
        p.stats().reset();
        let ghost = store.allocate(); // never written: every read fails
        let offset = || Some(Page::slot_offset(8, 0));
        for _ in 0..2 {
            assert!(p.read_record(ghost, &mut [0u8; 8], offset, counter).is_err());
        }
        // The second miss fell inside the first one's doorkeeper window;
        // had the failed read taught the doorkeeper, it would have been
        // admitted, evicting a resident page for a load that fails too.
        let s = p.stats();
        assert_eq!((s.misses(), s.read_errors(), s.evictions()), (2, 2, 0));
        assert_eq!(p.frame_counts(), (2, 0));
    }

    #[test]
    fn a_read_through_racing_a_write_back_of_its_page_keeps_no_stale_bytes() {
        // A read-through of a page that, while its bytes are in flight, is
        // loaded, changed, written back and evicted again: an insert of the
        // slot it reads (so the bytes it read are zeros), or a delete that a
        // reader sees before the read-through returns. Either way the page
        // is unmapped when the read-through relocks, and only the moved
        // write epoch tells it the bytes are stale.
        for delete in [false, true] {
            let store = Arc::new(GatedStore::new(1));
            let p = BufferPool::new(store.clone(), 1);
            let ids = pages_of(&p, 2);
            let (page, other) = (ids[0], ids[1]);
            // Clean frames: only the race writes pages back.
            p.flush().unwrap();
            // The heap's summary of `page`: slot count, and a tombstone.
            let count = std::sync::atomic::AtomicU16::new(1);
            let tombstone = std::sync::atomic::AtomicBool::new(false);
            let slot = if delete { 0 } else { 1 };
            let (checked, written) = (Signal::default(), Signal::default());
            store.pause_ranges.store(true, Ordering::SeqCst);
            let got = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut bytes = [0u8; 8];
                    let locate = || {
                        checked.raise();
                        written.wait();
                        let live = !tombstone.load(Ordering::SeqCst)
                            && slot < count.load(Ordering::SeqCst);
                        live.then(|| Page::slot_offset(8, slot))
                    };
                    let visit = |page: &Page| page.get(slot).ok().map(|_| counter_at(page, slot));
                    match p.read_record(page, &mut bytes, locate, visit).unwrap() {
                        RecordRead::Page(v) => v,
                        RecordRead::ReadThrough => Some(u64::from_le_bytes(bytes)),
                    }
                });
                assert!(checked.wait(), "the reader found the page unmapped");
                if !delete {
                    p.write(page, |pg| {
                        pg.insert(&42u64.to_le_bytes()).unwrap();
                        count.store(pg.count(), Ordering::SeqCst);
                    })
                    .unwrap();
                }
                written.raise();
                assert!(store.range_read.wait(), "the reader read through");
                if delete {
                    p.write(page, |pg| {
                        pg.delete(0).unwrap();
                        tombstone.store(true, Ordering::SeqCst);
                    })
                    .unwrap();
                    assert!(p.read(page, |pg| pg.get(0).is_err()).unwrap(), "a reader saw it go");
                }
                p.flush().unwrap();
                p.read(other, |_| ()).unwrap(); // evicts `page`
                store.resume.raise();
                reader.join().unwrap()
            });
            let want = if delete { None } else { Some(42) };
            assert_eq!(got, want, "delete {delete}: the post-image, never stale bytes");
            assert_eq!(p.stats().read_through(), 0, "delete {delete}: the bytes were discarded");
            let (resident, free) = p.frame_counts();
            assert_eq!(resident + free, 1);
        }
    }

    fn counter_at(page: &Page, slot: u16) -> u64 {
        u64::from_le_bytes(page.get(slot).unwrap().try_into().unwrap())
    }

    /// The batched twin of the race above. Two shards of one frame each,
    /// a batch of two cold pages per shard, all read through. While shard
    /// 0's spans are in flight, one page of shard `writer` is loaded,
    /// changed, written back and evicted again. Only that shard's write
    /// epoch moves, so exactly its staged pages take the frame path — and
    /// see the change — while the other shard's are read through.
    #[test]
    fn a_batch_racing_a_write_back_sends_only_that_shards_pages_to_frames() {
        for writer in [0u64, 1] {
            let store = Arc::new(GatedStore::new(1));
            let p = BufferPool::new_sharded(store.clone(), 2, 2);
            // Pages 0..6, shard = id % 2; pages 4 and 5 stay resident.
            let ids = pages_of(&p, 6);
            p.flush().unwrap();
            p.stats().reset();
            store.pause_ranges.store(true, Ordering::SeqCst);
            let batch = [ids[0], ids[1], ids[2], ids[3]];
            let got = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut got = [None; 4];
                    let locate = |_| Some((Page::slot_offset(8, 0), 8));
                    p.read_batch(&batch, &mut PoolBatch::default(), locate, |i, seen| {
                        got[i] = Some(match seen {
                            Seen::Page(page) => (counter(page), false),
                            Seen::Bytes(b) => (u64::from_le_bytes(b.try_into().unwrap()), true),
                            Seen::Unreadable => panic!("page {i} unreadable"),
                        });
                    });
                    got
                });
                assert!(store.range_read.wait(), "shard 0's spans are in flight");
                let changed = ids[writer as usize];
                p.write(changed, |pg| pg.update(0, &100u64.to_le_bytes()).unwrap()).unwrap();
                p.flush().unwrap();
                p.read(ids[4 + writer as usize], |_| ()).unwrap(); // evicts `changed`
                store.resume.raise();
                reader.join().unwrap()
            });
            // Shard 1 is classified after the write, so it is never stale.
            let framed = |k: u64| writer == 0 && k.is_multiple_of(2);
            let want: Vec<_> =
                (0..4u64).map(|k| Some((if k == writer { 100 } else { k }, !framed(k)))).collect();
            assert_eq!(got.to_vec(), want, "writer shard {writer}");
            let read_through = if writer == 0 { 2 } else { 4 };
            let s = p.stats();
            assert_eq!((s.misses(), s.read_through()), (4 + 2, read_through), "writer {writer}");
        }
    }
}
