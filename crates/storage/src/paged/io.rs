//! Page stores: where pages live when they are not in the buffer pool.
//!
//! The paper's disk experiment (§7.8) ran against PostgreSQL on an NVMe SSD.
//! We abstract the backing device behind [`PageStore`] with two
//! implementations:
//!
//! * [`FilePageStore`] — a real file; every read/write is one positional
//!   syscall (`pread`/`pwrite`), so concurrent callers never queue behind a
//!   file cursor, and on a machine with a real disk the cost structure is
//!   genuine. A batch of record reads ([`PageStore::read_ranges`]) runs
//!   through a read handle of its own for the whole batch: a separately
//!   opened file description, so two readers' `pread`s do not share one.
//! * [`SimulatedPageStore`] — an in-memory store that charges a configurable
//!   busy-wait latency per access, so the "storage fetch dominates" regime
//!   of Fig. 24 reproduces deterministically even on a RAM-backed CI box.
//!
//! Both count reads and writes in [`IoStats`] for the harness to report.

use super::page::{Page, PageId, PAGE_SIZE};
use crate::error::StorageError;
use crate::fault::{fault_point, Site};
use crate::Result;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counters for page-level I/O.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl IoStats {
    /// Number of reads served by the store: whole pages and record ranges.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of page writes accepted by the store.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reset both counters (between benchmark phases).
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    fn record_reads(&self, n: usize) {
        self.reads.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
}

/// `len` bytes of page `page`, starting `offset` bytes into it: one read of
/// a [`PageStore::read_ranges`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRange {
    /// The page read.
    pub page: PageId,
    /// First byte read, from the start of the page.
    pub offset: usize,
    /// Bytes read.
    pub len: usize,
}

/// A device that stores pages by id.
pub trait PageStore: Send + Sync {
    /// Allocate a fresh page id.
    fn allocate(&self) -> PageId;

    /// Read page `id` into `page`, overwriting the whole image — the caller
    /// supplies the buffer (the buffer pool hands in a recycled frame), so a
    /// read allocates nothing. Errors if the page was never written; `page`
    /// then holds unspecified bytes and must not be used as a page image.
    fn read_into(&self, id: PageId, page: &mut Page) -> Result<()>;

    /// Read every range of `ranges` into `buf`, back to back in order, so
    /// `buf` is exactly as long as the ranges together: one positional read
    /// per range, of records instead of whole pages (the buffer pool's
    /// read-throughs of one shard, batched; one record is a batch of one).
    /// Errors like [`read_into`](Self::read_into), when a range passes the
    /// end of its page, and when `buf` is not the ranges' total length; on
    /// an error `buf` holds unspecified bytes. Each range is one read in
    /// [`IoStats`], counted once the batch succeeded.
    fn read_ranges(&self, ranges: &[PageRange], buf: &mut [u8]) -> Result<()>;

    /// Write a page.
    fn write(&self, id: PageId, page: &Page) -> Result<()>;

    /// Number of pages allocated so far.
    fn page_count(&self) -> u64;

    /// I/O counters.
    fn stats(&self) -> &IoStats;

    /// Force previously accepted writes down to the durable medium (fsync).
    ///
    /// `write` only promises the data reached the store, not that it
    /// survives a crash; callers that need durability (buffer-pool flush,
    /// checkpointing) must follow their writes with `sync`. The default is
    /// a no-op, correct for stores with no volatile buffer between `write`
    /// and the medium ([`SimulatedPageStore`], test fault injectors).
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Path of the backing file for file-backed stores, `None` otherwise.
    ///
    /// The checkpoint machinery uses this to verify a database's pages
    /// actually live where the catalog will claim they do. Wrapper stores
    /// (fault injectors) should forward it.
    fn file_path(&self) -> Option<&Path> {
        None
    }

    /// Set the allocation watermark to exactly `pages` and give back the
    /// space behind it.
    ///
    /// Recovery calls this with the catalog's watermark. A page the catalog
    /// does not list is unreachable — whatever the crashed process wrote
    /// there is regenerated from the WAL into newly allocated pages — so
    /// leaving it allocated would leak it for good. A store shorter than
    /// `pages` keeps its length: the catalog wins, and the next allocation
    /// still cannot collide with an id the checkpoint handed out. Wrapper
    /// stores must forward.
    fn reset_watermark(&self, pages: u64) -> Result<()>;
}

/// The error for a [`PageRange`] that passes the end of its page.
fn check_range(range: &PageRange) -> Result<()> {
    let PageRange { page, offset, len } = *range;
    if offset.checked_add(len).is_some_and(|end| end <= PAGE_SIZE) {
        return Ok(());
    }
    Err(StorageError::Io(format!("range {offset}+{len} passes the end of page {page}")))
}

/// `buf` cut into one slice per range of `ranges`, in order — or the error
/// when `buf` is not exactly their total length.
fn split_ranges<'a>(
    ranges: &'a [PageRange],
    mut buf: &'a mut [u8],
) -> Result<impl Iterator<Item = (&'a PageRange, &'a mut [u8])>> {
    let total: usize = ranges.iter().map(|r| r.len).sum();
    if total != buf.len() {
        return Err(StorageError::Io(format!(
            "{} ranges of {total} bytes into a {}-byte buffer",
            ranges.len(),
            buf.len()
        )));
    }
    Ok(ranges.iter().map(move |range| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(range.len);
        buf = tail;
        (range, head)
    }))
}

/// Read handles [`FilePageStore`] keeps for the next batches; a batch that
/// returns one past this many closes it.
const SPARE_READ_HANDLES: usize = 8;

/// A [`PageStore`] backed by a real file.
///
/// All I/O is positional (`read_exact_at` / `write_all_at`), which needs no
/// cursor and therefore no lock: any number of threads read and write
/// different pages at once. Page loads and writes go through the store's
/// own descriptor. A [`read_ranges`](PageStore::read_ranges) batch checks
/// out a read handle for its whole run of `pread`s — a file description
/// opened on the same file, not a `dup` of the descriptor, so concurrent
/// batches share no kernel file object — and returns it to a free list of
/// at most a few handles when it ends, failed or not. A handle is opened
/// only when the list is empty, so `K` batches at once leave at most `K`
/// handles behind.
pub struct FilePageStore {
    file: File,
    path: PathBuf,
    /// Read handles not checked out by a batch.
    spare_readers: Mutex<Vec<File>>,
    next_page: AtomicU64,
    stats: IoStats,
}

impl FilePageStore {
    /// Create a file-backed store at `path`.
    ///
    /// Fails with [`StorageError::Io`] if a non-empty file already exists
    /// there (`create_new` semantics): `create` used to truncate silently,
    /// which turned an accidental re-`create` of a database file into
    /// unrecoverable data loss. Use [`open`](Self::open) to attach to an
    /// existing store.
    pub fn create(path: &Path) -> Result<Self> {
        if let Ok(meta) = std::fs::metadata(path) {
            if meta.len() > 0 {
                return Err(StorageError::Io(format!(
                    "refusing to create page store over existing non-empty file {} \
                     ({} bytes); use FilePageStore::open to attach",
                    path.display(),
                    meta.len()
                )));
            }
        }
        // truncate(false): the pre-check above established the file is
        // empty or absent; truncating would mask a race with a concurrent
        // creator rather than surface it.
        #[allow(
            clippy::suspicious_open_options,
            reason = "the pre-check above established the file is empty or absent"
        )]
        let file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        Ok(FilePageStore {
            file,
            path: path.to_path_buf(),
            spare_readers: Mutex::new(Vec::new()),
            next_page: AtomicU64::new(0),
            stats: IoStats::default(),
        })
    }

    /// Attach to an existing page file, deriving the allocation watermark
    /// from the file length. A trailing partial page (a write torn by a
    /// crash) is rounded off — it sits past every checkpointed page, so
    /// nothing can reference it, and the next allocation overwrites it.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let pages = file.metadata()?.len() / PAGE_SIZE as u64;
        Ok(FilePageStore {
            file,
            path: path.to_path_buf(),
            spare_readers: Mutex::new(Vec::new()),
            next_page: AtomicU64::new(pages),
            stats: IoStats::default(),
        })
    }

    /// A read handle for one batch: a spare one, or the store's file opened
    /// again. A path that names another file by now (the store's was
    /// replaced under it) is an error, never a read of the wrong file.
    fn check_out_reader(&self) -> Result<File> {
        if let Some(reader) = self.spare_readers.lock().pop() {
            return Ok(reader);
        }
        let reader = File::open(&self.path)?;
        let (opened, ours) = (reader.metadata()?, self.file.metadata()?);
        if (opened.dev(), opened.ino()) != (ours.dev(), ours.ino()) {
            return Err(StorageError::Io(format!(
                "{} no longer names this page store's file",
                self.path.display()
            )));
        }
        Ok(reader)
    }

    /// Give a batch's read handle back, closing it if enough are spare.
    fn check_in_reader(&self, reader: File) {
        let mut spare = self.spare_readers.lock();
        if spare.len() < SPARE_READ_HANDLES {
            spare.push(reader);
        }
    }
}

impl PageStore for FilePageStore {
    fn allocate(&self) -> PageId {
        self.next_page.fetch_add(1, Ordering::Relaxed)
    }

    fn read_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        if id >= self.next_page.load(Ordering::Relaxed) {
            return Err(StorageError::PageNotFound { page: id });
        }
        // Skip is meaningless for a read (there is nothing to lie about),
        // so only Error is honored here.
        fault_point(Site::PageRead)?;
        self.file.read_exact_at(page.as_bytes_mut(), id * PAGE_SIZE as u64)?;
        self.stats.record_reads(1);
        Ok(())
    }

    fn read_ranges(&self, ranges: &[PageRange], buf: &mut [u8]) -> Result<()> {
        let mut spans = split_ranges(ranges, buf)?;
        let watermark = self.next_page.load(Ordering::Relaxed);
        let reader = self.check_out_reader()?;
        let read = spans.try_for_each(|(range, bytes)| {
            if range.page >= watermark {
                return Err(StorageError::PageNotFound { page: range.page });
            }
            check_range(range)?;
            fault_point(Site::PageReadRange)?;
            reader.read_exact_at(bytes, range.page * PAGE_SIZE as u64 + range.offset as u64)?;
            Ok(())
        });
        self.check_in_reader(reader);
        read?;
        self.stats.record_reads(ranges.len());
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        if id >= self.next_page.load(Ordering::Relaxed) {
            return Err(StorageError::PageNotFound { page: id });
        }
        // A skip is a silently dropped write: reported as done, and
        // counted, so I/O accounting cannot reveal the lie.
        if let Some(io) = fault_point(Site::PageWrite)? {
            io.write_all_at(&self.file, page.as_bytes(), id * PAGE_SIZE as u64)?;
        }
        self.stats.record_write();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn sync(&self) -> Result<()> {
        // A skip is a lying fsync: durability reported, never asked for.
        if let Some(io) = fault_point(Site::PageSync)? {
            io.sync_all(&self.file)?;
        }
        Ok(())
    }

    fn file_path(&self) -> Option<&Path> {
        Some(&self.path)
    }

    fn reset_watermark(&self, pages: u64) -> Result<()> {
        let len = pages * PAGE_SIZE as u64;
        if self.file.metadata()?.len() > len {
            if let Some(io) = fault_point(Site::PageTrim)? {
                io.set_len(&self.file, len)?;
            }
        }
        self.next_page.store(pages, Ordering::Relaxed);
        Ok(())
    }
}

/// An in-memory [`PageStore`] that charges a fixed latency per access,
/// emulating an SSD's page-read cost deterministically.
///
/// A page image is kept without its zero tail (records fill a page from the
/// front), so the formatted empty image a fresh page is persisted as costs a
/// few bytes, not a second 8 KiB beside the pool's frame.
pub struct SimulatedPageStore {
    pages: Mutex<Vec<Option<Box<[u8]>>>>,
    read_latency: Duration,
    write_latency: Duration,
    stats: IoStats,
}

impl SimulatedPageStore {
    /// Store with zero latency (pure accounting).
    pub fn new() -> Self {
        Self::with_latency(Duration::ZERO, Duration::ZERO)
    }

    /// Store charging the given busy-wait latencies per read/write. An NVMe
    /// SSD page read is on the order of 10–100 µs.
    pub fn with_latency(read_latency: Duration, write_latency: Duration) -> Self {
        SimulatedPageStore {
            pages: Mutex::new(Vec::new()),
            read_latency,
            write_latency,
            stats: IoStats::default(),
        }
    }

    fn charge(latency: Duration) {
        if latency.is_zero() {
            return;
        }
        // Busy-wait: sleeping is too coarse at microsecond scale and would
        // distort throughput measurements.
        let start = Instant::now();
        while start.elapsed() < latency {
            std::hint::spin_loop();
        }
    }
}

impl Default for SimulatedPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for SimulatedPageStore {
    fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        pages.push(None);
        (pages.len() - 1) as PageId
    }

    fn read_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        self.read_ranges(&[PageRange { page: id, offset: 0, len: PAGE_SIZE }], page.as_bytes_mut())
    }

    /// Charges the read latency once per range, as a whole-page read does:
    /// the simulated device's cost is per access, not per byte.
    fn read_ranges(&self, ranges: &[PageRange], buf: &mut [u8]) -> Result<()> {
        let spans = split_ranges(ranges, buf)?;
        let pages = self.pages.lock();
        for (range, bytes) in spans {
            check_range(range)?;
            let stored = pages
                .get(range.page as usize)
                .and_then(|p| p.as_deref())
                .ok_or(StorageError::PageNotFound { page: range.page })?;
            let tail = stored.get(range.offset..).unwrap_or_default();
            let held = tail.len().min(bytes.len());
            bytes[..held].copy_from_slice(&tail[..held]);
            bytes[held..].fill(0);
        }
        drop(pages);
        for _ in ranges {
            Self::charge(self.read_latency);
        }
        self.stats.record_reads(ranges.len());
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        let bytes = page.as_bytes();
        let image: Box<[u8]> =
            bytes[..bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)].into();
        let mut pages = self.pages.lock();
        let slot = pages.get_mut(id as usize).ok_or(StorageError::PageNotFound { page: id })?;
        *slot = Some(image);
        drop(pages);
        Self::charge(self.write_latency);
        self.stats.record_write();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn reset_watermark(&self, pages: u64) -> Result<()> {
        self.pages.lock().resize_with(pages as usize, || None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultAction;

    fn read(store: &dyn PageStore, id: PageId) -> Result<Page> {
        let mut page = Page::zeroed();
        store.read_into(id, &mut page)?;
        Ok(page)
    }

    /// `buf.len()` bytes of page `id` from `offset` on, as a batch of one.
    fn read_range(store: &dyn PageStore, id: PageId, offset: usize, buf: &mut [u8]) -> Result<()> {
        store.read_ranges(&[PageRange { page: id, offset, len: buf.len() }], buf)
    }

    fn roundtrip(store: &dyn PageStore) {
        let id = store.allocate();
        let mut p = Page::new(8);
        p.insert(&42u64.to_le_bytes()).unwrap();
        store.write(id, &p).unwrap();
        // Read into a buffer holding another image: every byte is replaced.
        let mut q = Page::new(16);
        q.as_bytes_mut().fill(0xFF);
        store.read_into(id, &mut q).unwrap();
        assert_eq!(q.as_bytes()[..], p.as_bytes()[..]);
        assert_eq!(q.get(0).unwrap(), &42u64.to_le_bytes());
        assert_eq!(store.stats().reads(), 1);
        assert_eq!(store.stats().writes(), 1);
        // One record's bytes, read where the page layout puts them; the
        // empty slot after it reads as zeros.
        let mut record = [0u8; 8];
        read_range(store, id, Page::slot_offset(8, 0), &mut record).unwrap();
        assert_eq!(record, 42u64.to_le_bytes());
        let mut empty = [0xFFu8; 8];
        read_range(store, id, Page::slot_offset(8, 1), &mut empty).unwrap();
        assert_eq!(empty, [0; 8]);
        assert_eq!(store.stats().reads(), 3);
        assert!(read_range(store, id, PAGE_SIZE - 4, &mut record).is_err(), "past the page end");
        assert!(matches!(
            read_range(store, id + 1, 0, &mut record),
            Err(StorageError::PageNotFound { .. })
        ));
        // A batch lays its ranges back to back and counts one read each; a
        // buffer that does not fit them exactly is refused.
        let second = store.allocate();
        let mut q = Page::new(8);
        q.insert(&7u64.to_le_bytes()).unwrap();
        store.write(second, &q).unwrap();
        let ranges = [
            PageRange { page: second, offset: Page::slot_offset(8, 0), len: 8 },
            PageRange { page: id, offset: Page::slot_offset(8, 0), len: 16 },
        ];
        let mut both = [0xFFu8; 24];
        store.read_ranges(&ranges, &mut both).unwrap();
        assert_eq!(both[..8], 7u64.to_le_bytes());
        assert_eq!(both[8..16], 42u64.to_le_bytes());
        assert_eq!(both[16..], [0; 8]);
        assert_eq!(store.stats().reads(), 5);
        assert!(store.read_ranges(&ranges, &mut [0u8; 23]).is_err());
        assert_eq!(store.stats().reads(), 5);
    }

    #[test]
    fn simulated_store_roundtrip() {
        roundtrip(&SimulatedPageStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hermit-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        roundtrip(&FilePageStore::create(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_open_reattaches_and_create_refuses_overwrite() {
        let dir = std::env::temp_dir().join(format!("hermit-io-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let store = FilePageStore::create(&path).unwrap();
            assert_eq!(store.file_path(), Some(path.as_path()));
            for i in 0..3u64 {
                let id = store.allocate();
                let mut p = Page::new(8);
                p.insert(&i.to_le_bytes()).unwrap();
                store.write(id, &p).unwrap();
            }
            store.sync().unwrap();
        }
        // `create` over the now non-empty file must refuse rather than
        // truncate (the old behavior silently destroyed the database).
        assert!(matches!(FilePageStore::create(&path), Err(StorageError::Io(_))));
        // `open` derives the watermark from the file length.
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.page_count(), 3);
        for i in 0..3u64 {
            let p = read(&store, i).unwrap();
            assert_eq!(p.get(0).unwrap(), &i.to_le_bytes());
        }
        // A torn trailing page (crash mid-write) is rounded off…
        let f = OpenOptions::new().append(true).open(&path).unwrap();
        #[expect(clippy::disallowed_methods, reason = "the test tears the file by hand")]
        f.set_len(3 * PAGE_SIZE as u64 + 100).unwrap();
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.page_count(), 3, "partial trailing page must not count");
        // …`reset_watermark` can push the watermark past the file (catalog
        // wins) without growing it…
        store.reset_watermark(10).unwrap();
        assert_eq!(store.page_count(), 10);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * PAGE_SIZE as u64 + 100);
        // …and pulls it back, returning the pages behind it to the file system.
        store.reset_watermark(2).unwrap();
        assert_eq!(store.page_count(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * PAGE_SIZE as u64);
        assert!(matches!(read(&store, 2), Err(StorageError::PageNotFound { page: 2 })));
        assert_eq!(store.allocate(), 2, "a reclaimed id is handed out again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unallocated_reads_fail() {
        let store = SimulatedPageStore::new();
        assert!(matches!(read(&store, 0), Err(StorageError::PageNotFound { page: 0 })));
        let id = store.allocate();
        // Allocated but never written also fails.
        assert!(read(&store, id).is_err());
    }

    #[test]
    fn latency_is_charged() {
        let store = SimulatedPageStore::with_latency(Duration::from_micros(200), Duration::ZERO);
        let id = store.allocate();
        store.write(id, &Page::new(8)).unwrap();
        let start = Instant::now();
        for _ in 0..10 {
            read(&store, id).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(2000));
        // A record read is an access like a page read: same charge.
        let start = Instant::now();
        for _ in 0..10 {
            read_range(&store, id, 0, &mut [0u8; 8]).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(2000));
        // So is each range of a batch.
        let start = Instant::now();
        let ranges = [PageRange { page: id, offset: 0, len: 8 }; 10];
        store.read_ranges(&ranges, &mut [0u8; 80]).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(2000));
    }

    /// A store of `pages` pages, page `i` holding `i` in slot 0.
    fn file_store_of(name: &str, pages: u64) -> (PathBuf, FilePageStore) {
        let dir = std::env::temp_dir().join(format!("hermit-io-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FilePageStore::create(&dir.join("pages.db")).unwrap();
        for i in 0..pages {
            let id = store.allocate();
            let mut p = Page::new(8);
            p.insert(&i.to_le_bytes()).unwrap();
            store.write(id, &p).unwrap();
        }
        (dir, store)
    }

    fn slot_zero(pages: impl IntoIterator<Item = PageId>) -> Vec<PageRange> {
        pages
            .into_iter()
            .map(|page| PageRange { page, offset: Page::slot_offset(8, 0), len: 8 })
            .collect()
    }

    /// `K` batches inside the store at once each hold a read handle of
    /// their own — the fault hook, called with the handle checked out,
    /// holds them there until all `K` arrived — and leave exactly `K`
    /// spare handles; later batches reuse them and open none.
    #[test]
    fn concurrent_batches_leave_at_most_one_spare_handle_each() {
        const K: usize = 3;
        let (dir, store) = file_store_of("handles", 4);
        let inside = std::sync::Arc::new(std::sync::Barrier::new(K));
        std::thread::scope(|s| {
            for _ in 0..K {
                let inside = std::sync::Arc::clone(&inside);
                let store = &store;
                s.spawn(move || {
                    let mut first = true;
                    let _hook = crate::fault::install_fault_hook(move |_, _| {
                        if std::mem::take(&mut first) {
                            inside.wait();
                        }
                        FaultAction::Continue
                    });
                    let mut bytes = [0u8; 32];
                    store.read_ranges(&slot_zero(0..4), &mut bytes).unwrap();
                    for (i, record) in bytes.chunks(8).enumerate() {
                        assert_eq!(record, (i as u64).to_le_bytes());
                    }
                });
            }
        });
        assert_eq!(store.spare_readers.lock().len(), K);
        for _ in 0..10 {
            store.read_ranges(&slot_zero([2, 1]), &mut [0u8; 16]).unwrap();
        }
        assert_eq!(store.spare_readers.lock().len(), K, "a spare handle is reused");
        assert_eq!(store.stats().reads(), (4 * K + 20) as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A batch whose second read fails returns its handle, counts no read,
    /// and the next batch reads through that same handle.
    #[test]
    fn a_batch_failing_midway_returns_its_handle() {
        let (dir, store) = file_store_of("handle-error", 3);
        store.read_ranges(&slot_zero([0]), &mut [0u8; 8]).unwrap();
        assert_eq!(store.spare_readers.lock().len(), 1);
        let mut sites = 0;
        let hook = crate::fault::install_fault_hook(move |site, _| {
            assert_eq!(site, Site::PageReadRange);
            sites += 1;
            if sites == 2 {
                FaultAction::Error
            } else {
                FaultAction::Continue
            }
        });
        let failed = store.read_ranges(&slot_zero(0..3), &mut [0u8; 24]);
        drop(hook);
        assert_eq!(failed, Err(StorageError::Io("injected fault at page.read_range".into())));
        assert_eq!(store.spare_readers.lock().len(), 1, "the handle came back");
        assert_eq!(store.stats().reads(), 1, "a failed batch counts no reads");
        let mut bytes = [0u8; 24];
        store.read_ranges(&slot_zero(0..3), &mut bytes).unwrap();
        assert_eq!(bytes[16..], 2u64.to_le_bytes());
        assert_eq!(store.spare_readers.lock().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A read handle is the store's own file, never whatever its path names
    /// now.
    #[test]
    fn a_replaced_page_file_is_an_error_not_a_read_of_another_file() {
        let (dir, store) = file_store_of("handle-replaced", 1);
        let path = dir.join("pages.db");
        #[expect(clippy::disallowed_methods, reason = "the test moves the file by hand")]
        std::fs::rename(&path, dir.join("moved.db")).unwrap();
        std::fs::write(&path, vec![0xAB; PAGE_SIZE]).unwrap();
        let read = store.read_ranges(&slot_zero([0]), &mut [0u8; 8]);
        assert!(matches!(read, Err(StorageError::Io(msg)) if msg.contains("no longer names")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_reset() {
        let store = SimulatedPageStore::new();
        let id = store.allocate();
        store.write(id, &Page::new(8)).unwrap();
        read(&store, id).unwrap();
        store.stats().reset();
        assert_eq!(store.stats().reads(), 0);
        assert_eq!(store.stats().writes(), 0);
    }
}
