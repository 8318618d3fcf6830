//! Page stores: where pages live when they are not in the buffer pool.
//!
//! The paper's disk experiment (§7.8) ran against PostgreSQL on an NVMe SSD.
//! We abstract the backing device behind [`PageStore`] with two
//! implementations:
//!
//! * [`FilePageStore`] — a real file; every read/write is one positional
//!   syscall (`pread`/`pwrite`) on a shared descriptor, so concurrent
//!   callers never queue behind a file cursor, and on a machine with a real
//!   disk the cost structure is genuine.
//! * [`SimulatedPageStore`] — an in-memory store that charges a configurable
//!   busy-wait latency per access, so the "storage fetch dominates" regime
//!   of Fig. 24 reproduces deterministically even on a RAM-backed CI box.
//!
//! Both count reads and writes in [`IoStats`] for the harness to report.

use super::page::{Page, PageId, PAGE_SIZE};
use crate::error::StorageError;
use crate::fault::{fault_point, injected_error, FaultAction};
use crate::Result;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
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

    fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
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

    /// Read `buf.len()` bytes of page `id` starting `offset` bytes into it:
    /// one positional read of a record instead of its whole page (the
    /// buffer pool's read-through miss). Errors like
    /// [`read_into`](Self::read_into), and when the range passes the end
    /// of the page.
    fn read_range(&self, id: PageId, offset: usize, buf: &mut [u8]) -> Result<()>;

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

/// The error for a [`PageStore::read_range`] that passes the end of page
/// `id`.
fn check_range(id: PageId, offset: usize, len: usize) -> Result<()> {
    if offset.checked_add(len).is_some_and(|end| end <= PAGE_SIZE) {
        return Ok(());
    }
    Err(StorageError::Io(format!("range {offset}+{len} passes the end of page {id}")))
}

/// A [`PageStore`] backed by a real file.
///
/// All I/O is positional (`read_exact_at` / `write_all_at`), which needs no
/// cursor and therefore no lock: any number of threads read and write
/// different pages through the one descriptor at once.
pub struct FilePageStore {
    file: File,
    path: PathBuf,
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
        #[allow(clippy::suspicious_open_options)]
        let file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        Ok(FilePageStore {
            file,
            path: path.to_path_buf(),
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
            next_page: AtomicU64::new(pages),
            stats: IoStats::default(),
        })
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
        if fault_point("page.read") == FaultAction::Error {
            return Err(StorageError::Io(injected_error("page.read")));
        }
        self.file.read_exact_at(page.as_bytes_mut(), id * PAGE_SIZE as u64)?;
        self.stats.record_read();
        Ok(())
    }

    fn read_range(&self, id: PageId, offset: usize, buf: &mut [u8]) -> Result<()> {
        if id >= self.next_page.load(Ordering::Relaxed) {
            return Err(StorageError::PageNotFound { page: id });
        }
        check_range(id, offset, buf.len())?;
        if fault_point("page.read_range") == FaultAction::Error {
            return Err(StorageError::Io(injected_error("page.read_range")));
        }
        self.file.read_exact_at(buf, id * PAGE_SIZE as u64 + offset as u64)?;
        self.stats.record_read();
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        if id >= self.next_page.load(Ordering::Relaxed) {
            return Err(StorageError::PageNotFound { page: id });
        }
        match fault_point("page.write") {
            FaultAction::Error => return Err(StorageError::Io(injected_error("page.write"))),
            FaultAction::Skip => {
                // Silently-dropped write: report success (and count it, so
                // I/O accounting cannot reveal the lie) without touching
                // the file.
                self.stats.record_write();
                return Ok(());
            }
            FaultAction::Continue => {}
        }
        self.file.write_all_at(page.as_bytes(), id * PAGE_SIZE as u64)?;
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
        match fault_point("page.sync") {
            FaultAction::Error => return Err(StorageError::Io(injected_error("page.sync"))),
            // Lying fsync: report durability without asking the OS for it.
            FaultAction::Skip => return Ok(()),
            FaultAction::Continue => {}
        }
        self.file.sync_all()?;
        Ok(())
    }

    fn file_path(&self) -> Option<&Path> {
        Some(&self.path)
    }

    fn reset_watermark(&self, pages: u64) -> Result<()> {
        let len = pages * PAGE_SIZE as u64;
        if self.file.metadata()?.len() > len {
            self.file.set_len(len)?;
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
        self.read_range(id, 0, page.as_bytes_mut())
    }

    /// Charges the read latency once, as a whole-page read does: the
    /// simulated device's cost is per access, not per byte.
    fn read_range(&self, id: PageId, offset: usize, buf: &mut [u8]) -> Result<()> {
        check_range(id, offset, buf.len())?;
        let pages = self.pages.lock();
        let stored = pages
            .get(id as usize)
            .and_then(|p| p.as_deref())
            .ok_or(StorageError::PageNotFound { page: id })?;
        let tail = stored.get(offset..).unwrap_or_default();
        let held = tail.len().min(buf.len());
        buf[..held].copy_from_slice(&tail[..held]);
        buf[held..].fill(0);
        drop(pages);
        Self::charge(self.read_latency);
        self.stats.record_read();
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

    fn read(store: &dyn PageStore, id: PageId) -> Result<Page> {
        let mut page = Page::zeroed();
        store.read_into(id, &mut page)?;
        Ok(page)
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
        store.read_range(id, Page::slot_offset(8, 0), &mut record).unwrap();
        assert_eq!(record, 42u64.to_le_bytes());
        let mut empty = [0xFFu8; 8];
        store.read_range(id, Page::slot_offset(8, 1), &mut empty).unwrap();
        assert_eq!(empty, [0; 8]);
        assert_eq!(store.stats().reads(), 3);
        assert!(store.read_range(id, PAGE_SIZE - 4, &mut record).is_err(), "past the page end");
        assert!(matches!(
            store.read_range(id + 1, 0, &mut record),
            Err(StorageError::PageNotFound { .. })
        ));
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
            store.read_range(id, 0, &mut [0u8; 8]).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(2000));
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
