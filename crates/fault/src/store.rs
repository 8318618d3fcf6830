//! [`FaultyPageStore`]: a fault-injecting wrapper around any [`PageStore`].
//!
//! Replaces the ad-hoc test doubles the durability and write-path suites
//! used to carry: one shared implementation that models
//!
//! * **dying** devices — writes and fsyncs return EIO;
//! * **lying** devices — writes and fsyncs report success but drop the
//!   data;
//! * **poisoned reads** — every read fails (a vanished device);
//! * **page-granular drops** — writes to specific pages silently vanish
//!   (the partial flush a crash leaves behind);
//! * **planned faults** — EIO / dropped / torn writes at exact operation
//!   ordinals or from a seeded schedule, via [`FaultPlan`].
//!
//! All toggles compose; the wrapper forwards `file_path`/`reset_watermark`/`stats`
//! so the checkpoint machinery treats it exactly like the inner store.

use crate::plan::{FaultKind, FaultOp, FaultPlan};
use hermit_storage::paged::{FilePageStore, IoStats, Page, PageId, PageStore, PAGE_SIZE};
use hermit_storage::StorageError;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Fault-injecting [`PageStore`] wrapper. See the module docs.
pub struct FaultyPageStore {
    inner: Arc<dyn PageStore>,
    plan: Mutex<FaultPlan>,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    injected: AtomicU64,
    dying: AtomicBool,
    lying: AtomicBool,
    fail_reads: AtomicBool,
    drop_pages: Mutex<HashSet<PageId>>,
}

impl FaultyPageStore {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: Arc<dyn PageStore>) -> Self {
        Self::with_plan(inner, FaultPlan::none())
    }

    /// Wrap `inner` with a [`FaultPlan`] deciding per-operation faults.
    pub fn with_plan(inner: Arc<dyn PageStore>, plan: FaultPlan) -> Self {
        FaultyPageStore {
            inner,
            plan: Mutex::new(plan),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            dying: AtomicBool::new(false),
            lying: AtomicBool::new(false),
            fail_reads: AtomicBool::new(false),
            drop_pages: Mutex::new(HashSet::new()),
        }
    }

    /// Convenience: wrap the [`FilePageStore`] at `path` (the page file of
    /// an existing durable database directory).
    pub fn open(path: &Path) -> hermit_storage::Result<Self> {
        Ok(Self::new(Arc::new(FilePageStore::open(path)?)))
    }

    /// Replace the fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Dying device: writes and fsyncs start returning EIO.
    pub fn set_dying(&self, on: bool) {
        self.dying.store(on, Ordering::SeqCst);
    }

    /// Lying device: writes and fsyncs report success, data is dropped.
    pub fn set_lying(&self, on: bool) {
        self.lying.store(on, Ordering::SeqCst);
    }

    /// Poison reads: every read fails with EIO.
    pub fn set_fail_reads(&self, on: bool) {
        self.fail_reads.store(on, Ordering::SeqCst);
    }

    /// Silently drop all future writes to `page`.
    pub fn drop_page(&self, page: PageId) {
        self.drop_pages.lock().insert(page);
    }

    /// Number of faults injected so far (any mechanism).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn inject(&self) {
        self.injected.fetch_add(1, Ordering::SeqCst);
    }

    fn eio(&self, what: &str) -> StorageError {
        self.inject();
        StorageError::Io(format!("injected {what} fault"))
    }

    /// The faults a read can meet, whole page or record range alike: they
    /// share one ordinal in the plan.
    fn read_fault(&self) -> hermit_storage::Result<()> {
        let nth = self.reads.fetch_add(1, Ordering::SeqCst);
        if self.fail_reads.load(Ordering::SeqCst) {
            return Err(self.eio("read"));
        }
        if let Some(FaultKind::Eio) = self.plan.lock().decide(FaultOp::Read, nth) {
            return Err(self.eio("read"));
        }
        Ok(())
    }
}

impl PageStore for FaultyPageStore {
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read_into(&self, id: PageId, page: &mut Page) -> hermit_storage::Result<()> {
        self.read_fault()?;
        self.inner.read_into(id, page)
    }

    fn read_range(&self, id: PageId, offset: usize, buf: &mut [u8]) -> hermit_storage::Result<()> {
        self.read_fault()?;
        self.inner.read_range(id, offset, buf)
    }

    fn write(&self, id: PageId, page: &Page) -> hermit_storage::Result<()> {
        let nth = self.writes.fetch_add(1, Ordering::SeqCst);
        if self.dying.load(Ordering::SeqCst) {
            return Err(self.eio("write"));
        }
        if self.lying.load(Ordering::SeqCst) || self.drop_pages.lock().contains(&id) {
            self.inject();
            return Ok(()); // accepted, silently dropped
        }
        match self.plan.lock().decide(FaultOp::Write, nth) {
            Some(FaultKind::Eio) => Err(self.eio("write")),
            Some(FaultKind::Drop) => {
                self.inject();
                Ok(())
            }
            Some(FaultKind::Torn { keep }) => {
                self.inject();
                // First `keep` bytes of the new image land; the rest keeps
                // whatever the device held before (zeros for a fresh page).
                let keep = keep.min(PAGE_SIZE);
                let mut torn = Page::zeroed();
                if self.inner.read_into(id, &mut torn).is_err() {
                    torn.as_bytes_mut().fill(0);
                }
                torn.as_bytes_mut()[..keep].copy_from_slice(&page.as_bytes()[..keep]);
                self.inner.write(id, &torn)
            }
            None => self.inner.write(id, page),
        }
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn sync(&self) -> hermit_storage::Result<()> {
        let nth = self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.dying.load(Ordering::SeqCst) {
            return Err(self.eio("sync"));
        }
        if self.lying.load(Ordering::SeqCst) {
            self.inject();
            return Ok(());
        }
        match self.plan.lock().decide(FaultOp::Sync, nth) {
            // A torn "sync" has no sensible meaning; treat it as EIO too.
            Some(FaultKind::Eio) | Some(FaultKind::Torn { .. }) => Err(self.eio("sync")),
            Some(FaultKind::Drop) => {
                self.inject();
                Ok(()) // lying fsync
            }
            None => self.inner.sync(),
        }
    }

    fn file_path(&self) -> Option<&Path> {
        self.inner.file_path()
    }

    fn reset_watermark(&self, pages: u64) -> hermit_storage::Result<()> {
        self.inner.reset_watermark(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlannedFault;
    use hermit_storage::paged::SimulatedPageStore;

    fn read(store: &FaultyPageStore, id: PageId) -> hermit_storage::Result<Page> {
        let mut page = Page::zeroed();
        store.read_into(id, &mut page)?;
        Ok(page)
    }

    fn page_of(byte: u8) -> Page {
        let mut p = Page::new(16);
        p.insert(&[byte; 16]).unwrap();
        p
    }

    #[test]
    fn forwards_when_no_faults_armed() {
        let store = FaultyPageStore::new(Arc::new(SimulatedPageStore::new()));
        let id = store.allocate();
        store.write(id, &page_of(7)).unwrap();
        assert_eq!(read(&store, id).unwrap().get(0).unwrap(), &[7u8; 16]);
        store.sync().unwrap();
        assert_eq!(store.injected(), 0);
    }

    #[test]
    fn dying_lying_and_poisoned_toggles() {
        let store = FaultyPageStore::new(Arc::new(SimulatedPageStore::new()));
        let id = store.allocate();
        store.write(id, &page_of(1)).unwrap();

        store.set_dying(true);
        assert!(store.write(id, &page_of(2)).is_err());
        assert!(store.sync().is_err());
        store.set_dying(false);

        store.set_lying(true);
        store.write(id, &page_of(3)).unwrap();
        store.sync().unwrap();
        store.set_lying(false);
        assert_eq!(read(&store, id).unwrap().get(0).unwrap(), &[1u8; 16], "lying write dropped");

        store.set_fail_reads(true);
        assert!(read(&store, id).is_err());
        assert!(record(&store, id).is_err(), "a record read is a read");
        store.set_fail_reads(false);
        assert_eq!(record(&store, id).unwrap(), [1u8; 16]);
        assert!(store.injected() >= 5);
    }

    fn record(store: &FaultyPageStore, id: PageId) -> hermit_storage::Result<[u8; 16]> {
        let mut bytes = [0u8; 16];
        store.read_range(id, Page::slot_offset(16, 0), &mut bytes)?;
        Ok(bytes)
    }

    #[test]
    fn per_page_drops_only_hit_the_victim() {
        let store = FaultyPageStore::new(Arc::new(SimulatedPageStore::new()));
        let a = store.allocate();
        let b = store.allocate();
        store.write(a, &page_of(1)).unwrap();
        store.write(b, &page_of(1)).unwrap();
        store.drop_page(a);
        store.write(a, &page_of(9)).unwrap();
        store.write(b, &page_of(9)).unwrap();
        assert_eq!(read(&store, a).unwrap().get(0).unwrap(), &[1u8; 16]);
        assert_eq!(read(&store, b).unwrap().get(0).unwrap(), &[9u8; 16]);
        // A record read sees what a page read sees: the dropped write never landed.
        assert_eq!(record(&store, a).unwrap(), [1u8; 16]);
        assert_eq!(record(&store, b).unwrap(), [9u8; 16]);
    }

    #[test]
    fn planned_read_faults_count_record_reads() {
        let store = FaultyPageStore::with_plan(
            Arc::new(SimulatedPageStore::new()),
            FaultPlan::explicit(vec![PlannedFault {
                op: FaultOp::Read,
                nth: 1,
                kind: FaultKind::Eio,
            }]),
        );
        let id = store.allocate();
        store.write(id, &page_of(4)).unwrap();
        assert!(read(&store, id).is_ok()); // read 0
        assert!(record(&store, id).is_err(), "read 1 is planned to fail");
        assert_eq!(record(&store, id).unwrap(), [4u8; 16]);
        assert_eq!(store.injected(), 1);
    }

    #[test]
    fn planned_torn_write_keeps_a_prefix() {
        const KEEP: usize = 64;
        let store = FaultyPageStore::with_plan(
            Arc::new(SimulatedPageStore::new()),
            FaultPlan::explicit(vec![PlannedFault {
                op: FaultOp::Write,
                nth: 1,
                kind: FaultKind::Torn { keep: KEEP },
            }]),
        );
        let id = store.allocate();
        let old = page_of(1);
        let new = page_of(2);
        store.write(id, &old).unwrap(); // write 0: clean
        store.write(id, &new).unwrap(); // write 1: torn after KEEP bytes
                                        // Exactly the first KEEP bytes of the new image land; the rest is
                                        // the previous device content, byte for byte.
        let mut expected = *old.as_bytes();
        expected[..KEEP].copy_from_slice(&new.as_bytes()[..KEEP]);
        assert_eq!(read(&store, id).unwrap().as_bytes(), &expected);
        assert_eq!(store.injected(), 1);
    }
}
