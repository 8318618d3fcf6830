//! [`StoreFaults`]: the faults a page store shows through the fault hook of
//! the buffer pool (or durable database) in front of it, which models
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
//! All toggles compose. Only page sites are decided; the log's and the
//! atomic file writes' continue.

use crate::plan::{FaultKind, FaultOp, FaultPlan};
use hermit_storage::paged::PageId;
use hermit_storage::{FaultAction, FaultCall, FaultHook, Site};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A page store's failure modes, as a fault hook ([`hook`](Self::hook)).
#[derive(Default)]
pub struct StoreFaults {
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

impl StoreFaults {
    /// No faults armed.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// A [`FaultPlan`] deciding per-operation faults: the `nth` read (a page
    /// load or a record read through, which share one ordinal), write or
    /// fsync of the store.
    pub fn with_plan(plan: FaultPlan) -> Arc<Self> {
        Arc::new(StoreFaults { plan: Mutex::new(plan), ..Default::default() })
    }

    /// The hook to give the pool or database in front of the store.
    pub fn hook(self: &Arc<Self>) -> FaultHook {
        let faults = Arc::clone(self);
        FaultHook::new(move |call| faults.decide(call))
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

    /// The plan's fault for the next operation of class `op`.
    fn planned(&self, op: FaultOp, ordinal: &AtomicU64) -> Option<FaultKind> {
        let nth = ordinal.fetch_add(1, Ordering::SeqCst);
        self.plan.lock().decide(op, nth)
    }

    fn decide(&self, call: &FaultCall) -> FaultAction {
        let (dying, lying) = (self.dying.load(Ordering::SeqCst), self.lying.load(Ordering::SeqCst));
        let action = match call.site {
            Site::PageRead | Site::PageReadRange => {
                match self.planned(FaultOp::Read, &self.reads) {
                    _ if self.fail_reads.load(Ordering::SeqCst) => FaultAction::Error,
                    Some(FaultKind::Eio) => FaultAction::Error,
                    _ => FaultAction::Continue,
                }
            }
            Site::PageWrite => {
                let planned = self.planned(FaultOp::Write, &self.writes);
                let dropped = call.page.is_some_and(|page| self.drop_pages.lock().contains(&page));
                match planned {
                    _ if dying => FaultAction::Error,
                    _ if lying || dropped => FaultAction::Skip,
                    Some(FaultKind::Eio) => FaultAction::Error,
                    Some(FaultKind::Drop) => FaultAction::Skip,
                    Some(FaultKind::Torn { keep }) => FaultAction::Torn { keep },
                    None => FaultAction::Continue,
                }
            }
            Site::PageSync => match self.planned(FaultOp::Sync, &self.syncs) {
                _ if dying => FaultAction::Error,
                _ if lying => FaultAction::Skip,
                // A torn "sync" has no sensible meaning; treat it as EIO too.
                Some(FaultKind::Eio | FaultKind::Torn { .. }) => FaultAction::Error,
                Some(FaultKind::Drop) => FaultAction::Skip,
                None => FaultAction::Continue,
            },
            _ => FaultAction::Continue,
        };
        if !matches!(action, FaultAction::Continue) {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlannedFault;
    use hermit_storage::paged::buffer_pool::{PoolBatch, Seen};
    use hermit_storage::paged::{BufferPool, Page, PageStore, SimulatedPageStore};

    /// A one-frame pool over an in-memory store, behind `faults`.
    fn pool(faults: &Arc<StoreFaults>) -> (BufferPool, Arc<SimulatedPageStore>) {
        let store = Arc::new(SimulatedPageStore::new());
        let pool = BufferPool::new(Arc::clone(&store) as _, 1).with_fault_hook(Some(faults.hook()));
        (pool, store)
    }

    /// Slot 0 of `id` set to `[byte; 16]` in the pool, and written back.
    fn write(pool: &BufferPool, id: PageId, byte: u8) -> hermit_storage::Result<()> {
        pool.write(id, |page| match page.count() {
            0 => page.insert(&[byte; 16]).map(drop),
            _ => page.update(0, &[byte; 16]),
        })??;
        pool.flush()
    }

    /// Slot 0 of `id`, loaded into the pool's frame.
    fn read(pool: &BufferPool, id: PageId) -> hermit_storage::Result<[u8; 16]> {
        pool.clear()?;
        pool.read(id, |page| page.get(0).map(|r| r.try_into().unwrap()))?
    }

    /// Slot 0 of `id` as a record read, or `None` if it was unreadable: a
    /// fresh page takes the pool's one frame, so a one-page batch reads the
    /// slot's span through.
    fn record(pool: &BufferPool, id: PageId) -> Option<[u8; 16]> {
        pool.clear().unwrap();
        pool.allocate(16).unwrap();
        let through = pool.stats().read_through();
        let mut bytes = None;
        let locate = |_| Some((Page::slot_offset(16, 0), 16));
        pool.read_batch(&[id], &mut PoolBatch::default(), locate, |_, seen| match seen {
            Seen::Bytes(span) => bytes = Some(span.try_into().unwrap()),
            Seen::Unreadable => {}
            Seen::Page(_) => panic!("page {id} was loaded, not read through"),
        });
        assert_eq!(pool.stats().read_through(), through + u64::from(bytes.is_some()));
        bytes
    }

    #[test]
    fn forwards_when_no_faults_armed() {
        let faults = StoreFaults::new();
        let (pool, _) = pool(&faults);
        let id = pool.allocate(16).unwrap();
        write(&pool, id, 7).unwrap();
        assert_eq!(read(&pool, id).unwrap(), [7u8; 16]);
        pool.flush().unwrap();
        assert_eq!(faults.injected(), 0);
    }

    #[test]
    fn dying_lying_and_poisoned_toggles() {
        let faults = StoreFaults::new();
        let (pool, store) = pool(&faults);
        let id = pool.allocate(16).unwrap();
        write(&pool, id, 1).unwrap();

        faults.set_dying(true);
        assert!(pool.flush().is_err(), "no frame is dirty: the fsync fails");
        assert!(write(&pool, id, 2).is_err());
        faults.set_dying(false);

        faults.set_lying(true);
        let writes = store.stats().writes();
        write(&pool, id, 3).unwrap();
        pool.flush().unwrap();
        faults.set_lying(false);
        assert_eq!(store.stats().writes(), writes + 1, "the dropped write is counted");
        assert_eq!(read(&pool, id).unwrap(), [1u8; 16], "lying write dropped");

        faults.set_fail_reads(true);
        assert!(read(&pool, id).is_err());
        assert!(record(&pool, id).is_none(), "a record read is a read");
        faults.set_fail_reads(false);
        assert_eq!(record(&pool, id), Some([1u8; 16]));
        assert!(faults.injected() >= 5);
    }

    #[test]
    fn per_page_drops_only_hit_the_victim() {
        let faults = StoreFaults::new();
        let (pool, _) = pool(&faults);
        let a = pool.allocate(16).unwrap();
        let b = pool.allocate(16).unwrap();
        write(&pool, a, 1).unwrap();
        write(&pool, b, 1).unwrap();
        faults.drop_page(a);
        write(&pool, a, 9).unwrap();
        write(&pool, b, 9).unwrap();
        assert_eq!(read(&pool, a).unwrap(), [1u8; 16]);
        assert_eq!(read(&pool, b).unwrap(), [9u8; 16]);
        // A record read sees what a page read sees: the dropped write never landed.
        assert_eq!(record(&pool, a), Some([1u8; 16]));
        assert_eq!(record(&pool, b), Some([9u8; 16]));
    }

    #[test]
    fn planned_read_faults_count_record_reads() {
        let faults = StoreFaults::with_plan(FaultPlan::explicit(vec![PlannedFault {
            op: FaultOp::Read,
            nth: 1,
            kind: FaultKind::Eio,
        }]));
        let (pool, _) = pool(&faults);
        let id = pool.allocate(16).unwrap();
        write(&pool, id, 4).unwrap();
        assert!(read(&pool, id).is_ok()); // read 0
        assert!(record(&pool, id).is_none(), "read 1 is planned to fail");
        assert_eq!(record(&pool, id), Some([4u8; 16]));
        assert_eq!(faults.injected(), 1);
    }

    #[test]
    fn planned_torn_write_keeps_a_prefix() {
        const KEEP: usize = 64;
        let faults = StoreFaults::with_plan(FaultPlan::explicit(vec![PlannedFault {
            op: FaultOp::Write,
            nth: 1,
            kind: FaultKind::Torn { keep: KEEP },
        }]));
        let (pool, store) = pool(&faults);
        let id = pool.allocate(16).unwrap(); // write 0: clean
        let mut old = Page::zeroed();
        store.read_into(id, &mut old).unwrap();
        write(&pool, id, 2).unwrap(); // write 1: torn after KEEP bytes
        let new = pool.read(id, |page| *page.as_bytes()).unwrap();
        // Exactly the first KEEP bytes of the new image land; the rest is
        // the previous device content, byte for byte.
        let mut expected = *old.as_bytes();
        expected[..KEEP].copy_from_slice(&new[..KEEP]);
        let mut landed = Page::zeroed();
        store.read_into(id, &mut landed).unwrap();
        assert_eq!(landed.as_bytes(), &expected);
        assert_ne!(landed.as_bytes(), &new, "the write tore");
        assert_eq!(faults.injected(), 1);
    }
}
