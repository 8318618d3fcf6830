//! `FilePageStore`'s read handles leave no file descriptor behind: the
//! process holds as many descriptors after the store is dropped as before
//! it was created, however many batches ran, concurrently or failing
//! midway. One test in its own binary, so no other test opens or closes
//! descriptors while it counts them.

use hermit_storage::paged::{FilePageStore, Page, PageRange, PageStore};
use hermit_storage::{fault_point, page_fault_point, FaultAction, FaultHook, Site};
use std::sync::{Arc, Barrier};

/// Open descriptors of this process, where the platform lists them.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|dir| dir.count())
}

#[test]
fn read_handles_leave_no_descriptor_behind() {
    const READERS: usize = 3;
    let dir = std::env::temp_dir().join(format!("hermit-read-handles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let before = open_fds();
    {
        let store = FilePageStore::create(&dir.join("pages.db")).unwrap();
        let io = fault_point(None, Site::PageWrite).unwrap().unwrap();
        for i in 0..4u64 {
            let id = store.allocate();
            let mut page = Page::new(8);
            page.insert(&i.to_le_bytes()).unwrap();
            store.write(id, &page, &io).unwrap();
        }
        let ranges: Vec<PageRange> = (0..4)
            .map(|page| PageRange { page, offset: Page::slot_offset(8, 0), len: 8 })
            .collect();
        // Three batches inside the store at once: the call before a range,
        // made with each batch's handle checked out, holds them until all
        // arrived.
        let inside = Arc::new(Barrier::new(READERS));
        std::thread::scope(|s| {
            for _ in 0..READERS {
                let (inside, store, ranges) = (Arc::clone(&inside), &store, &ranges);
                s.spawn(move || {
                    let mut first = true;
                    let mut before = move |_: &PageRange| {
                        if std::mem::take(&mut first) {
                            inside.wait();
                        }
                        Ok(())
                    };
                    store.read_ranges(ranges, &mut [0u8; 32], &mut before).unwrap();
                });
            }
        });
        let with_spares = open_fds();
        if let (Some(before), Some(now)) = (before, with_spares) {
            assert_eq!(now, before + 1 + READERS, "the store's file and one spare per batch");
        }
        // A batch failing at its second read — a buffer pool's fault point
        // failing it — returns its handle: nothing opened, nothing leaked.
        let hook = FaultHook::new(|call| match call.page {
            Some(1) => FaultAction::Error,
            _ => FaultAction::Continue,
        });
        let mut before = |range: &PageRange| {
            page_fault_point(Some(&hook), Site::PageReadRange, range.page)?;
            Ok(())
        };
        assert!(store.read_ranges(&ranges, &mut [0u8; 32], &mut before).is_err());
        store.read_ranges(&ranges, &mut [0u8; 32], &mut |_| Ok(())).unwrap();
        assert_eq!(open_fds(), with_spares);
    }
    assert_eq!(open_fds(), before, "dropping the store closes every handle");
    std::fs::remove_dir_all(&dir).ok();
}
