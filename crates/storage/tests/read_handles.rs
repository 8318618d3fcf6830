//! `FilePageStore`'s read handles leave no file descriptor behind: the
//! process holds as many descriptors after the store is dropped as before
//! it was created, however many batches ran, concurrently or failing
//! midway. One test in its own binary, so no other test opens or closes
//! descriptors while it counts them.

use hermit_storage::paged::{FilePageStore, Page, PageRange, PageStore};
use hermit_storage::{install_fault_hook, FaultAction};
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
        for i in 0..4u64 {
            let id = store.allocate();
            let mut page = Page::new(8);
            page.insert(&i.to_le_bytes()).unwrap();
            store.write(id, &page).unwrap();
        }
        let ranges: Vec<PageRange> = (0..4)
            .map(|page| PageRange { page, offset: Page::slot_offset(8, 0), len: 8 })
            .collect();
        // Three batches inside the store at once: the hook, consulted with
        // each batch's handle checked out, holds them until all arrived.
        let inside = Arc::new(Barrier::new(READERS));
        std::thread::scope(|s| {
            for _ in 0..READERS {
                let (inside, store, ranges) = (Arc::clone(&inside), &store, &ranges);
                s.spawn(move || {
                    let mut first = true;
                    let _hook = install_fault_hook(move |_| {
                        if std::mem::take(&mut first) {
                            inside.wait();
                        }
                        FaultAction::Continue
                    });
                    store.read_ranges(ranges, &mut [0u8; 32]).unwrap();
                });
            }
        });
        let with_spares = open_fds();
        if let (Some(before), Some(now)) = (before, with_spares) {
            assert_eq!(now, before + 1 + READERS, "the store's file and one spare per batch");
        }
        // A batch failing at its second read returns its handle: nothing
        // opened, nothing leaked.
        let mut reads = 0;
        let hook = install_fault_hook(move |_| {
            reads += 1;
            if reads == 2 {
                FaultAction::Error
            } else {
                FaultAction::Continue
            }
        });
        assert!(store.read_ranges(&ranges, &mut [0u8; 32]).is_err());
        drop(hook);
        store.read_ranges(&ranges, &mut [0u8; 32]).unwrap();
        assert_eq!(open_fds(), with_spares);
    }
    assert_eq!(open_fds(), before, "dropping the store closes every handle");
    std::fs::remove_dir_all(&dir).ok();
}
