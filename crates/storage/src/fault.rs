//! Thread-local fault/crash-point hook for deterministic fault injection.
//!
//! Every durability-relevant I/O site in this crate — page reads/writes,
//! page-store fsync, WAL append/commit/reset, and the atomic-rename file
//! writes behind the catalog and TRS snapshots — calls [`fault_point`] with
//! its [`Site`] before performing the real I/O. With no hook installed the
//! call is a thread-local lookup and nothing else; test harnesses (the
//! `hermit_fault` crate) install a hook to
//!
//! * **enumerate** the sites a workload passes through (the crash-schedule
//!   explorer snapshots the directory at site *i* to model `kill -9` at
//!   that exact instant), or
//! * **inject** failures: [`FaultAction::Error`] makes the site fail with
//!   an injected I/O error, [`FaultAction::Skip`] makes it *lie* — report
//!   success without performing the I/O (a dropped write, a lying fsync).
//!
//! The durability syscalls themselves are methods of [`Io`], a token only
//! [`fault_point`] hands out: `crates/storage/clippy.toml` disallows the raw
//! `sync_all`, `sync_data`, `set_len`, `write_all_at`, `write_all` and
//! `std::fs::rename` in this crate, so a durability syscall that no fault
//! point guards does not compile. The one rename is
//! [`write_file_atomic`](crate::recovery::write_file_atomic)'s, on a temp
//! file it has already synced.
//!
//! The hook is **thread-local** on purpose: `cargo test` runs tests of one
//! binary concurrently on sibling threads, and a process-global hook would
//! capture I/O from unrelated tests. A workload driven from the installing
//! thread (the ordinary `Database` API is synchronous) sees every one of
//! its sites; background threads (maintenance worker, server connections)
//! see no hook and behave normally.
//!
//! Reentrancy is safe by construction: if a hook itself triggers
//! instrumented I/O, the inner [`fault_point`] finds the hook cell already
//! borrowed and continues without consulting it.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::panic::Location;

/// Declares [`Site`], [`Site::ALL`] and [`Site::name`] from one list, so no
/// site can be missing from `ALL`. `lies` says whether a
/// [`Skip`](FaultAction::Skip) there drops the I/O; where lying is
/// meaningless (reads, renames, the steps of a log reset) it continues.
macro_rules! sites {
    ($($(#[$doc:meta])* $site:ident = $name:literal, lies: $lies:literal;)*) => {
        /// A durability I/O site: what a [`fault_point`] names.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Site {
            $($(#[$doc])* $site,)*
        }

        impl Site {
            /// Every site, in declaration order — the crash-schedule matrix.
            pub const ALL: &'static [Site] = &[$(Site::$site),*];

            /// The site's stable name (`wal.commit`, `page.write`, …).
            pub fn name(self) -> &'static str {
                match self {
                    $(Site::$site => $name,)*
                }
            }

            /// Whether a `Skip` here drops the I/O rather than continuing.
            fn lies(self) -> bool {
                match self {
                    $(Site::$site => $lies,)*
                }
            }
        }
    };
}

sites! {
    /// The commit point of an atomic replace: the synced temp sibling is
    /// renamed over the target. A crash here leaves a complete but
    /// unpublished temp file.
    AtomicRename = "atomic.rename", lies: false;
    /// Before an atomic replace writes and fsyncs its temp sibling (catalog,
    /// TRS snapshots). A crash here leaves the old file, perhaps beside a
    /// stale temp file.
    AtomicWrite = "atomic.write", lies: false;
    /// A page read into a pool frame.
    PageRead = "page.read", lies: false;
    /// One span of a batch's read-throughs: a cold page's records read
    /// instead of the page, one site per span, so an ordinal names one read.
    PageReadRange = "page.read_range", lies: false;
    /// The page file's fsync (checkpoints).
    PageSync = "page.sync", lies: true;
    /// Recovery trims the page file back to the catalog's watermark. Only
    /// the reopen path passes here.
    PageTrim = "page.trim", lies: false;
    /// A page write-back.
    PageWrite = "page.write", lies: true;
    /// A WAL frame handed to the writer's buffer.
    WalAppend = "wal.append", lies: true;
    /// The WAL-before-data barrier: a page is written back while the log
    /// holds written-but-unsynced records.
    WalBarrier = "wal.barrier", lies: true;
    /// The log's one commit-path fsync, once per leader round of
    /// [`WalTail::wait_durable`](crate::wal::WalTail::wait_durable).
    WalCommit = "wal.commit", lies: true;
    /// Between a log reset's truncation and its header write: a crash here
    /// leaves an empty log, which recovery must treat as benign.
    WalHeader = "wal.header", lies: false;
    /// Before recovery truncates a torn log tail and reopens the log for
    /// appending. Only the reopen path passes here.
    WalReopen = "wal.reopen", lies: false;
    /// Before the log file is extended ahead of its logical end (the first
    /// write of every generation, then once per reserved MiB).
    WalReserve = "wal.reserve", lies: true;
    /// Before a log reset truncates the file: a crash here leaves the
    /// stale-epoch log the epoch fence exists for.
    WalReset = "wal.reset", lies: false;
    /// Before a transaction's abort record is appended.
    WalTxnAbort = "wal.txn_abort", lies: true;
    /// Before a transaction's commit record is appended: a crash here must
    /// recover the transaction as a loser.
    WalTxnCommit = "wal.txn_commit", lies: true;
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an instrumented I/O site should do, as decided by the installed
/// hook (or [`Continue`](FaultAction::Continue) when none is installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the real I/O.
    Continue,
    /// Fail with an injected I/O error (EIO-style).
    Error,
    /// Report success without performing the I/O — a *lying* device: the
    /// dropped write / lying fsync failure mode. Sites where lying is
    /// meaningless (reads, renames, the steps of a log reset or reopen, the
    /// page file's trim) treat this as `Continue`.
    Skip,
}

/// Hook signature: called with the site and the source location of its
/// [`fault_point`] on every instrumented I/O.
pub type FaultHook = Box<dyn FnMut(Site, &'static Location<'static>) -> FaultAction>;

thread_local! {
    static HOOK: RefCell<Option<FaultHook>> = const { RefCell::new(None) };
}

/// Install `hook` for the current thread, replacing any previous one. The
/// returned guard uninstalls it on drop, so a panicking test cannot leak a
/// hook into the next test sharing the thread.
pub fn install_fault_hook(
    hook: impl FnMut(Site, &'static Location<'static>) -> FaultAction + 'static,
) -> FaultHookGuard {
    HOOK.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
    FaultHookGuard { _priv: () }
}

/// Uninstalls the thread's fault hook when dropped.
pub struct FaultHookGuard {
    _priv: (),
}

impl Drop for FaultHookGuard {
    fn drop(&mut self) {
        HOOK.with(|h| *h.borrow_mut() = None);
    }
}

/// Pass the fault point `site`: consult the current thread's hook, which
/// sees the call's source location too. Returns
///
/// * `Err` with the message `injected fault at <site>` for
///   [`FaultAction::Error`];
/// * `Ok(None)` for [`FaultAction::Skip`] at a site that lies — the caller
///   reports success without the I/O;
/// * `Ok(Some(io))` otherwise: the [`Io`] token the durability syscalls
///   need. With no hook installed (the production fast path), or when
///   called reentrantly from inside a hook, this is the answer.
#[track_caller]
#[inline]
pub fn fault_point(site: Site) -> io::Result<Option<Io>> {
    let caller = Location::caller();
    let action = HOOK.with(|h| match h.try_borrow_mut() {
        Ok(mut slot) => match slot.as_mut() {
            Some(hook) => hook(site, caller),
            None => FaultAction::Continue,
        },
        Err(_) => FaultAction::Continue,
    });
    match action {
        FaultAction::Error => Err(io::Error::other(format!("injected fault at {site}"))),
        FaultAction::Skip if site.lies() => Ok(None),
        FaultAction::Continue | FaultAction::Skip => Ok(Some(Io(()))),
    }
}

/// Leave to perform durability I/O, handed out by [`fault_point`] and by
/// nothing else. Its methods are this crate's only calls of the raw
/// durability syscalls.
#[derive(Debug)]
pub struct Io(());

#[expect(clippy::disallowed_methods, reason = "the one place the raw durability calls are made")]
impl Io {
    /// `file.sync_all()`.
    pub fn sync_all(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    /// `file.sync_data()`.
    pub fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    /// `file.set_len(len)`.
    pub fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }

    /// `file.write_all_at(bytes, offset)`.
    pub fn write_all_at(&self, file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
        file.write_all_at(bytes, offset)
    }

    /// `out.write_all(bytes)`.
    pub fn write_all(&self, out: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
        out.write_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hook_continues() {
        assert!(matches!(fault_point(Site::PageWrite), Ok(Some(_))));
    }

    #[test]
    fn hook_sees_sites_and_guard_uninstalls() {
        let seen = std::rc::Rc::new(RefCell::new(Vec::new()));
        {
            let seen = std::rc::Rc::clone(&seen);
            let _guard = install_fault_hook(move |site, _| {
                seen.borrow_mut().push(site);
                if site == Site::WalCommit {
                    FaultAction::Error
                } else {
                    FaultAction::Continue
                }
            });
            assert!(matches!(fault_point(Site::WalAppend), Ok(Some(_))));
            let err = fault_point(Site::WalCommit).unwrap_err();
            assert_eq!(err.to_string(), "injected fault at wal.commit");
        }
        // Guard dropped: the hook is gone.
        assert!(matches!(fault_point(Site::PageSync), Ok(Some(_))));
        assert_eq!(*seen.borrow(), vec![Site::WalAppend, Site::WalCommit]);
    }

    #[test]
    fn reentrant_fault_point_continues() {
        let _guard = install_fault_hook(|_, _| {
            // A hook that itself hits an instrumented path must not
            // deadlock or panic; the inner call sees Continue.
            assert!(matches!(fault_point(Site::PageRead), Ok(Some(_))));
            FaultAction::Skip
        });
        assert!(matches!(fault_point(Site::WalCommit), Ok(None)));
    }

    /// A skip drops the I/O only where a lie means something; at a read or
    /// a rename the token still comes back.
    #[test]
    fn skip_lies_only_where_lying_means_something() {
        let _guard = install_fault_hook(|_, _| FaultAction::Skip);
        for &site in Site::ALL {
            let honest = matches!(
                site,
                Site::AtomicRename
                    | Site::AtomicWrite
                    | Site::PageRead
                    | Site::PageReadRange
                    | Site::PageTrim
                    | Site::WalHeader
                    | Site::WalReopen
                    | Site::WalReset
            );
            assert_eq!(matches!(fault_point(site), Ok(None)), !honest, "{site}");
        }
    }

    /// The hook sees where each fault point is: two calls from two lines
    /// are two locations, the same line twice is one.
    #[test]
    fn the_hook_sees_the_calling_line() {
        let seen = std::rc::Rc::new(RefCell::new(Vec::new()));
        let record = std::rc::Rc::clone(&seen);
        let _guard = install_fault_hook(move |_, at| {
            record.borrow_mut().push(at.line());
            FaultAction::Continue
        });
        for _ in 0..2 {
            fault_point(Site::PageRead).unwrap();
        }
        fault_point(Site::PageRead).unwrap();
        let lines = seen.borrow();
        assert_eq!(lines[0], lines[1]);
        assert_ne!(lines[1], lines[2]);
    }

    /// Every site has a name of its own.
    #[test]
    fn site_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Site::ALL.len());
    }

    /// The crash explorer's workload creates a database and never reopens
    /// one, so the two sites only a reopen passes are reached here: a log
    /// reopened for appending, and a page file trimmed to a watermark.
    #[test]
    fn a_reopen_reaches_the_sites_the_explorer_cannot() {
        use crate::paged::{FilePageStore, Page, PageStore};
        let dir = std::env::temp_dir().join(format!("hermit-fault-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("wal.log");
        let pages = FilePageStore::create(&dir.join("pages.db")).unwrap();
        for _ in 0..2 {
            pages.write(pages.allocate(), &Page::new(8)).unwrap();
        }
        let writer = crate::wal::WalWriter::create(&wal, 1).unwrap();
        drop(writer);
        let seen = std::rc::Rc::new(RefCell::new(Vec::new()));
        let record = std::rc::Rc::clone(&seen);
        let guard = install_fault_hook(move |site, _| {
            record.borrow_mut().push(site);
            FaultAction::Continue
        });
        let len = std::fs::metadata(&wal).unwrap().len();
        crate::wal::WalWriter::open_append(&wal, 1, len).unwrap();
        pages.reset_watermark(1).unwrap();
        drop(guard);
        assert_eq!(*seen.borrow(), [Site::WalReopen, Site::PageTrim]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
