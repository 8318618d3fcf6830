//! Fault/crash-point hooks for deterministic fault injection, one per
//! instance.
//!
//! Every durability-relevant I/O site in this crate — page reads, writes,
//! fsync and trim, WAL append/commit/reset, and the atomic-rename writes
//! behind the catalog and TRS snapshots — passes a [`fault_point`]
//! ([`page_fault_point`] names its page) with its [`Site`] before the I/O.
//! It consults the hook of the instance doing the I/O — a buffer pool's, a
//! WAL writer's (its [`WalTail`](crate::wal::WalTail) holds it, so commit
//! and barrier fsyncs see it), or the one handed to
//! [`write_file_atomic`](crate::recovery::write_file_atomic) — on whichever
//! thread does it, the maintenance worker's and server connections'
//! included. A durable database hands all three its `DurabilityConfig`'s
//! hook; each test owns its instances, so tests on sibling threads never
//! see each other's sites. The slot is one `Option`, `None` in production.
//! A hook (the `hermit_fault` crate builds them) enumerates sites (the
//! crash explorer snapshots the directory at site *i*: `kill -9` there),
//! injects failures, or shapes timing ([`FaultAction`]).
//!
//! The durability syscalls are methods of [`Io`], a token only a fault
//! point hands out: `crates/storage/clippy.toml` disallows the raw
//! `sync_all`, `sync_data`, `set_len`, `write_all_at`, `write_all` and
//! `std::fs::rename` in this crate, so a durability syscall that no fault
//! point guards does not compile. The one rename is
//! [`write_file_atomic`](crate::recovery::write_file_atomic)'s, on a temp
//! file it has already synced. A fault point reached from inside a hook,
//! on the hook's thread, continues without consulting it.

use crate::paged::PageId;
use std::cell::Cell;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    /// Recovery trims the page file back to the catalog's watermark, when
    /// it is longer. Only the reopen path passes here.
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

/// What an instrumented I/O site should do, as its instance's hook decides
/// ([`Continue`](FaultAction::Continue) when it has none).
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Perform the real I/O.
    Continue,
    /// Fail with an injected I/O error (EIO-style).
    Error,
    /// Report success without the I/O — a *lying* device: a dropped write,
    /// a lying fsync. Where lying is meaningless (reads, renames, the steps
    /// of a log reset or reopen, the trim) this continues.
    Skip,
    /// Land only the first `keep` bytes of a page write; the rest of the
    /// page keeps what it held. Anywhere but `page.write` this fails like
    /// `Error`.
    Torn {
        /// Bytes of the new page image that land.
        keep: usize,
    },
    /// Busy-wait this long (sleeping is too coarse at microsecond scale),
    /// then perform the I/O: a slow device, Fig. 24's SSD.
    Delay(Duration),
    /// Park until the gate [opens](Gate::open) — a race held open — then
    /// perform the I/O.
    Gate(Arc<Gate>),
}

/// One pass of a fault point, as its hook sees it.
#[derive(Debug, Clone, Copy)]
pub struct FaultCall {
    /// The site passed.
    pub site: Site,
    /// The page read or written at a page site.
    pub page: Option<PageId>,
    /// Where the fault point is.
    pub at: &'static Location<'static>,
}

/// A fault hook, handed to the instances whose I/O it should see. Clones
/// share one hook: whether it is attached, and its decision.
#[derive(Clone)]
pub struct FaultHook(Arc<(AtomicBool, Box<Decide>)>);
type Decide = dyn Fn(&FaultCall) -> FaultAction + Send + Sync;

impl FaultHook {
    /// A hook deciding every fault point of the instances it is given to,
    /// on whichever thread does their I/O.
    pub fn new(decide: impl Fn(&FaultCall) -> FaultAction + Send + Sync + 'static) -> Self {
        FaultHook(Arc::new((AtomicBool::new(true), Box::new(decide))))
    }

    /// Stop consulting the hook: every fault point of every instance holding
    /// it continues, as with no hook at all.
    pub fn detach(&self) {
        self.0 .0.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHook").finish_non_exhaustive()
    }
}

/// What a fault point answers: `Err` (`injected fault at <site>`) for
/// [`FaultAction::Error`], `Ok(None)` for a [`Skip`](FaultAction::Skip)
/// where it lies — the caller reports success without the I/O — and
/// otherwise, after any delay or gate, the [`Io`] token the durability
/// syscalls need: with no hook, or reentrantly from inside one, at once.
pub type Pass = io::Result<Option<Io>>;

/// Pass the fault point `site` of the instance whose hook is `hook`; the
/// hook sees the call's source location too.
#[track_caller]
#[inline]
pub fn fault_point(hook: Option<&FaultHook>, site: Site) -> Pass {
    pass(hook, site, None)
}

/// [`fault_point`] at a page site: the hook sees the page.
#[track_caller]
#[inline]
pub fn page_fault_point(hook: Option<&FaultHook>, site: Site, page: PageId) -> Pass {
    pass(hook, site, Some(page))
}

#[track_caller]
#[inline]
fn pass(hook: Option<&FaultHook>, site: Site, page: Option<PageId>) -> Pass {
    // Set while this thread is inside a hook (a hook that panics ends its
    // thread, and the flag with it: nothing here catches unwinds).
    thread_local!(static INSIDE: Cell<bool> = const { Cell::new(false) });
    let mut io = Io { keep: None };
    let Some(FaultHook(hook)) = hook else { return Ok(Some(io)) };
    if !hook.0.load(Ordering::Acquire) || INSIDE.replace(true) {
        return Ok(Some(io));
    }
    let action = (hook.1)(&FaultCall { site, page, at: Location::caller() });
    INSIDE.set(false);
    match action {
        FaultAction::Torn { keep } if site == Site::PageWrite => io.keep = Some(keep),
        FaultAction::Error | FaultAction::Torn { .. } => {
            return Err(io::Error::other(format!("injected fault at {site}")))
        }
        FaultAction::Skip if site.lies() => return Ok(None),
        FaultAction::Continue | FaultAction::Skip => {}
        FaultAction::Delay(wait) => {
            let start = Instant::now();
            while start.elapsed() < wait {
                std::hint::spin_loop();
            }
        }
        FaultAction::Gate(gate) => gate.park(),
    }
    Ok(Some(io))
}

/// Where [`FaultAction::Gate`] parks threads until it [opens](Self::open).
/// A wait at a gate gives up after 10 s, so a test that never opens its
/// gate, or whose threads never come, fails instead of hanging.
#[derive(Debug, Default)]
pub struct Gate {
    /// Threads parked, and whether the gate is open.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    const LIMIT: Duration = Duration::from_secs(10);

    /// Let every parked thread, and every later one, through.
    pub fn open(&self) {
        self.lock().1 = true;
        self.changed.notify_all();
    }

    /// Whether `n` threads are parked here (waiting for them).
    pub fn wait_parked(&self, n: usize) -> bool {
        let waited = self.changed.wait_timeout_while(self.lock(), Self::LIMIT, |s| s.0 < n);
        !waited.unwrap_or_else(PoisonError::into_inner).1.timed_out()
    }

    fn park(&self) {
        self.lock().0 += 1;
        self.changed.notify_all();
        let waited = self.changed.wait_timeout_while(self.lock(), Self::LIMIT, |s| !s.1);
        waited.unwrap_or_else(PoisonError::into_inner).0 .0 -= 1;
    }

    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Leave to perform durability I/O, handed out by a fault point and by
/// nothing else. Its methods are this crate's only calls of the raw
/// durability syscalls.
#[derive(Debug)]
pub struct Io {
    /// The prefix of a torn page write that lands.
    keep: Option<usize>,
}

#[expect(clippy::disallowed_methods, reason = "the one place the raw durability calls are made")]
impl Io {
    /// What of a page image written with this token lands: all of `bytes`,
    /// or a [`Torn`](FaultAction::Torn) write's prefix.
    pub(crate) fn landed<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[..self.keep.map_or(bytes.len(), |keep| keep.min(bytes.len()))]
    }

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

    /// `file.write_all_at(bytes, offset)`, of a torn write's prefix only.
    pub fn write_all_at(&self, file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
        file.write_all_at(self.landed(bytes), offset)
    }

    /// `out.write_all(bytes)`.
    pub fn write_all(&self, out: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
        out.write_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A hook recording the sites it sees, continuing at each.
    fn recorder() -> (FaultHook, Arc<Mutex<Vec<Site>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let hook = FaultHook::new(move |call| {
            record.lock().unwrap().push(call.site);
            FaultAction::Continue
        });
        (hook, seen)
    }

    #[test]
    fn no_hook_continues() {
        assert!(matches!(fault_point(None, Site::PageWrite), Ok(Some(_))));
    }

    #[test]
    fn hook_sees_sites_and_detaching_uninstalls() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let hook = FaultHook::new(move |call| {
            record.lock().unwrap().push(call.site);
            if call.site == Site::WalCommit {
                FaultAction::Error
            } else {
                FaultAction::Continue
            }
        });
        assert!(matches!(fault_point(Some(&hook), Site::WalAppend), Ok(Some(_))));
        let err = fault_point(Some(&hook), Site::WalCommit).unwrap_err();
        assert_eq!(err.to_string(), "injected fault at wal.commit");
        // Detached: the hook is gone.
        hook.detach();
        assert!(matches!(fault_point(Some(&hook), Site::WalCommit), Ok(Some(_))));
        assert_eq!(*seen.lock().unwrap(), vec![Site::WalAppend, Site::WalCommit]);
    }

    #[test]
    fn reentrant_fault_point_continues() {
        let slot: Arc<OnceLock<FaultHook>> = Arc::default();
        let inner = Arc::clone(&slot);
        let hook = FaultHook::new(move |_| {
            // A hook that itself hits an instrumented path of its instance
            // must not recurse, deadlock or panic; the inner call sees
            // Continue.
            assert!(matches!(fault_point(inner.get(), Site::PageSync), Ok(Some(_))));
            FaultAction::Skip
        });
        slot.set(hook.clone()).unwrap();
        assert!(matches!(fault_point(Some(&hook), Site::WalCommit), Ok(None)));
    }

    /// A skip drops the I/O only where a lie means something; at a read or
    /// a rename the token still comes back.
    #[test]
    fn skip_lies_only_where_lying_means_something() {
        let hook = FaultHook::new(|_| FaultAction::Skip);
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
            assert_eq!(matches!(fault_point(Some(&hook), site), Ok(None)), !honest, "{site}");
        }
    }

    /// The hook sees where each fault point is: two calls from two lines
    /// are two locations, the same line twice is one. A page site also
    /// names its page.
    #[test]
    fn the_hook_sees_the_calling_line() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let hook = FaultHook::new(move |call| {
            record.lock().unwrap().push((call.at.line(), call.page));
            FaultAction::Continue
        });
        for _ in 0..2 {
            page_fault_point(Some(&hook), Site::PageRead, 7).unwrap();
        }
        fault_point(Some(&hook), Site::PageSync).unwrap();
        let lines = seen.lock().unwrap();
        assert_eq!(lines[0], lines[1]);
        assert_ne!(lines[1].0, lines[2].0);
        assert_eq!((lines[0].1, lines[2].1), (Some(7), None));
    }

    /// Every site has a name of its own.
    #[test]
    fn site_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Site::ALL.len());
    }

    /// Only a page write tears; a tear anywhere else fails.
    #[test]
    fn only_a_page_write_tears() {
        let hook = FaultHook::new(|_| FaultAction::Torn { keep: 3 });
        let io = fault_point(Some(&hook), Site::PageWrite).unwrap().unwrap();
        assert_eq!(io.landed(b"abcdef"), b"abc");
        assert!(fault_point(Some(&hook), Site::WalAppend).is_err());
    }

    /// A gated fault point parks until the gate opens.
    #[test]
    fn a_gate_parks_until_opened() {
        let gate = Arc::new(Gate::default());
        let hook = FaultHook::new({
            let gate = Arc::clone(&gate);
            move |_| FaultAction::Gate(Arc::clone(&gate))
        });
        std::thread::scope(|s| {
            let parked =
                s.spawn(|| fault_point(Some(&hook), Site::WalCommit).map(|io| io.is_some()));
            assert!(gate.wait_parked(1), "the fault point parked");
            gate.open();
            assert!(parked.join().unwrap().unwrap());
        });
    }

    /// The crash explorer's workload creates a database and never reopens
    /// one, so the two sites only a reopen passes are reached here: a log
    /// reopened for appending, and a page file trimmed to a watermark.
    #[test]
    fn a_reopen_reaches_the_sites_the_explorer_cannot() {
        use crate::paged::{BufferPool, FilePageStore};
        let dir = std::env::temp_dir().join(format!("hermit-fault-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("wal.log");
        let pool =
            BufferPool::new(Arc::new(FilePageStore::create(&dir.join("pages.db")).unwrap()), 2);
        for _ in 0..2 {
            pool.allocate(8).unwrap();
        }
        pool.flush().unwrap();
        let (hook, seen) = recorder();
        let pool = pool.with_fault_hook(Some(hook.clone()));
        let writer = crate::wal::WalWriter::create(&wal, 1).unwrap();
        drop(writer);
        let len = std::fs::metadata(&wal).unwrap().len();
        crate::wal::WalWriter::open_append(&wal, 1, len, Some(hook.clone())).unwrap();
        pool.reset_watermark(1).unwrap();
        // Nothing left to trim: no second site.
        pool.reset_watermark(1).unwrap();
        hook.detach();
        drop(pool);
        assert_eq!(*seen.lock().unwrap(), [Site::WalReopen, Site::PageTrim]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
