//! Append-only write-ahead log for DML between checkpoints.
//!
//! A checkpoint makes the heap pages, catalog, and index snapshots durable;
//! everything the database does *after* that would be lost at a crash. The
//! WAL closes the gap: every committed insert/delete is appended here as a
//! CRC-framed logical record, and recovery replays the log on top of the
//! last checkpoint.
//!
//! Design points:
//!
//! * **Logical records.** The log carries rows and primary keys, not page
//!   images — replay goes through the ordinary DML path, so it maintains
//!   every index for free and is independent of page layout.
//! * **Epoch fencing.** The file starts with a header naming its *epoch*; a
//!   catalog names the epoch it pairs with. Recovery replays the WAL only
//!   when the epochs match, so a crash *between* "new catalog renamed" and
//!   "WAL reset" cannot double-apply records the checkpoint already
//!   contains (the stale WAL still carries the old epoch and is ignored).
//! * **Torn tails are expected.** A crash mid-append leaves a partial
//!   frame. The reader stops at the first frame that is short or fails its
//!   CRC and reports how many bytes were valid; recovery truncates to that
//!   point and appends from there. Everything before the tear replays
//!   normally — a torn tail is data loss bounded by the last fsync, never
//!   an error.
//! * **The file is reserved ahead of the log.** [`WalWriter::flush`] keeps
//!   the file `set_len`-extended [`RESERVE_BYTES`] past the logical end, so
//!   an ordinary `write` + `fdatasync` changes no file size: the fsync
//!   commits no inode update, and a concurrent `write` needs no journal
//!   handle and so does not stall behind the other committer's journal
//!   commit. The reserve reads as zeros, which gives the reader its second
//!   rule: **an all-zero remainder is a clean end** (`torn_tail = false`,
//!   `valid_len` = the logical end, which [`WalWriter::open_append`]
//!   truncates to), while anything non-zero after the last good frame —
//!   a partial frame followed by zeros included — is still a tear. No
//!   record can be mistaken for reserve: every frame starts with a
//!   non-zero length. [`WalWriter::reset`] truncates to the bare header,
//!   so a freshly checkpointed directory carries no reserve.
//! * **The first statement of a generation marks the file.**
//!   [`WalWriter::mark_generation`] hands a marker frame (kind 8, replayed
//!   as nothing) to the file before that statement applies, so a log with
//!   no frame at all ([`WalReplay::is_untouched`]) proves no statement ran
//!   since the checkpoint — what recovery's torn-checkpoint check needs,
//!   even while an auto-commit record still sits in the writer's buffer.
//! * **Force at commit, WAL before data, one fsync site.** Appends are
//!   buffered in user space. [`WalWriter::flush`] hands the buffer to the
//!   file with one `write` (it then survives `kill -9`, not a power cut).
//!   Durability is a *position to wait on*, not an fsync to hold a lock
//!   across: a commit point flushes under the writer's guard, releases the
//!   guard, and parks in [`WalTail::wait_durable`] on the position it
//!   wrote. The first arrival leads one `sync_data` covering everything
//!   written by then and wakes every waiter at or below it; whoever is not
//!   covered leads the next. That function is the log's only commit-path
//!   fsync — [`WalWriter::commit`] (flush, then wait) and the buffer pool's
//!   barrier [`WalTail::make_durable`] are calls to it. The database
//!   commits every auto-commit statement batch and every transaction
//!   commit; the records *inside* a transaction are only flushed, because
//!   nothing is owed for them until the commit record. What makes that
//!   safe with a stealing buffer pool is the [`WalTail`]: the positions
//!   "handed to the file" and "known durable", shared with the pool, whose
//!   write-back first forces the log up to the written position. A page
//!   therefore never reaches the device ahead of the record recovery needs
//!   to undo it.
//!
//! Format (little-endian):
//!
//! ```text
//! header: magic "HMWL" | version u32 | epoch u64          (16 bytes)
//! frame:  len u32 | crc32 u32 (of payload) | payload[len]
//! payload: kind u8 = 1 (insert):     width u16 | width × (tag u8 | body u64)
//!          kind u8 = 2 (delete):     pk i64
//!          kind u8 = 3 (txn begin):  txn u64
//!          kind u8 = 4 (txn insert): txn u64 | width u16 | width × cell
//!          kind u8 = 5 (txn delete): txn u64 | pk i64 | width u16 | width × cell
//!          kind u8 = 6 (txn commit): txn u64
//!          kind u8 = 7 (txn abort):  txn u64
//!          kind u8 = 8 (generation marker): nothing — replayed as nothing
//! ```
//!
//! A cell is the 9-byte image of [`crate::value::encode_cell`], the codec the
//! paged heap and the wire protocol share.
//!
//! Kinds 3–7 carry multi-statement transactions (the `hermit_txn`
//! subsystem). A txn-delete record carries the **full pre-image row**, not
//! just the key: the buffer pool may steal the physical delete to disk
//! before the commit record lands, and recovery must be able to reinstate
//! the row when it rolls the loser back — the heap alone can no longer
//! produce it. An old reader treats any of these kinds as a torn tail
//! (bad record kind), so the version stays 1 and downgrade is safe up to
//! losing the post-checkpoint txn suffix. Kind 8 heads every generation
//! that saw a statement, so an older reader stops there: downgrade after
//! a checkpoint, or lose the generation's whole log.

use crate::fault::{fault_point, FaultHook, Site};
use crate::recovery::{crc32, sync_dir, RecoveryError};
use crate::value::{self, encode_cell, Value, CELL_BYTES};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

const MAGIC: &[u8; 4] = b"HMWL";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
/// Upper bound on a frame payload; anything larger is treated as a tear
/// (a corrupted length would otherwise ask the reader to swallow gigabytes).
const MAX_PAYLOAD: usize = 1 << 20;
/// How far past the logical end [`WalWriter::flush`] keeps the file
/// extended (see the module docs). A constant, not a knob: it only has to
/// make file-size changes rare next to fsyncs, and 1 MiB is ≈ 30 K
/// three-column records.
pub const RESERVE_BYTES: u64 = 1 << 20;
/// Payload of the generation marker ([`WalWriter::mark_generation`]): a
/// frame kind with no body, replayed as nothing.
const MARKER: [u8; 1] = [8];

/// One logical DML record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A row inserted after the last checkpoint.
    Insert {
        /// Full row values, in schema order.
        row: Vec<Value>,
    },
    /// A row deleted (by primary key) after the last checkpoint.
    Delete {
        /// Primary key of the deleted row.
        pk: i64,
    },
    /// A multi-statement transaction began.
    TxnBegin {
        /// Transaction id (monotonic per log generation).
        txn: u64,
    },
    /// A row inserted inside an open transaction.
    TxnInsert {
        /// Owning transaction id.
        txn: u64,
        /// Full row values, in schema order.
        row: Vec<Value>,
    },
    /// A row deleted inside a transaction, with its full pre-image so loser
    /// rollback can reinstate it even after a buffer-pool steal persisted
    /// the physical delete.
    TxnDelete {
        /// Owning transaction id.
        txn: u64,
        /// Primary key of the deleted row.
        pk: i64,
        /// Pre-image of the deleted row, in schema order.
        row: Vec<Value>,
    },
    /// The transaction committed: every record it logged is now a winner.
    TxnCommit {
        /// Committing transaction id.
        txn: u64,
    },
    /// The transaction aborted: its logged effects must be undone (recovery
    /// treats an open txn with no commit record identically).
    TxnAbort {
        /// Aborting transaction id.
        txn: u64,
    },
}

/// Start an insert payload in `buf`: kind 1, or kind 4 of `txn`, then the
/// row's width. The cells follow.
fn insert_header(txn: Option<u64>, width: usize, buf: &mut Vec<u8>) {
    buf.clear();
    match txn {
        None => buf.push(1),
        Some(txn) => {
            buf.push(4);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(width as u16).to_le_bytes());
}

fn push_cells(row: &[Value], buf: &mut Vec<u8>) {
    for v in row {
        buf.extend_from_slice(&encode_cell(v));
    }
}

/// Decode `width u16 | width × cell` starting at `payload[at]`; the cells
/// must consume the payload exactly.
fn decode_cells(payload: &[u8], at: usize) -> Result<Vec<Value>, RecoveryError> {
    if payload.len() < at + 2 {
        return Err(RecoveryError::Corrupt("short row record"));
    }
    let width = u16::from_le_bytes(payload[at..at + 2].try_into().unwrap()) as usize;
    let cells = &payload[at + 2..];
    if cells.len() != width * CELL_BYTES {
        return Err(RecoveryError::Corrupt("row record length mismatch"));
    }
    value::decode_cells(cells)
        .map(|cell| cell.map_err(|_| RecoveryError::Corrupt("bad cell tag")))
        .collect()
}

fn encode_payload(rec: &WalRecord, buf: &mut Vec<u8>) {
    buf.clear();
    match rec {
        WalRecord::Insert { row } => {
            insert_header(None, row.len(), buf);
            push_cells(row, buf);
        }
        WalRecord::Delete { pk } => {
            buf.push(2);
            buf.extend_from_slice(&pk.to_le_bytes());
        }
        WalRecord::TxnBegin { txn } => {
            buf.push(3);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
        WalRecord::TxnInsert { txn, row } => {
            insert_header(Some(*txn), row.len(), buf);
            push_cells(row, buf);
        }
        WalRecord::TxnDelete { txn, pk, row } => {
            buf.push(5);
            buf.extend_from_slice(&txn.to_le_bytes());
            buf.extend_from_slice(&pk.to_le_bytes());
            buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
            push_cells(row, buf);
        }
        WalRecord::TxnCommit { txn } => {
            buf.push(6);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
        WalRecord::TxnAbort { txn } => {
            buf.push(7);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
    }
}

fn decode_u64(payload: &[u8], at: usize) -> Result<u64, RecoveryError> {
    payload
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok_or(RecoveryError::Corrupt("short txn record"))
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, RecoveryError> {
    match payload.first() {
        Some(1) => Ok(WalRecord::Insert { row: decode_cells(payload, 1)? }),
        Some(2) => {
            if payload.len() != 9 {
                return Err(RecoveryError::Corrupt("delete record length mismatch"));
            }
            Ok(WalRecord::Delete { pk: i64::from_le_bytes(payload[1..9].try_into().unwrap()) })
        }
        Some(3) => {
            if payload.len() != 9 {
                return Err(RecoveryError::Corrupt("txn-begin record length mismatch"));
            }
            Ok(WalRecord::TxnBegin { txn: decode_u64(payload, 1)? })
        }
        Some(4) => Ok(WalRecord::TxnInsert {
            txn: decode_u64(payload, 1)?,
            row: decode_cells(payload, 9)?,
        }),
        Some(5) => Ok(WalRecord::TxnDelete {
            txn: decode_u64(payload, 1)?,
            pk: decode_u64(payload, 9)? as i64,
            row: decode_cells(payload, 17)?,
        }),
        Some(6) => {
            if payload.len() != 9 {
                return Err(RecoveryError::Corrupt("txn-commit record length mismatch"));
            }
            Ok(WalRecord::TxnCommit { txn: decode_u64(payload, 1)? })
        }
        Some(7) => {
            if payload.len() != 9 {
                return Err(RecoveryError::Corrupt("txn-abort record length mismatch"));
            }
            Ok(WalRecord::TxnAbort { txn: decode_u64(payload, 1)? })
        }
        _ => Err(RecoveryError::Corrupt("bad record kind")),
    }
}

/// The end of the log as the rest of the engine sees it: how far the log has
/// been handed to the file, how far it is known durable, and the one place
/// that moves the second up to the first ([`wait_durable`](Self::wait_durable)).
///
/// Shared (`Arc`) between the [`WalWriter`] and the buffer pool. Both
/// positions count bytes over the life of the writer and never go back — a
/// generation reset continues them — so a reader needs no lock: it is a file
/// handle and atomics. The counters beside them feed the metrics exporter.
#[derive(Debug)]
pub struct WalTail {
    file: Arc<File>,
    /// Bytes handed to the file. Advanced by the writer, under its guard.
    written: AtomicU64,
    /// Bytes known to be on the device: `durable <= written`.
    durable: AtomicU64,
    /// Who is fsyncing, and how the last rounds ended.
    rounds: Mutex<SyncRounds>,
    /// Signalled at the end of every round.
    round_over: Condvar,
    records: AtomicU64,
    fsyncs: AtomicU64,
    barrier_fsyncs: AtomicU64,
    commit_waits: AtomicU64,
    /// The fault hook of the writer's sites and of the fsyncs led here.
    hook: Option<FaultHook>,
}

/// Leader/follower state of the log's fsync. A *round* is one leader's
/// `sync_data`; at most one is in flight.
#[derive(Debug, Default)]
struct SyncRounds {
    /// A leader is inside round number `finished`.
    leading: bool,
    /// Followers parked behind it.
    parked: usize,
    /// Rounds finished so far, failed ones included.
    finished: u64,
    /// The last failed round: its number, the position it was to cover and
    /// the error, for the followers that were parked behind it.
    failed: Option<(u64, u64, String)>,
}

impl WalTail {
    /// Position up to which the log has been handed to the file.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Position up to which the log is known to be on the device.
    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Log fsyncs so far: one per leader round, whoever it served.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// The share of [`fsyncs`](Self::fsyncs) led by page write-back.
    pub fn barrier_fsyncs(&self) -> u64 {
        self.barrier_fsyncs.load(Ordering::Relaxed)
    }

    /// Commit points that had to wait in [`wait_durable`](Self::wait_durable)
    /// — their position was not yet durable when they asked. Over
    /// [`fsyncs`](Self::fsyncs) it is the mean cohort one fsync released.
    pub fn commit_waits(&self) -> u64 {
        self.commit_waits.load(Ordering::Relaxed)
    }

    /// Waiters parked behind the fsync in flight, right now.
    pub fn parked(&self) -> usize {
        self.rounds().parked
    }

    fn rounds(&self) -> MutexGuard<'_, SyncRounds> {
        // Every update of `SyncRounds` is a plain store: a panic elsewhere
        // on a thread holding it leaves it valid.
        self.rounds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The commit wait: return once the log is durable up to `pos`, a
    /// position the caller has already handed to the file (`pos <=
    /// written()`).
    ///
    /// Call it holding **nothing another committer needs** — not the
    /// writer's guard, not a visibility latch. Whoever finds no fsync in
    /// flight leads one `sync_data` covering [`written`](Self::written) and
    /// wakes every waiter at or below that position; the others park, and
    /// the ones the round did not cover lead the next. An fsync error goes
    /// to the leader *and* to every follower parked at or below its target:
    /// none of them may acknowledge.
    pub fn wait_durable(&self, pos: u64) -> std::io::Result<()> {
        if self.durable() >= pos {
            return Ok(());
        }
        self.commit_waits.fetch_add(1, Ordering::Relaxed);
        self.sync_to(pos).map(|_led| ())
    }

    /// The WAL-before-data barrier: make everything handed to the file so
    /// far durable. The buffer pool calls this before it writes a dirty page
    /// back; with nothing pending it is two atomic loads.
    ///
    /// A transaction's record is written before its change is applied, so
    /// the position read here covers every such change the page carries.
    /// The barrier joins the same rounds as the commit points, so it may be
    /// served by a commit's fsync (and then counts no barrier fsync).
    pub fn make_durable(&self) -> std::io::Result<()> {
        let target = self.written();
        if self.durable() >= target {
            return Ok(());
        }
        // A skip is a lying fsync: the page goes out believing the log is
        // down.
        if fault_point(self.hook.as_ref(), Site::WalBarrier)?.is_none() {
            return Ok(());
        }
        if self.sync_to(target)? {
            self.barrier_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Make the log durable up to `pos`, as a follower if a round that
    /// covers it is in flight and as the leader of a new one otherwise.
    /// Returns whether this call led an fsync.
    fn sync_to(&self, pos: u64) -> std::io::Result<bool> {
        let mut rounds = self.rounds();
        while rounds.leading {
            let parked_behind = rounds.finished;
            rounds.parked += 1;
            while rounds.finished == parked_behind {
                rounds = self.round_over.wait(rounds).unwrap_or_else(PoisonError::into_inner);
            }
            rounds.parked -= 1;
            // The failed round first: a later round's fsync may have
            // finished before this thread woke, and it proves nothing about
            // the pages of the round that failed.
            if let Some((round, target, error)) = &rounds.failed {
                if *round == parked_behind && pos <= *target {
                    return Err(std::io::Error::other(error.clone()));
                }
            }
            if self.durable() >= pos {
                return Ok(false);
            }
        }
        if self.durable() >= pos {
            return Ok(false);
        }
        rounds.leading = true;
        drop(rounds);

        // Everything written by now rides along, not just `pos`.
        let target = self.written();
        debug_assert!(target >= pos, "waiting on a position that was never flushed");
        let synced = self.sync_file();
        let mut rounds = self.rounds();
        rounds.leading = false;
        match &synced {
            // `fetch_max` inside: a reset may have moved `durable` past us.
            Ok(()) => self.note_durable(target),
            Err(e) => rounds.failed = Some((rounds.finished, target, e.to_string())),
        }
        rounds.finished += 1;
        drop(rounds);
        self.round_over.notify_all();
        synced.map(|()| true)
    }

    /// The log's one commit-path fsync, behind the `wal.commit` site. A
    /// skip is a lying fsync: the whole cohort is told its records are down.
    fn sync_file(&self) -> std::io::Result<()> {
        match fault_point(self.hook.as_ref(), Site::WalCommit)? {
            Some(io) => io.sync_data(&self.file),
            None => Ok(()),
        }
    }

    /// `target` bytes are on the device. Release pairs with the Acquire in
    /// [`durable`](Self::durable).
    fn note_durable(&self, target: u64) {
        self.durable.fetch_max(target, Ordering::Release);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Appender over a WAL file. Appends are buffered in user space;
/// [`flush`](Self::flush) hands them to the file; durability is then a
/// position to wait on ([`commit_point`](Self::commit_point) +
/// [`WalTail::wait_durable`]), or [`commit`](Self::commit) for a caller that
/// shares the writer with nobody.
pub struct WalWriter {
    out: BufWriter<Arc<File>>,
    tail: Arc<WalTail>,
    /// Directory holding the log, fsynced with each new generation.
    dir: PathBuf,
    epoch: u64,
    /// Bytes appended so far, buffered ones included — what
    /// [`WalTail::written`] becomes at the next flush.
    appended: u64,
    /// The same end as an offset into the current generation's file.
    file_end: u64,
    /// Length the file is known to have: never below what was flushed.
    reserved: u64,
    uncommitted: usize,
    /// The payload of the next frame: encoded by [`append`](Self::append),
    /// or staged by [`stage_insert`](Self::stage_insert).
    scratch: Vec<u8>,
    /// Where the cells of a staged insert start in `scratch`.
    staged_cells: usize,
}

impl WalWriter {
    /// Create (or reset) the WAL at `path` for `epoch`: truncates, writes
    /// the header, fsyncs file and directory. After this returns, a reader
    /// sees an empty log of the given epoch.
    pub fn create(path: &Path, epoch: u64) -> Result<Self, RecoveryError> {
        Self::create_with_hook(path, epoch, None)
    }

    /// [`create`](Self::create) behind `hook`'s fault sites.
    pub fn create_with_hook(
        path: &Path,
        epoch: u64,
        hook: Option<FaultHook>,
    ) -> Result<Self, RecoveryError> {
        // No `truncate` here: `reset` does it, behind the `wal.reset` site.
        #[allow(
            clippy::suspicious_open_options,
            reason = "`reset` truncates, behind its fault site"
        )]
        let file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        let mut writer = Self::over(file, path, epoch, 0, hook);
        writer.reset(epoch)?;
        Ok(writer)
    }

    /// Reopen an existing WAL for appending after recovery: the file is
    /// truncated to `valid_len` (discarding a torn tail or the crashed
    /// writer's reserve, so fresh appends never land after garbage) and the
    /// writer positions itself there. Its fault sites consult `hook`.
    pub fn open_append(
        path: &Path,
        epoch: u64,
        valid_len: u64,
        hook: Option<FaultHook>,
    ) -> Result<Self, RecoveryError> {
        // Site before the truncating reopen: a crash here leaves the torn
        // tail on disk for the *next* recovery to discard again — the
        // operation must be idempotent.
        let io = fault_point(hook.as_ref(), Site::WalReopen)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if let Some(io) = io {
            io.set_len(&file, valid_len)?;
            io.sync_all(&file)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self::over(file, path, epoch, valid_len, hook))
    }

    /// A writer over `file` (at `path`), which holds `len` durable bytes and
    /// whose cursor sits behind them.
    fn over(file: File, path: &Path, epoch: u64, len: u64, hook: Option<FaultHook>) -> Self {
        let file = Arc::new(file);
        let tail = Arc::new(WalTail {
            file: Arc::clone(&file),
            written: AtomicU64::new(len),
            durable: AtomicU64::new(len),
            rounds: Mutex::default(),
            round_over: Condvar::new(),
            records: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            barrier_fsyncs: AtomicU64::new(0),
            commit_waits: AtomicU64::new(0),
            hook,
        });
        WalWriter {
            out: BufWriter::new(file),
            tail,
            dir: path.parent().unwrap_or_else(|| Path::new(".")).to_path_buf(),
            epoch,
            appended: len,
            file_end: len,
            reserved: len,
            uncommitted: 0,
            scratch: Vec::new(),
            staged_cells: 0,
        }
    }

    /// Start a new log generation in place: truncate the file — reserve
    /// included — and write the header for `epoch`, file and directory
    /// fsynced. The [`WalTail`] — every holder's view of the positions and
    /// counters — carries over.
    ///
    /// Frames still buffered are **dropped**, not flushed: they belong to
    /// the generation being abandoned (a checkpoint already contains their
    /// effects), and in the new one they would replay a second time.
    pub fn reset(&mut self, epoch: u64) -> Result<(), RecoveryError> {
        let mut file = Arc::clone(&self.tail.file);
        drop(std::mem::replace(&mut self.out, BufWriter::new(Arc::clone(&file))).into_parts());
        self.uncommitted = 0;
        // Crash/fault site *before* the truncation: a snapshot here models a
        // crash between "new catalog renamed" and "WAL reset" — the
        // stale-epoch WAL the epoch fence exists for.
        let hook = self.tail.hook.as_ref();
        if let Some(io) = fault_point(hook, Site::WalReset)? {
            io.set_len(&file, 0)?;
        }
        file.seek(SeekFrom::Start(0))?;
        // Site between truncation and the header write: a snapshot here is
        // a header-torn (empty) WAL, which recovery must treat as benign.
        if let Some(io) = fault_point(hook, Site::WalHeader)? {
            io.write_all(&mut file, MAGIC)?;
            io.write_all(&mut file, &VERSION.to_le_bytes())?;
            io.write_all(&mut file, &epoch.to_le_bytes())?;
            io.sync_all(&file)?;
        }
        sync_dir(&self.dir);
        self.epoch = epoch;
        self.file_end = HEADER_LEN;
        self.reserved = HEADER_LEN;
        self.appended += HEADER_LEN;
        self.tail.written.store(self.appended, Ordering::Release);
        self.tail.durable.fetch_max(self.appended, Ordering::Release);
        Ok(())
    }

    /// The epoch this log belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared end-of-log positions and counters.
    pub fn tail(&self) -> &Arc<WalTail> {
        &self.tail
    }

    /// Append one record (buffered — not durable until
    /// [`commit`](Self::commit)). Returns the number of records appended
    /// since the last commit.
    pub fn append(&mut self, rec: &WalRecord) -> Result<usize, RecoveryError> {
        encode_payload(rec, &mut self.scratch);
        self.staged_cells = self.scratch.len();
        self.append_staged()
    }

    /// Encode an insert record — [`WalRecord::Insert`], or
    /// [`WalRecord::TxnInsert`] of `txn` — without appending it: the header
    /// for a `width`-cell row, then whatever `cells` writes, which must be
    /// the row's cells in schema order (as the paged heap's `encode_row`
    /// writes them). An error from `cells` is returned and nothing is
    /// staged.
    ///
    /// The record waits in the writer's frame buffer, where
    /// [`staged_cells`](Self::staged_cells) shows it — the one encoding of
    /// the row a durable insert makes: the heap stores these bytes, and
    /// [`append_staged`](Self::append_staged) logs them. The next
    /// `stage_insert` or [`append`](Self::append) replaces it.
    pub fn stage_insert<E>(
        &mut self,
        txn: Option<u64>,
        width: usize,
        cells: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        insert_header(txn, width, &mut self.scratch);
        self.staged_cells = self.scratch.len();
        let encoded = cells(&mut self.scratch);
        if encoded.is_err() {
            self.scratch.clear();
            self.staged_cells = 0;
        }
        encoded
    }

    /// The cells of the insert record [`stage_insert`](Self::stage_insert)
    /// staged (still there after [`append_staged`](Self::append_staged));
    /// empty when the buffer holds another kind of record.
    pub fn staged_cells(&self) -> &[u8] {
        &self.scratch[self.staged_cells..]
    }

    /// Append the staged record, like [`append`](Self::append).
    pub fn append_staged(&mut self) -> Result<usize, RecoveryError> {
        let scratch = std::mem::take(&mut self.scratch);
        let buffered = self.append_frame(&scratch);
        self.scratch = scratch;
        if buffered? {
            self.tail.records.fetch_add(1, Ordering::Relaxed);
        }
        self.uncommitted += 1;
        Ok(self.uncommitted)
    }

    /// Buffer one frame around `payload`, behind the `wal.append` site.
    /// `Ok(false)` is a silently dropped append (a `Skip` fault): the caller
    /// is told the frame is in the log, but no bytes were written.
    fn append_frame(&mut self, payload: &[u8]) -> Result<bool, RecoveryError> {
        let Some(io) = fault_point(self.tail.hook.as_ref(), Site::WalAppend)? else {
            return Ok(false);
        };
        let res = (|| -> Result<(), RecoveryError> {
            io.write_all(&mut self.out, &(payload.len() as u32).to_le_bytes())?;
            io.write_all(&mut self.out, &crc32(payload).to_le_bytes())?;
            io.write_all(&mut self.out, payload)?;
            Ok(())
        })();
        self.appended += 8 + payload.len() as u64;
        self.file_end += 8 + payload.len() as u64;
        res.map(|()| true)
    }

    /// Put evidence that this log generation saw a statement into the file
    /// before the statement applies: a marker frame, replayed as nothing,
    /// appended and [flushed](Self::flush). A no-op once the generation
    /// holds a frame. It is what lets recovery tell pages that ran ahead of
    /// the checkpoint from pages a lying device dropped: an auto-commit
    /// statement logs *after* it applies, and between commit points its
    /// record sits in this writer's buffer, where neither the file nor the
    /// buffer pool's barrier can see it. The marker is flushed, so the
    /// barrier forces it before the first page of the generation goes
    /// back. It counts as no record and owes no commit.
    pub fn mark_generation(&mut self) -> Result<(), RecoveryError> {
        if self.file_end > HEADER_LEN {
            return Ok(());
        }
        self.append_frame(&MARKER)?;
        self.flush()
    }

    /// Append a [`WalRecord::TxnCommit`] for `txn`, behind its own
    /// `wal.txn_commit` fault site so the crash-schedule explorer can
    /// `kill -9` the instant before the commit record reaches the log
    /// (the transaction must then recover as a loser). The generic
    /// `wal.append` site still fires inside the inner [`append`](Self::append).
    pub fn append_txn_commit(&mut self, txn: u64) -> Result<usize, RecoveryError> {
        if fault_point(self.tail.hook.as_ref(), Site::WalTxnCommit)?.is_none() {
            // Dropped commit record: the caller believes the txn is logged
            // as a winner, but the log never says so.
            self.uncommitted += 1;
            return Ok(self.uncommitted);
        }
        self.append(&WalRecord::TxnCommit { txn })
    }

    /// Append a [`WalRecord::TxnAbort`] for `txn`, behind its own
    /// `wal.txn_abort` fault site (see [`append_txn_commit`](Self::append_txn_commit)).
    /// A dropped/crashed abort record is benign for atomicity — recovery
    /// rolls back any open txn without a commit record anyway — but the
    /// site proves that.
    pub fn append_txn_abort(&mut self, txn: u64) -> Result<usize, RecoveryError> {
        if fault_point(self.tail.hook.as_ref(), Site::WalTxnAbort)?.is_none() {
            self.uncommitted += 1;
            return Ok(self.uncommitted);
        }
        self.append(&WalRecord::TxnAbort { txn })
    }

    /// Hand every buffered frame to the file (one `write`). The frames then
    /// survive the process (`kill -9`) and are covered by the next fsync —
    /// a commit point's or the buffer pool's barrier — but are not yet
    /// durable. When the frames would pass the end of the file, the file is
    /// first extended [`RESERVE_BYTES`] past them, so the writes and fsyncs
    /// up to there change no file size.
    pub fn flush(&mut self) -> Result<(), RecoveryError> {
        if self.file_end > self.reserved {
            // A skip is a reserve that never happened: the `write` grows
            // the file.
            if let Some(io) = fault_point(self.tail.hook.as_ref(), Site::WalReserve)? {
                let reserved = self.file_end + RESERVE_BYTES;
                io.set_len(&self.tail.file, reserved)?;
                self.reserved = reserved;
            }
        }
        self.out.flush()?;
        self.tail.written.store(self.appended, Ordering::Release);
        Ok(())
    }

    /// Close the commit batch: flush, and return the position whose
    /// durability acknowledges everything appended so far. The caller
    /// releases whatever guards the writer and then waits on it with
    /// [`WalTail::wait_durable`].
    pub fn commit_point(&mut self) -> Result<u64, RecoveryError> {
        self.flush()?;
        self.uncommitted = 0;
        Ok(self.appended)
    }

    /// Flush buffered frames and wait until they are durable: a
    /// [`commit_point`](Self::commit_point) and its wait in one call, for a
    /// caller that shares the writer with nobody (it holds `&mut self`
    /// across the fsync).
    pub fn commit(&mut self) -> Result<(), RecoveryError> {
        let pos = self.commit_point()?;
        self.tail.wait_durable(pos)?;
        Ok(())
    }

    /// Records appended since the last commit.
    pub fn uncommitted(&self) -> usize {
        self.uncommitted
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Epoch from the file header.
    pub epoch: u64,
    /// All complete, CRC-valid records, in append order.
    pub records: Vec<WalRecord>,
    /// The log's logical end: file offset just past the last valid frame.
    /// Appending must resume here (see [`WalWriter::open_append`]).
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was discarded after `valid_len`. The
    /// writer's all-zero reserve is not one.
    pub torn_tail: bool,
}

impl WalReplay {
    /// Nothing follows the header — no record, no generation marker, no
    /// tear: no statement ever ran in this generation.
    pub fn is_untouched(&self) -> bool {
        self.valid_len == HEADER_LEN && !self.torn_tail
    }
}

/// Decode the frame at `bytes[pos..]` into `records` (a generation marker
/// adds none); its length on disk, or `None` when no complete, CRC-valid,
/// well-formed frame starts there.
fn frame_at(bytes: &[u8], pos: usize, records: &mut Vec<WalRecord>) -> Option<usize> {
    let head = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return None;
    }
    let payload = bytes.get(pos + 8..pos + 8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    if payload != MARKER {
        records.push(decode_payload(payload).ok()?);
    }
    Some(8 + len)
}

/// Read a WAL file, tolerating a torn tail (see module docs). Errors are
/// reserved for a missing/unreadable file or a bad header — once the header
/// checks out, any malformed byte simply ends the log.
pub fn read_wal(path: &Path) -> Result<WalReplay, RecoveryError> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(RecoveryError::Corrupt("wal header truncated"));
    }
    if &bytes[..4] != MAGIC {
        return Err(RecoveryError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(RecoveryError::UnsupportedVersion(version));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while let Some(len) = frame_at(&bytes, pos, &mut records) {
        pos += len;
    }
    // Whatever follows the last good frame is the writer's zero reserve (a
    // clean end) or it is a tear — a partial frame in front of the reserve
    // included.
    let torn_tail = bytes[pos..].iter().any(|&b| b != 0);
    Ok(WalReplay { epoch, records, valid_len: pos as u64, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultAction;
    use std::sync::OnceLock;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hermit-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert { row: vec![Value::Int(1), Value::Float(2.5), Value::Null] },
            WalRecord::Delete { pk: 1 },
            WalRecord::Insert { row: vec![Value::Int(-7), Value::Float(-0.0), Value::Float(1e9)] },
        ]
    }

    #[test]
    fn append_commit_read_roundtrip() {
        let path = tmp("roundtrip.wal");
        let mut w = WalWriter::create(&path, 3).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        assert_eq!(w.uncommitted(), 3);
        w.commit().unwrap();
        assert_eq!(w.uncommitted(), 0);
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.epoch, 3);
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_stops_at_last_complete_record() {
        let path = tmp("torn.wal");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        w.commit().unwrap();
        let clean = read_wal(&path).unwrap();
        // The file is longer than the log by the reserve; the tears that
        // matter are cuts of the *log*.
        let end = clean.valid_len;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end + RESERVE_BYTES);
        let bytes = std::fs::read(&path).unwrap();
        // Chop bytes off the end: every truncation point must recover the
        // longest prefix of complete records, never error.
        for cut in 1..(end - HEADER_LEN) {
            let torn_path = tmp("torn-cut.wal");
            std::fs::write(&torn_path, &bytes[..(end - cut) as usize]).unwrap();
            let replay = read_wal(&torn_path).unwrap();
            assert!(replay.records.len() < clean.records.len());
            assert_eq!(
                replay.records,
                clean.records[..replay.records.len()],
                "cut {cut}: surviving prefix must match"
            );
            assert!(replay.valid_len <= end - cut);
            assert_eq!(replay.torn_tail, replay.valid_len < end - cut, "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The three-record log of [`sample_records`], reserve and all.
    fn reserved_log(name: &str) -> (std::path::PathBuf, Vec<u8>, u64) {
        let path = tmp(name);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        w.commit().unwrap();
        let end = read_wal(&path).unwrap().valid_len;
        (path.clone(), std::fs::read(&path).unwrap(), end)
    }

    #[test]
    fn zero_tail_is_a_clean_end() {
        let (path, bytes, end) = reserved_log("zero-tail.wal");
        assert!(bytes.len() as u64 > end && bytes[end as usize..].iter().all(|&b| b == 0));
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.valid_len, end);
        assert!(!replay.torn_tail, "the reserve is not a tear");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_frame_followed_by_zeros_is_a_tear() {
        let (path, mut bytes, end) = reserved_log("partial-then-zeros.wal");
        // Blank the back half of the last frame: what a power cut leaves of a
        // `write` that only partly reached the device, in front of the reserve.
        let last = end as usize - (8 + 1 + 2 + 3 * CELL_BYTES);
        bytes[last + 12..end as usize].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records, sample_records()[..2]);
        assert_eq!(replay.valid_len as usize, last);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_zero_bytes_after_eight_zero_bytes_are_a_tear() {
        let (path, mut bytes, end) = reserved_log("zeros-then-garbage.wal");
        // A zero frame header, then something: not reserve.
        bytes[end as usize + 8] = 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!((replay.records, replay.valid_len), (sample_records(), end));
        // And far into the reserve just the same.
        bytes[end as usize + 8] = 0;
        *bytes.last_mut().unwrap() = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_wal(&path).unwrap().torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_inside_the_reserve_never_errors() {
        let (path, bytes, end) = reserved_log("cut-reserve.wal");
        // Every length from the logical end to the end of the reserve: near
        // the log byte by byte, then in strides.
        let near = end..end + 64;
        let far = (end + 64..=bytes.len() as u64).step_by(4093);
        for len in near.chain(far) {
            std::fs::write(&path, &bytes[..len as usize]).unwrap();
            let replay = read_wal(&path).unwrap();
            assert_eq!((replay.records.len(), replay.valid_len), (3, end), "length {len}");
            assert!(!replay.torn_tail, "length {len}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_image_with_a_reserve_reopens_at_the_logical_end() {
        let path = tmp("kill-image.wal");
        let mut w = WalWriter::create(&path, 4).unwrap();
        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        w.commit().unwrap(); // acknowledged
        w.append(&WalRecord::Delete { pk: 2 }).unwrap();
        w.flush().unwrap(); // written, never acknowledged: kill -9 keeps it
        w.append(&WalRecord::Delete { pk: 3 }).unwrap(); // buffered: dies with the process
        let image = tmp("kill-image-copy.wal");
        std::fs::copy(&path, &image).unwrap();
        drop(w);

        let two = HEADER_LEN + 2 * 17;
        assert_eq!(std::fs::metadata(&image).unwrap().len(), HEADER_LEN + 17 + RESERVE_BYTES);
        let replay = read_wal(&image).unwrap();
        assert_eq!(replay.records, vec![WalRecord::Delete { pk: 1 }, WalRecord::Delete { pk: 2 }]);
        assert_eq!((replay.valid_len, replay.torn_tail), (two, false));

        let mut w = WalWriter::open_append(&image, replay.epoch, replay.valid_len, None).unwrap();
        assert_eq!(std::fs::metadata(&image).unwrap().len(), two, "the old reserve is cut off");
        w.append(&WalRecord::Delete { pk: 4 }).unwrap();
        w.commit().unwrap();
        let replay = read_wal(&image).unwrap();
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Delete { pk: 1 },
                WalRecord::Delete { pk: 2 },
                WalRecord::Delete { pk: 4 }
            ]
        );
        assert_eq!((replay.valid_len, replay.torn_tail), (two + 17, false));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&image).ok();
    }

    #[test]
    fn corrupt_frame_ends_the_log_without_error() {
        let path = tmp("corrupt.wal");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        w.commit().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the second frame's payload: record 1 survives,
        // the rest is discarded as a tear.
        let first_frame_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize + 8;
        let idx = 16 + first_frame_len + 10;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.valid_len as usize, 16 + first_frame_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_the_tear_and_continues() {
        let path = tmp("append.wal");
        let mut w = WalWriter::create(&path, 9).unwrap();
        w.append(&WalRecord::Delete { pk: 10 }).unwrap();
        w.commit().unwrap();
        // Simulate a crash mid-append: garbage tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            #[expect(clippy::disallowed_methods, reason = "the test tears the log by hand")]
            f.write_all(&[0xAB; 7]).unwrap();
        }
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn_tail);
        let mut w = WalWriter::open_append(&path, replay.epoch, replay.valid_len, None).unwrap();
        w.append(&WalRecord::Delete { pk: 11 }).unwrap();
        w.commit().unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn_tail, "tear must have been truncated away");
        assert_eq!(
            replay.records,
            vec![WalRecord::Delete { pk: 10 }, WalRecord::Delete { pk: 11 }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn txn_records_roundtrip() {
        let path = tmp("txn-roundtrip.wal");
        let recs = vec![
            WalRecord::TxnBegin { txn: 7 },
            WalRecord::TxnInsert { txn: 7, row: vec![Value::Int(1), Value::Float(2.5)] },
            WalRecord::TxnDelete {
                txn: 7,
                pk: -3,
                row: vec![Value::Int(-3), Value::Null, Value::Float(1e9)],
            },
            WalRecord::TxnAbort { txn: 7 },
            WalRecord::TxnBegin { txn: 8 },
            WalRecord::TxnCommit { txn: 8 },
        ];
        let mut w = WalWriter::create(&path, 5).unwrap();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        w.commit().unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, recs);
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn txn_commit_abort_helpers_hit_their_fault_sites() {
        let path = tmp("txn-sites.wal");
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            let hook = FaultHook::new(move |call| {
                seen.lock().unwrap().push(call.site);
                FaultAction::Continue
            });
            let mut w = WalWriter::create_with_hook(&path, 1, Some(hook)).unwrap();
            w.append_txn_commit(11).unwrap();
            w.append_txn_abort(12).unwrap();
            w.commit().unwrap();
        }
        let sites = seen.lock().unwrap();
        assert!(sites.contains(&Site::WalTxnCommit));
        assert!(sites.contains(&Site::WalTxnAbort));
        let replay = read_wal(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord::TxnCommit { txn: 11 }, WalRecord::TxnAbort { txn: 12 }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_txn_commit_record_leaves_no_bytes() {
        let path = tmp("txn-skip.wal");
        let hook = FaultHook::new(|call| {
            if call.site == Site::WalTxnCommit {
                FaultAction::Skip
            } else {
                FaultAction::Continue
            }
        });
        let mut w = WalWriter::create_with_hook(&path, 1, Some(hook)).unwrap();
        w.append(&WalRecord::TxnBegin { txn: 1 }).unwrap();
        w.append_txn_commit(1).unwrap();
        w.commit().unwrap();
        let replay = read_wal(&path).unwrap();
        // The begin landed; the lying commit-record append left the log
        // showing an open (loser) transaction.
        assert_eq!(replay.records, vec![WalRecord::TxnBegin { txn: 1 }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_tracks_written_and_durable_across_a_reset() {
        let path = tmp("tail.wal");
        let mut w = WalWriter::create(&path, 1).unwrap();
        let tail = Arc::clone(w.tail());
        assert_eq!((tail.written(), tail.durable()), (HEADER_LEN, HEADER_LEN));
        tail.make_durable().unwrap();
        assert_eq!(tail.fsyncs(), 0, "nothing pending: the barrier is a comparison");

        // Buffered: not even written. Flushed: written, not durable.
        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        assert_eq!(tail.written(), HEADER_LEN);
        w.flush().unwrap();
        let one = HEADER_LEN + 8 + 9;
        assert_eq!((tail.written(), tail.durable()), (one, HEADER_LEN));
        assert_eq!(read_wal(&path).unwrap().valid_len, one);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), one + RESERVE_BYTES);

        // The barrier pays the fsync the flush did not.
        tail.make_durable().unwrap();
        assert_eq!(tail.durable(), one);
        assert_eq!((tail.fsyncs(), tail.barrier_fsyncs()), (1, 1));

        w.append(&WalRecord::Delete { pk: 2 }).unwrap();
        w.commit().unwrap();
        assert_eq!((tail.written(), tail.durable()), (one + 17, one + 17));
        assert_eq!((tail.records(), tail.fsyncs(), tail.barrier_fsyncs()), (2, 2, 1));
        assert_eq!(tail.commit_waits(), 1, "the barrier is not a commit point");

        // A new generation drops what is buffered, restarts the file, and
        // keeps positions and counters going for whoever holds the tail.
        w.append(&WalRecord::Delete { pk: 3 }).unwrap();
        w.reset(2).unwrap();
        assert_eq!(w.uncommitted(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN, "no reserve survives");
        assert!(tail.written() > one + 17 && tail.durable() == tail.written());
        assert_eq!(tail.records(), 3);
        w.append(&WalRecord::Delete { pk: 4 }).unwrap();
        w.commit().unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!((replay.epoch, replay.records), (2, vec![WalRecord::Delete { pk: 4 }]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_generation_is_marked_once_and_the_marker_replays_as_nothing() {
        let path = tmp("marker.wal");
        let mut w = WalWriter::create(&path, 1).unwrap();
        let tail = Arc::clone(w.tail());
        assert!(read_wal(&path).unwrap().is_untouched());

        w.mark_generation().unwrap();
        let marked = HEADER_LEN + 8 + 1;
        assert_eq!(tail.written(), marked, "the marker is handed to the file at once");
        let replay = read_wal(&path).unwrap();
        assert_eq!((replay.records.len(), replay.valid_len), (0, marked));
        assert!(!replay.is_untouched() && !replay.torn_tail);
        assert_eq!((tail.records(), w.uncommitted()), (0, 0), "no record, no commit owed");

        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        w.mark_generation().unwrap();
        w.commit().unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, vec![WalRecord::Delete { pk: 1 }]);
        assert_eq!(replay.valid_len, marked + 17, "one marker per generation");

        // A new generation is unmarked until its first statement.
        w.reset(2).unwrap();
        assert!(read_wal(&path).unwrap().is_untouched());
        w.mark_generation().unwrap();
        assert_eq!(read_wal(&path).unwrap().valid_len, marked);
        std::fs::remove_file(&path).ok();
    }

    /// Spin (yielding) until `cond` holds; false after five seconds, so a
    /// broken property fails its test instead of hanging it.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !cond() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// A log whose first fsync runs `first` (the leader's thread holds the
    /// round while it runs), then fails if `first` says so.
    fn log_with_first_fsync(
        path: &Path,
        first: impl Fn(&WalTail) -> bool + Send + Sync + 'static,
    ) -> WalWriter {
        let tail: Arc<OnceLock<Arc<WalTail>>> = Arc::default();
        let seen = Arc::clone(&tail);
        let led = std::sync::atomic::AtomicBool::new(false);
        let hook = FaultHook::new(move |call| {
            let firstly = call.site == Site::WalCommit && !led.swap(true, Ordering::SeqCst);
            match seen.get() {
                Some(tail) if firstly && first(tail) => FaultAction::Error,
                _ => FaultAction::Continue,
            }
        });
        let w = WalWriter::create_with_hook(path, 1, Some(hook)).unwrap();
        tail.set(Arc::clone(w.tail())).unwrap();
        w
    }

    #[test]
    fn one_fsync_serves_everyone_at_or_below_its_target() {
        let path = tmp("cohort.wal");
        // The leader is held inside the fsync until the follower has parked.
        let mut w = log_with_first_fsync(&path, |tail| {
            assert!(eventually(|| tail.parked() == 1), "nobody parked behind the leader");
            false
        });
        let tail = Arc::clone(w.tail());
        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        let first = w.commit_point().unwrap();
        w.append(&WalRecord::Delete { pk: 2 }).unwrap();
        let second = w.commit_point().unwrap();
        std::thread::scope(|s| {
            let leader = s.spawn(|| tail.wait_durable(first));
            assert!(eventually(|| tail.rounds().leading));
            let follower = s.spawn(|| tail.wait_durable(second));
            leader.join().unwrap().unwrap();
            follower.join().unwrap().unwrap();
        });
        // The leader's target was everything written, not just its own record.
        assert_eq!(tail.durable(), second);
        assert_eq!((tail.fsyncs(), tail.commit_waits(), tail.parked()), (1, 2, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_fsync_fails_its_cohort_and_nobody_above_it() {
        let path = tmp("cohort-error.wal");
        let mut w = log_with_first_fsync(&path, |tail| {
            assert!(eventually(|| tail.parked() == 2), "the cohort never formed");
            true
        });
        let tail = Arc::clone(w.tail());
        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        let covered = w.commit_point().unwrap();
        std::thread::scope(|s| {
            let leader = s.spawn(|| tail.wait_durable(covered));
            assert!(eventually(|| tail.rounds().leading));
            // Written after the leader read its target: not its to fail.
            w.append(&WalRecord::Delete { pk: 2 }).unwrap();
            let above = w.commit_point().unwrap();
            let follower = s.spawn(|| tail.wait_durable(covered));
            let tail_ref = &tail;
            let latecomer = s.spawn(move || tail_ref.wait_durable(above));

            let led = leader.join().unwrap().unwrap_err();
            let followed = follower.join().unwrap().unwrap_err();
            assert!(led.to_string().contains("wal.commit"), "{led}");
            assert!(followed.to_string().contains("wal.commit"), "{followed}");
            // The latecomer led the next round itself, and that one was real.
            latecomer.join().unwrap().unwrap();
            assert_eq!(tail.durable(), above);
        });
        assert_eq!((tail.fsyncs(), tail.commit_waits()), (1, 3));
        // The failure is not sticky: the barrier and later commits go on.
        tail.make_durable().unwrap();
        w.append(&WalRecord::Delete { pk: 3 }).unwrap();
        w.commit().unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_lying_fsync_acknowledges_without_syncing() {
        let path = tmp("cohort-lie.wal");
        let hook = FaultHook::new(|call| match call.site {
            Site::WalCommit => FaultAction::Skip,
            _ => FaultAction::Continue,
        });
        let mut w = WalWriter::create_with_hook(&path, 1, Some(hook)).unwrap();
        w.append(&WalRecord::Delete { pk: 1 }).unwrap();
        w.commit().unwrap();
        assert_eq!(w.tail().durable(), w.tail().written());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_is_an_error() {
        let path = tmp("badheader.wal");
        WalWriter::create(&path, 1).unwrap().commit().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_wal(&path), Err(RecoveryError::BadMagic)));
        std::fs::write(&path, b"HM").unwrap();
        assert!(matches!(read_wal(&path), Err(RecoveryError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A staged insert is the record `append` would have written, byte for
    /// byte, for both kinds; its cells stay readable after the append; a
    /// staging the encoder rejects leaves nothing to append.
    #[test]
    fn a_staged_insert_logs_the_bytes_append_would() {
        let row = vec![Value::Int(-7), Value::Float(2.5), Value::Null];
        let cells: Vec<u8> = row.iter().flat_map(encode_cell).collect();
        let (staged, appended) = (tmp("staged.wal"), tmp("appended.wal"));
        let mut by_stage = WalWriter::create(&staged, 1).unwrap();
        let mut by_append = WalWriter::create(&appended, 1).unwrap();
        for txn in [None, Some(9)] {
            by_stage
                .stage_insert(txn, row.len(), |out| {
                    out.extend_from_slice(&cells);
                    Ok::<_, ()>(())
                })
                .unwrap();
            assert_eq!(by_stage.staged_cells(), cells);
            assert_eq!(by_stage.append_staged().unwrap(), by_stage.uncommitted());
            assert_eq!(by_stage.staged_cells(), cells, "the heap reads the cells after the append");
            let rec = match txn {
                None => WalRecord::Insert { row: row.clone() },
                Some(txn) => WalRecord::TxnInsert { txn, row: row.clone() },
            };
            by_append.append(&rec).unwrap();
        }
        assert_eq!(by_stage.stage_insert(None, 3, |_| Err("no such row")), Err("no such row"));
        assert!(by_stage.staged_cells().is_empty());
        by_stage.append(&WalRecord::Delete { pk: 4 }).unwrap();
        assert!(by_stage.staged_cells().is_empty(), "a delete record has no cells");
        by_append.append(&WalRecord::Delete { pk: 4 }).unwrap();
        by_stage.commit().unwrap();
        by_append.commit().unwrap();
        let log = |path: &Path| {
            let replay = read_wal(path).unwrap();
            let bytes = std::fs::read(path).unwrap();
            (bytes[..replay.valid_len as usize].to_vec(), replay.records)
        };
        assert_eq!(log(&staged), log(&appended));
        assert_eq!(log(&staged).1.len(), 3);
        std::fs::remove_file(&staged).ok();
        std::fs::remove_file(&appended).ok();
    }

    /// A durable insert stages its record in the writer's one frame buffer:
    /// a second insert of the same width neither grows nor replaces it.
    #[test]
    fn a_second_staged_insert_of_one_width_grows_no_buffer() {
        let path = tmp("staging.wal");
        let cells: Vec<u8> =
            [Value::Int(1), Value::Float(2.5), Value::Null].iter().flat_map(encode_cell).collect();
        let mut w = WalWriter::create(&path, 1).unwrap();
        let mut insert = || {
            let staged = w.stage_insert(None, 3, |out| {
                out.extend_from_slice(&cells);
                Ok::<_, ()>(())
            });
            staged.unwrap();
            w.append_staged().unwrap();
            w.scratch.capacity()
        };
        let first = insert();
        assert!(first >= cells.len());
        assert_eq!(insert(), first);
        std::fs::remove_file(&path).ok();
    }
}
