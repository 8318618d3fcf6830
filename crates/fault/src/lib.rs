//! # hermit_fault
//!
//! Deterministic fault injection and crash-schedule exploration for the
//! Hermit durability and serving stack.
//!
//! The durability contract (checkpoint + WAL, `hermit_core::recovery`)
//! and the TCP front end both promise graceful behavior under failure:
//! recover to an oracle-equal state, or fail with a typed error — never
//! corrupt, never panic, never hang. This crate supplies the machinery to
//! *enumerate* failures instead of hand-picking them:
//!
//! * [`FaultyPageStore`] — wraps any [`PageStore`](hermit_storage::paged::PageStore)
//!   with injectable EIO, dropped, and torn writes, failing/lying fsync,
//!   poisoned reads, and page-granular drops, driven by a [`FaultPlan`]
//!   (explicit site list or seeded schedule — replayable from one `u64`).
//! * [`mangle`] — seed-deterministic byte-level corruption of on-disk
//!   artifacts (the WAL proptests).
//! * [`explorer`] — the crash-schedule explorer: crash the canonical
//!   workload at every durability I/O site (via the
//!   [`fault_point`](hermit_storage::fault_point) hooks in
//!   `hermit_storage`), recover each snapshot, and compare query-for-query
//!   against a statement-prefix oracle.
#![warn(clippy::allow_attributes_without_reason)]

pub mod explorer;
pub mod mangle;
pub mod plan;
pub mod store;

pub use explorer::{explore, ExplorerReport, SiteFailure};
pub use mangle::{mangle_bytes, mangle_file};
pub use plan::{FaultKind, FaultOp, FaultPlan, FaultRates, PlannedFault};
pub use store::FaultyPageStore;

/// The crash-schedule matrix: every [`fault_point`](hermit_storage::fault_point)
/// site name that exists in `hermit_storage`, sorted. This is the contract
/// between the storage layer and the crash explorer — a durability I/O site
/// may only exist if it is named here, so it can never silently escape
/// crash testing.
///
/// Reconciled from both sides:
/// * **statically** — `hermit-lint`'s `fault-matrix` rule extracts every
///   `fault_point("…")` literal from `crates/storage` and fails CI on any
///   difference with this list;
/// * **dynamically** — `crash_matrix_reconciles_with_the_explorer` (this
///   crate's tests) runs the canonical workload and checks every site the
///   schedule passes through is declared here.
///
/// `wal.commit` is the log's one commit-path fsync: it fires once per
/// *leader* round of [`WalTail::wait_durable`](hermit_storage::wal::WalTail::wait_durable),
/// after the round's records were written — in the explorer's single thread,
/// once per commit point. `wal.reserve` fires before each `set_len` that
/// extends the log file ahead of its logical end (the first write of every
/// log generation, then once per reserved MiB).
/// `wal.reopen` fires on the recovery path (torn-tail truncation), which
/// the canonical create-from-scratch workload never takes; it is exercised
/// by the durability suite's reopen cases instead. `wal.barrier` fires only
/// when a page is written back while the log holds written-but-unsynced
/// records: the canonical workload runs on a one-frame pool and ends with a
/// transaction that overflows its first heap page, which steals that page
/// once (the durability suite's steal test takes a crash image at every
/// site of such a steal). `page.read_range` is one span of a batch's
/// read-throughs — a cold page's records read instead of the page, one site
/// per span, so an ordinal names a single read; the workload's last
/// statements read one such row.
pub const CRASH_MATRIX_SITES: &[&str] = &[
    "atomic.rename",
    "atomic.write",
    "page.read",
    "page.read_range",
    "page.sync",
    "page.write",
    "wal.append",
    "wal.barrier",
    "wal.commit",
    "wal.header",
    "wal.reopen",
    "wal.reserve",
    "wal.reset",
    "wal.txn_abort",
    "wal.txn_commit",
];
