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
//!
//! The crash-schedule matrix is [`Site::ALL`](hermit_storage::Site::ALL).
//! It lives in `hermit_storage`, beside the fault points, because this
//! crate depends on that one. A durability syscall in storage needs the
//! token a fault point returns (`crates/storage/clippy.toml`), and the
//! explorer's counting pass checks by running the workload that each site
//! it reaches has one source location and that it reaches every site but
//! the two only a reopen passes.
#![warn(clippy::allow_attributes_without_reason)]

pub mod explorer;
pub mod mangle;
pub mod plan;
pub mod store;

pub use explorer::{explore, ExplorerReport, SiteFailure};
pub use mangle::{mangle_bytes, mangle_file};
pub use plan::{FaultKind, FaultOp, FaultPlan, FaultRates, PlannedFault};
pub use store::FaultyPageStore;
