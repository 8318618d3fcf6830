//! # hermit-storage
//!
//! Storage-engine substrate for the Hermit reproduction.
//!
//! The Hermit paper (SIGMOD 2019) evaluates its indexing mechanism inside two
//! RDBMSs: *DBMS-X*, an in-memory prototype, and PostgreSQL, a disk-based
//! system. This crate provides one heap substrate for both:
//!
//! * [`paged`] — an 8 KiB slotted-page table heap behind a pluggable page
//!   store and a sharded clock-replacement buffer pool, with I/O accounting.
//!   Over an in-memory store ([`paged::SimulatedPageStore`]) with a pool that
//!   holds the whole table it is the "DBMS-X" setting; over a file
//!   ([`paged::FilePageStore`]), or the in-memory store behind a small pool
//!   whose fault hook charges a device's latency per read, it is the
//!   "PostgreSQL" one of the disk-based experiment (Fig. 24).
//!
//! The file-backed heap is restart-survivable: [`recovery`] provides the
//! versioned checkpoint catalog (written atomically) and [`wal`] the
//! CRC-framed write-ahead log that together let a database reopen from disk
//! with bounded loss (everything up to the last WAL commit).
//!
//! Rows are addressed by [`RowLoc`] (page + slot). The two tuple-identifier
//! schemes discussed in §5.1 of the paper are [`Tid`] / [`TidScheme`]:
//! *physical pointers* (row locations) and *logical pointers* (primary keys
//! that must be resolved through a primary index).
#![warn(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod batch;
pub mod error;
pub mod fault;
pub mod hash;
pub mod paged;
pub mod recovery;
pub mod schema;
pub mod stats;
pub mod tid;
pub mod value;
pub mod wal;

pub use batch::RowRef;
pub use error::StorageError;
pub use fault::{fault_point, page_fault_point, FaultAction, FaultCall, FaultHook, Gate, Io, Site};
pub use recovery::{BaselineDef, Catalog, HermitDef, PageEntry, RecoveryError};
pub use schema::{ColumnDef, ColumnId, ColumnType, Schema};
pub use stats::ColumnStats;
pub use tid::{RowLoc, Tid, TidScheme};
pub use value::{decode_cell, decode_cells, encode_cell, BadCellTag, F64Key, Value, CELL_BYTES};
pub use wal::{WalRecord, WalReplay, WalWriter};

/// Convenience result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
