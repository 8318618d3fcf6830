#![forbid(unsafe_code)]
//! # hermit-storage
//!
//! Storage-engine substrate for the Hermit reproduction.
//!
//! The Hermit paper (SIGMOD 2019) evaluates its indexing mechanism inside two
//! RDBMSs: *DBMS-X*, an in-memory prototype, and PostgreSQL, a disk-based
//! system. This crate provides from-scratch equivalents of the storage layers
//! of both:
//!
//! * [`Table`] — an in-memory columnar table heap with typed columns, null
//!   bitmaps, tombstone deletes, block+offset row locations and incremental
//!   per-column statistics. This is the "DBMS-X" substrate.
//! * [`paged`] — an 8 KiB slotted-page table heap behind a pluggable page
//!   store and a clock-replacement buffer pool, with I/O accounting. This is
//!   the "PostgreSQL" substrate used by the disk-based experiment (Fig. 24).
//!
//! The paged substrate is restart-survivable: [`recovery`] provides the
//! versioned checkpoint catalog (written atomically) and [`wal`] the
//! CRC-framed write-ahead log that together let a database reopen from disk
//! with bounded loss (everything up to the last WAL commit).
//!
//! Both substrates expose the two tuple-identifier schemes discussed in §5.1
//! of the paper through [`Tid`] / [`TidScheme`]: *physical pointers*
//! (block + offset row locations) and *logical pointers* (primary keys that
//! must be resolved through a primary index).

pub mod batch;
pub mod column;
pub mod error;
pub mod fault;
pub mod hash;
pub mod paged;
pub mod recovery;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tid;
pub mod value;
pub mod wal;

pub use batch::RowRef;
pub use column::Column;
pub use error::StorageError;
pub use fault::{fault_point, install_fault_hook, FaultAction, FaultHookGuard};
pub use recovery::{BaselineDef, Catalog, HermitDef, PageEntry, RecoveryError};
pub use schema::{ColumnDef, ColumnId, ColumnType, Schema};
pub use stats::ColumnStats;
pub use table::{RowLoc, Table};
pub use tid::{Tid, TidScheme};
pub use value::{decode_cell, decode_cells, encode_cell, BadCellTag, F64Key, Value, CELL_BYTES};
pub use wal::{WalRecord, WalReplay, WalWriter};

/// Convenience result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
