#![forbid(unsafe_code)]
//! # hermit-btree
//!
//! Index substrate for the Hermit reproduction: a memory-optimized B+-tree
//! and a primary index.
//!
//! The paper's *Baseline* is "the standard B+-tree-based secondary indexing
//! mechanism used in conventional RDBMSs" (§7.1), with in-memory nodes sized
//! at 256 bytes. [`BPlusTree`] is that structure: an arena-allocated B+-tree
//! with duplicate-key support, linked leaves for range scans, bulk loading,
//! and byte-level memory accounting (the paper's space experiments report
//! index sizes directly).
//!
//! The same tree serves three roles in the system:
//!
//! * **baseline secondary index** — key = target column value, value = tid;
//! * **host index** — key = host column value, value = tid (what Hermit
//!   probes after the TRS-Tree hop);
//! * **primary index** — key = primary key, value = row location (used to
//!   resolve logical tids; [`HashPrimaryIndex`] is also provided, since
//!   point-only primary access is a hash map's sweet spot — over a paged
//!   heap it keeps runs of consecutive keys in consecutive slots instead,
//!   with the keys that break them in the hash).

pub mod hash_index;
pub mod node;
pub mod tree;

pub use hash_index::HashPrimaryIndex;
pub use tree::{BPlusTree, RangeIter};
