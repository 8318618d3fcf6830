//! # hermit-btree
//!
//! Index substrate for the Hermit reproduction: a memory-optimized B+-tree
//! and a primary index.
//!
//! The paper's *Baseline* is "the standard B+-tree-based secondary indexing
//! mechanism used in conventional RDBMSs" (§7.1). [`BPlusTree`] is that
//! structure: a B+-tree with duplicate-key support, linked leaves for range
//! scans, bulk loading, and byte-level memory accounting (the paper's space
//! experiments report index sizes directly).
//!
//! Its nodes are page-shaped: a leaf is one fixed-size allocation holding a
//! count, a `next` link and inline arrays of 255 keys and 255 values (4 088
//! bytes for `(F64Key, Tid)` entries, one 4 KiB page), an internal node
//! inline arrays of 255 keys and 256 child ids. This is a deliberate
//! departure from the paper's DBMS-X nodes "sized at 256 bytes": it makes
//! the baseline about as small as a complete index of 16-byte entries can
//! be (≈ 16.1 bytes an entry bulk-loaded), so Hermit is compared against a
//! strong baseline.
//!
//! The same tree serves three roles in the system:
//!
//! * **baseline secondary index** — key = target column value, value = tid;
//! * **host index** — key = host column value, value = tid (what Hermit
//!   probes after the TRS-Tree hop);
//! * **composite index** — key = a `(leading, value)` pair, value = tid
//!   (the box scans of §3's multi-column case, baseline or as a composite
//!   Hermit index's host).
//!
//! The primary index (primary key → row location, which resolves logical
//! tids) is not this tree but [`HashPrimaryIndex`]: point-only access is a
//! hash map's sweet spot, and over a paged heap it keeps runs of
//! consecutive keys in consecutive slots, with the keys that break them in
//! the hash.
#![warn(clippy::allow_attributes_without_reason)]

pub mod hash_index;
mod node;
pub mod tree;

pub use hash_index::HashPrimaryIndex;
pub use tree::BPlusTree;
