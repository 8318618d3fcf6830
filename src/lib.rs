//! # hermit
//!
//! Facade crate for the Hermit reproduction: re-exports the public API of
//! every sub-crate so examples and downstream users need a single
//! dependency.
//!
//! Hermit ("Designing Succinct Secondary Indexing Mechanism by Exploiting
//! Column Correlations", SIGMOD 2019) answers secondary-index queries on a
//! *target* column through a tiny ML-enhanced structure — the TRS-Tree —
//! that models the correlation between the target column and a *host* column
//! that already has a complete index.
//!
//! See the `examples/` directory for end-to-end usage.
#![warn(clippy::allow_attributes_without_reason)]

pub use hermit_btree as btree;
pub use hermit_core as core;
pub use hermit_fault as fault;
pub use hermit_server as server;
pub use hermit_stats as stats;
pub use hermit_storage as storage;
pub use hermit_trs as trs;
pub use hermit_txn as txn;
pub use hermit_workloads as workloads;
