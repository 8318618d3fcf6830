//! # hermit-core
//!
//! The **Hermit** secondary-indexing mechanism (§3/§5 of the paper), tying
//! together the storage engine, the B+-tree substrate, and the TRS-Tree.
//!
//! A [`Database`] owns one paged table, a primary index, and
//! a set of secondary indexes. Each secondary index is either:
//!
//! * a **baseline** index — a complete B+-tree on the column (what a
//!   conventional RDBMS builds), or
//! * a **Hermit** index — a succinct TRS-Tree that routes queries to a
//!   *host* column's existing baseline index.
//!
//! Lookups on a Hermit-indexed column run the paper's three-phase pipeline
//! (Fig. 3): TRS-Tree search → host-index search (→ optional primary-index
//! resolution under logical pointers) → base-table validation, with
//! per-phase wall-clock accounting so the breakdown figures (10/11/14/15/24)
//! can be regenerated.
//!
//! [`correlation`] implements the discovery workflow of Appendix D.1:
//! screen candidate (target, host) pairs with Pearson/Spearman coefficients
//! over a sample and recommend a host column whose index already exists.
#![warn(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use, clippy::unused_result_ok))]

//! [`recovery`] makes a file-backed database restart-survivable:
//! [`Database::checkpoint`] / [`Database::open`] pair a durable page flush
//! and per-index TRS-Tree snapshots with an atomically-written catalog and
//! a CRC-framed write-ahead log for the DML tail (§6 / §7.8).
//!
//! [`query`] and [`plan`] form the unified query surface: a declarative
//! [`Query`] of arbitrary conjuncts is turned into an inspectable, costed
//! [`QueryPlan`] (EXPLAIN via `Display`) choosing among the indexes of one
//! registry — each a baseline or Hermit index on one column or, behind a
//! leading column, on two ([`IndexKey`]) — or a sequential-scan fallback.
//! [`Database::execute`] and [`Database::execute_batch`] run plans through
//! one pipeline ([`batch`]): a single query is a batch of one. A projection
//! comes back as a [`RowBlock`] written during base-table validation
//! ([`rows`]).
//!
//! [`txn`] adds multi-statement transactions on top: snapshot-isolation
//! reads, first-writer-wins write locks, WAL commit records, and loser
//! rollback on recovery ([`Database::begin`] / [`Database::commit`] /
//! [`Database::rollback`]).

pub mod batch;
pub mod breakdown;
pub mod composite;
pub mod correlation;
pub mod database;
pub mod error;
pub mod executor;
pub mod index;
pub mod latches;
pub mod metrics;
pub mod plan;
pub mod query;
pub mod recovery;
pub mod rows;
pub mod shared;
#[cfg(test)]
mod table;
pub mod txn;

pub use batch::BatchOptions;
pub use breakdown::{InsertBreakdown, LookupBreakdown, Phase};
pub use composite::CompositeKey;
pub use correlation::{discover_correlations, CorrelationReport, DiscoveryConfig};
pub use database::{Database, MemoryReport, PoolIoCounters, IN_MEMORY_POOL_PAGES};
pub use error::CoreError;
pub use executor::{QueryResult, RangePredicate};
pub use hermit_txn::{TxnCounters, TxnError};
pub use index::{IndexKey, SecondaryIndex};
pub use metrics::{LatencyHistogram, PlanLatencies};
pub use plan::{AccessPath, PlanKind, QueryPlan};
pub use query::Query;
pub use recovery::DurabilityConfig;
pub use rows::RowBlock;
pub use shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
