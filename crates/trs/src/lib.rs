//! # hermit-trs
//!
//! The **Tiered Regression Search Tree** (TRS-Tree), the core data structure
//! of Hermit (§4 of the paper).
//!
//! A TRS-Tree models the correlation between a *target* column `M` and a
//! *host* column `N` of the same table. It is a k-ary tree over `M`'s value
//! domain: construction recursively divides the domain into `node_fanout`
//! equal-width sub-ranges until each sub-range's `(m, n)` pairs are well
//! covered by a simple linear model `n = β·m + α ± ε` (Algorithm 1). Pairs
//! the model cannot cover are kept in a per-leaf *outlier buffer* that maps
//! target values directly to tuple identifiers.
//!
//! A lookup (Algorithm 2) translates a target-range predicate into (a) a
//! unioned set of host-column ranges via the leaf models, and (b) the
//! outlier tuple ids — Hermit then probes the host index with (a) and
//! validates everything against the base table.
//!
//! The tree is *dynamic*: inserts and deletes are O(height) (Algorithm 3),
//! and background *structure reorganization* re-splits leaves whose outlier
//! buffers grow too large and re-merges subtrees after heavy deletion
//! (§4.4, Appendix B). [`concurrent::ConcurrentTrsTree`] implements the
//! paper's coarse-latch + side-buffer protocol for online reorganization.
//!
//! Module map:
//!
//! * [`params`] — `node_fanout`, `max_height`, `outlier_ratio`,
//!   `error_bound` (§4.5) and the reorganization triggers.
//! * [`node`] — arena nodes, leaf models, outlier buffers (hash or
//!   sorted-vec layout).
//! * [`build`] — Algorithm 1, including the sampling-based pre-check
//!   (Appendix D.2) and multi-threaded construction.
//! * [`lookup`] — Algorithm 2.
//! * [`maintain`] — Algorithm 3 plus reorg-candidate detection.
//! * [`reorg`] — split/merge/batch reorganization against a [`PairSource`].
//! * [`concurrent`] — the Appendix B online-reorganization wrapper.
#![warn(clippy::allow_attributes_without_reason)]

pub mod build;
pub mod concurrent;
pub mod lookup;
pub mod maintain;
pub mod node;
pub mod params;
pub mod persist;
pub mod reorg;

pub use build::build_parallel;
pub use concurrent::ConcurrentTrsTree;
pub use lookup::{LookupScratch, TrsLookup};
pub use node::{OutlierBufferKind, TrsTree, TrsTreeStats};
pub use params::TrsParams;

use hermit_storage::Tid;

/// Source of `(target, host, tid)` pairs for construction and
/// reorganization.
///
/// Algorithm 1 projects the base table into a temporary two-column table;
/// reorganization re-scans only the value range being rebuilt. Implementors
/// wrap a storage-engine table (see `hermit-core`) or an in-memory vector
/// (tests, benchmarks).
pub trait PairSource {
    /// All live pairs whose *target* value lies in `[lb, ub]`.
    fn scan_range(&self, lb: f64, ub: f64) -> Vec<(f64, f64, Tid)>;
}

/// A [`PairSource`] over a plain slice of pairs (testing / benchmarking).
pub struct VecPairSource(pub Vec<(f64, f64, Tid)>);

impl PairSource for VecPairSource {
    fn scan_range(&self, lb: f64, ub: f64) -> Vec<(f64, f64, Tid)> {
        self.0.iter().filter(|(m, _, _)| *m >= lb && *m <= ub).copied().collect()
    }
}
