//! Secondary-index kinds managed by a [`crate::Database`], and the key
//! that names each of them in its one registry.
//!
//! Every kind is shareable across threads (the concurrent serving layer of
//! [`crate::shared`]): a baseline B+-tree sits behind a coarse
//! `parking_lot::RwLock` — point/range maintenance takes the write side
//! briefly, probes take the read side — while a Hermit index uses
//! [`ConcurrentTrsTree`], the Appendix-B wrapper whose writers divert to a
//! side buffer during background reorganization.

use crate::composite::CompositeKey;
use crate::latches::{Held, Index, LatchedRwLock};
use hermit_btree::BPlusTree;
use hermit_storage::{ColumnId, F64Key, Tid};
use hermit_trs::ConcurrentTrsTree;

/// The name of a secondary index: the column it indexes, behind an optional
/// leading column (§3's index on `(A, M)` has `leading = A`, `column = M`).
/// A single-column index is the case with no leading column.
///
/// The derived order puts every single-column index (`leading: None`)
/// first, by column, then the composites by `(leading, column)`: the order
/// in which DML maintains them and the catalog lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexKey {
    /// Leading column of a composite index; `None` for a single column.
    pub leading: Option<ColumnId>,
    /// The indexed column: a baseline's key, a Hermit index's target.
    pub column: ColumnId,
}

impl IndexKey {
    /// The key of a single-column index on `column`.
    pub const fn single(column: ColumnId) -> Self {
        IndexKey { leading: None, column }
    }

    /// The key of a composite index on `(leading, column)`.
    pub const fn composite(leading: ColumnId, column: ColumnId) -> Self {
        IndexKey { leading: Some(leading), column }
    }

    /// The key of the baseline index a Hermit index at this key routes
    /// through: the same leading column, on `host`.
    pub const fn host(self, host: ColumnId) -> Self {
        IndexKey { leading: self.leading, column: host }
    }
}

/// A secondary index: a complete baseline B+-tree on one column or on two,
/// or a succinct Hermit TRS-Tree routed through a host column's baseline.
pub enum SecondaryIndex {
    /// Conventional complete index on one column: value → tid, behind a
    /// coarse reader-writer latch.
    Baseline(LatchedRwLock<Index, BPlusTree<F64Key, Tid>>),
    /// Complete composite index on `(leading, column)`, keyed
    /// lexicographically, behind its own latch.
    Composite(LatchedRwLock<Index, BPlusTree<CompositeKey, Tid>>),
    /// Hermit index: a TRS-Tree modeling the target→host correlation, plus
    /// the host column whose baseline index — at the same leading column —
    /// serves the second hop. The tree carries its own Appendix-B latch +
    /// side buffer.
    Hermit {
        /// The succinct correlation structure.
        trs: ConcurrentTrsTree,
        /// Column whose complete index answers the translated ranges.
        host: ColumnId,
    },
}

impl SecondaryIndex {
    /// Wrap a built baseline tree.
    pub fn baseline(tree: BPlusTree<F64Key, Tid>) -> Self {
        SecondaryIndex::Baseline(LatchedRwLock::new(tree))
    }

    /// True for the Hermit variant.
    pub fn is_hermit(&self) -> bool {
        matches!(self, SecondaryIndex::Hermit { .. })
    }

    /// Host column id for Hermit indexes.
    pub fn host_column(&self) -> Option<ColumnId> {
        match self {
            SecondaryIndex::Hermit { host, .. } => Some(*host),
            SecondaryIndex::Baseline(_) | SecondaryIndex::Composite(_) => None,
        }
    }

    /// Heap bytes held by the index structure (takes the read latch).
    pub fn memory_bytes(&self) -> usize {
        match self {
            SecondaryIndex::Baseline(tree) => tree.read_at(&mut Held::unlocked()).memory_bytes(),
            SecondaryIndex::Composite(tree) => tree.read_at(&mut Held::unlocked()).memory_bytes(),
            SecondaryIndex::Hermit { trs, .. } => trs.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_trs::{TrsParams, TrsTree};

    #[test]
    fn kind_accessors() {
        let baseline = SecondaryIndex::baseline(BPlusTree::new());
        assert!(!baseline.is_hermit());
        assert_eq!(baseline.host_column(), None);

        let trs = TrsTree::build(TrsParams::default(), (0.0, 1.0), vec![]);
        let hermit = SecondaryIndex::Hermit { trs: ConcurrentTrsTree::new(trs), host: 3 };
        assert!(hermit.is_hermit());
        assert_eq!(hermit.host_column(), Some(3));
        assert!(hermit.memory_bytes() > 0);
    }

    #[test]
    fn single_column_keys_sort_first_and_a_host_keeps_the_leading_column() {
        let mut keys = [
            IndexKey::composite(0, 1),
            IndexKey::single(5),
            IndexKey::composite(0, 0),
            IndexKey::single(2),
        ];
        keys.sort();
        assert_eq!(
            keys,
            [
                IndexKey::single(2),
                IndexKey::single(5),
                IndexKey::composite(0, 0),
                IndexKey::composite(0, 1)
            ]
        );
        assert_eq!(IndexKey::composite(0, 2).host(1), IndexKey::composite(0, 1));
        assert_eq!(IndexKey::single(2).host(1), IndexKey::single(1));
    }
}
