//! Secondary-index kinds managed by a [`crate::Database`].
//!
//! Both kinds are shareable across threads (the concurrent serving layer of
//! [`crate::shared`]): a baseline B+-tree sits behind a coarse
//! `parking_lot::RwLock` — point/range maintenance takes the write side
//! briefly, probes take the read side — while a Hermit index uses
//! [`ConcurrentTrsTree`], the Appendix-B wrapper whose writers divert to a
//! side buffer during background reorganization.

use crate::latches::{Held, Index, LatchedRwLock};
use hermit_btree::BPlusTree;
use hermit_storage::{ColumnId, F64Key, Tid};
use hermit_trs::ConcurrentTrsTree;

/// A secondary index on one column: either a complete baseline B+-tree or a
/// succinct Hermit TRS-Tree routed through a host column.
pub enum SecondaryIndex {
    /// Conventional complete index: target value → tid, behind a coarse
    /// reader-writer latch.
    Baseline(LatchedRwLock<Index, BPlusTree<F64Key, Tid>>),
    /// Hermit index: a TRS-Tree modeling the target→host correlation, plus
    /// the host column whose baseline index serves the second hop. The tree
    /// carries its own Appendix-B latch + side buffer.
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
            SecondaryIndex::Baseline(_) => None,
        }
    }

    /// Heap bytes held by the index structure (takes the read latch).
    pub fn memory_bytes(&self) -> usize {
        match self {
            SecondaryIndex::Baseline(tree) => tree.read_at(&mut Held::unlocked()).memory_bytes(),
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
}
