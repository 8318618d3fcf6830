//! Runtime maintenance — Algorithm 3 of the paper plus reorg detection.
//!
//! Inserts and deletes touch at most one leaf: an insert checks the leaf's
//! model band and buffers the tuple as an outlier only when uncovered; a
//! delete removes a matching outlier entry if present (tuples covered by
//! the model need no index change — base-table validation filters them).
//! Updates are delete + insert.
//!
//! Both operations piggyback *reorganization detection* (§4.4): when a
//! leaf's outlier share or delete share crosses its trigger ratio, a
//! candidate is pushed onto the tree's FIFO reorg queue for the background
//! worker (see [`crate::reorg`] and [`crate::concurrent`]).

use crate::node::{NodeId, NodeKind, TrsTree};
use hermit_storage::Tid;

/// Why a node was queued for reorganization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorgKind {
    /// Outlier buffer exceeded the split trigger: split the leaf.
    Split,
    /// Deletions exceeded the merge trigger: consider merging the leaf's
    /// parent subtree.
    Merge,
}

/// A queued reorganization candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorgCandidate {
    /// The node to reorganize: the leaf itself for splits, the leaf's
    /// *parent* for merges (per §4.4, delete ops enqueue the parent).
    pub node: NodeId,
    /// Split or merge.
    pub kind: ReorgKind,
}

impl TrsTree {
    /// Insert a tuple (Algorithm 3, `Insert`).
    ///
    /// Returns `true` if the tuple landed in an outlier buffer, `false` if
    /// the leaf model already covers it (no structural change needed).
    pub fn insert(&mut self, m: f64, n: f64, tid: Tid) -> bool {
        let leaf_id = self.traverse(m);
        let params = self.params;
        let (buffered, candidate) = {
            let node = self.node_mut(leaf_id);
            // A key outside the leaf's range (traverse clamps out-of-domain
            // keys to the edge leaves) must be buffered even when the
            // model's *extrapolation* happens to cover it: lookups only
            // evaluate the band over the leaf's own range, so a
            // model-"covered" out-of-range tuple would be permanently
            // unreachable — a silent false negative.
            let in_range = node.range.contains(m);
            let NodeKind::Leaf(leaf) = &mut node.kind else { unreachable!() };
            leaf.covered += 1;
            let buffered = if !in_range || !leaf.covers(m, n) {
                leaf.outliers.add(m, tid);
                true
            } else {
                false
            };
            // Detection offloaded to the operation (§4.4): queue a split
            // when the buffer share crosses the trigger.
            let candidate = buffered && leaf.wants_split(&params);
            (buffered, candidate)
        };
        if candidate {
            self.enqueue_reorg(ReorgCandidate { node: leaf_id, kind: ReorgKind::Split });
        }
        buffered
    }

    /// Delete a tuple (Algorithm 3, `Delete`).
    ///
    /// Removes the tuple's outlier entry if it has one; model-covered
    /// tuples need no index change. Returns `true` if an outlier entry was
    /// removed.
    pub fn delete(&mut self, m: f64, tid: Tid) -> bool {
        let leaf_id = self.traverse(m);
        let params = self.params;
        let (removed, candidate) = {
            let node = self.node_mut(leaf_id);
            let NodeKind::Leaf(leaf) = &mut node.kind else { unreachable!() };
            let removed = leaf.outliers.remove(m, tid);
            leaf.deletes += 1;
            leaf.covered = leaf.covered.saturating_sub(1);
            let candidate = leaf.wants_merge(&params);
            (removed, candidate)
        };
        if candidate {
            // Delete ops enqueue the *parent* of the visited leaf (§4.4).
            if let Some(parent) = self.parent_of(leaf_id) {
                self.enqueue_reorg(ReorgCandidate { node: parent, kind: ReorgKind::Merge });
            }
        }
        removed
    }

    /// Find the parent of `node` by walking from the root (the arena stores
    /// no parent pointers; maintenance is rare enough that an O(height)
    /// walk is fine).
    pub(crate) fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        if node == self.root {
            return None;
        }
        let target_range = self.node(node).range;
        let probe = (target_range.lb + target_range.ub) / 2.0;
        let mut id = self.root;
        loop {
            let n = self.node(id);
            match &n.kind {
                NodeKind::Leaf(_) => return None,
                NodeKind::Internal { children } => {
                    if children.contains(&node) {
                        return Some(id);
                    }
                    let k = children.len();
                    let w = n.range.width();
                    let idx = if w <= 0.0 {
                        0
                    } else {
                        (((probe - n.range.lb) / w * k as f64) as isize).clamp(0, k as isize - 1)
                            as usize
                    };
                    id = children[idx];
                }
            }
        }
    }

    pub(crate) fn enqueue_reorg(&mut self, cand: ReorgCandidate) {
        // De-duplicate: a hot leaf would otherwise flood the queue.
        if !self.reorg_queue.contains(&cand) {
            self.reorg_queue.push_back(cand);
        }
    }

    /// Pop the next queued reorganization candidate.
    pub fn next_reorg_candidate(&mut self) -> Option<ReorgCandidate> {
        self.reorg_queue.pop_front()
    }

    /// Number of queued reorganization candidates.
    pub fn reorg_queue_len(&self) -> usize {
        self.reorg_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TrsParams;

    fn linear_tree(n: usize) -> TrsTree {
        let pairs: Vec<(f64, f64, Tid)> =
            (0..n).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        TrsTree::build(TrsParams::default(), (0.0, (n - 1) as f64), pairs)
    }

    #[test]
    fn covered_insert_is_free() {
        let mut tree = linear_tree(10_000);
        let before = tree.stats().outliers;
        // A perfectly on-model tuple: host = 2 * target.
        let buffered = tree.insert(500.5, 1001.0, Tid(999_999));
        assert!(!buffered, "on-model insert must not buffer");
        assert_eq!(tree.stats().outliers, before);
    }

    #[test]
    fn uncovered_insert_buffers_outlier() {
        let mut tree = linear_tree(10_000);
        let buffered = tree.insert(500.0, 123_456.0, Tid(999_999));
        assert!(buffered);
        let result = tree.lookup_point(500.0);
        assert!(result.tids.contains(&Tid(999_999)));
    }

    #[test]
    fn delete_removes_outlier_entry() {
        let mut tree = linear_tree(10_000);
        tree.insert(500.0, 123_456.0, Tid(42));
        assert!(tree.delete(500.0, Tid(42)));
        assert!(!tree.delete(500.0, Tid(42)), "double delete");
        assert!(!tree.lookup_point(500.0).tids.contains(&Tid(42)));
    }

    #[test]
    fn delete_of_covered_tuple_is_noop_on_structure() {
        let mut tree = linear_tree(10_000);
        // Tuple 100 is model-covered; deleting it touches no buffer.
        assert!(!tree.delete(100.0, Tid(100)));
    }

    /// An update is a delete at the old home and an insert at the new.
    #[test]
    fn update_moves_tuple() {
        let mut tree = linear_tree(10_000);
        tree.insert(500.0, 9.9e6, Tid(7)); // outlier at 500
        tree.delete(500.0, Tid(7));
        tree.insert(800.0, 8.8e6, Tid(7)); // still an outlier, new home
        assert!(!tree.lookup_point(500.0).tids.contains(&Tid(7)));
        assert!(tree.lookup_point(800.0).tids.contains(&Tid(7)));
    }

    #[test]
    fn outlier_flood_queues_split_candidate() {
        let mut tree = linear_tree(1_000);
        assert_eq!(tree.reorg_queue_len(), 0);
        // Flood one leaf with off-model tuples.
        for i in 0..2_000u64 {
            tree.insert(500.0, -1.0e9, Tid(1_000_000 + i));
        }
        assert!(tree.reorg_queue_len() > 0, "split candidate expected");
        let cand = tree.next_reorg_candidate().unwrap();
        assert_eq!(cand.kind, ReorgKind::Split);
        assert!(tree.node(cand.node).is_leaf());
    }

    #[test]
    fn delete_flood_queues_merge_candidate_at_parent() {
        // Build a tree that actually has internal nodes.
        let pairs: Vec<(f64, f64, Tid)> = (0..30_000)
            .map(|i| {
                let m = i as f64 / 30_000.0 * 20.0 - 10.0;
                (m, 1000.0 / (1.0 + (-m).exp()), Tid(i as u64))
            })
            .collect();
        let mut tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs);
        assert!(tree.stats().internals > 0, "need a multi-level tree");
        for i in 0..20_000u64 {
            tree.delete(0.5, Tid(i));
        }
        let mut saw_merge = false;
        while let Some(cand) = tree.next_reorg_candidate() {
            if cand.kind == ReorgKind::Merge {
                saw_merge = true;
                assert!(!tree.node(cand.node).is_leaf(), "merge targets the parent");
            }
        }
        assert!(saw_merge, "merge candidate expected after delete flood");
    }

    #[test]
    fn out_of_domain_insert_is_buffered_and_findable() {
        // Regression: a key past the root range clamps to an edge leaf,
        // and the edge model's *extrapolation* can happen to cover the
        // tuple (host = 2·target here, linear everywhere). It used to be
        // accepted as model-covered and silently lost — lookups never
        // extend the band beyond the leaf range, so nothing could ever
        // find it again.
        let mut tree = linear_tree(4_000);
        assert!(
            tree.insert(5_000.0, 10_000.0, Tid(1)),
            "out-of-domain insert must be buffered even when the model extrapolates over it"
        );
        assert!(tree.insert(-100.0, -200.0, Tid(2)), "below-domain insert too");
        assert_eq!(tree.lookup_point(5_000.0).tids, vec![Tid(1)]);
        assert_eq!(tree.lookup_point(-100.0).tids, vec![Tid(2)]);
        // Range lookups straddling the domain edge find them as well.
        assert!(tree.lookup(4_500.0, 6_000.0).tids.contains(&Tid(1)));
        assert!(tree.lookup(-150.0, 10.0).tids.contains(&Tid(2)));
        // And the tombstone path can reach them.
        assert!(tree.delete(5_000.0, Tid(1)));
        assert!(tree.lookup_point(5_000.0).tids.is_empty());
        // In-domain on-model inserts are still free.
        assert!(!tree.insert(500.5, 1_001.0, Tid(3)));
    }

    #[test]
    fn queue_deduplicates() {
        let mut tree = linear_tree(100);
        for i in 0..10_000u64 {
            tree.insert(50.0, 1.0e12, Tid(i));
        }
        assert!(
            tree.reorg_queue_len() <= 2,
            "queue should de-duplicate, len = {}",
            tree.reorg_queue_len()
        );
    }

    #[test]
    fn parent_of_root_is_none() {
        let tree = linear_tree(100);
        assert_eq!(tree.parent_of(tree.root()), None);
    }
}
