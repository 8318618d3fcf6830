//! Structure reorganization (§4.4 of the paper): the primitives.
//!
//! Reorganization re-optimizes the tree against the *current* data: the
//! worker re-scans the affected target range from a [`PairSource`] (the
//! base table), rebuilds that subtree with the normal construction
//! algorithm, and installs the new nodes in place. Two flavors:
//!
//! * **Split** — a leaf whose outlier buffer grew past the trigger is
//!   rebuilt; construction will split it as deeply as the data demands.
//! * **Merge** — a subtree that suffered heavy deletion is rebuilt from its
//!   root; if the surviving data fits one model, the subtree collapses back
//!   to a single leaf.
//!
//! This module holds the steps — [`TrsTree::replacement_spec`],
//! [`ReplacementSpec::build`], [`TrsTree::graft_subtree`] — and arena
//! compaction. The one driver that sequences them, several candidate nodes
//! per pass, is [`crate::ConcurrentTrsTree`]'s Appendix-B protocol.

use crate::maintain::ReorgCandidate;
use crate::node::{NodeId, NodeKind, TrsTree};
use crate::PairSource;

/// Everything an *offline* rebuild of one subtree needs, snapshotted under
/// a read latch: the node's range and the depth-adjusted parameters.
/// [`ReplacementSpec::build`] then scans and constructs the
/// replacement without any tree latch held, and
/// [`TrsTree::graft_subtree`] installs it under the coarse write latch —
/// the Appendix-B "build off-line, install briefly" split.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementSpec {
    /// The arena slot the replacement will be grafted into.
    pub node: NodeId,
    range: crate::node::ValueRange,
    sub_params: crate::TrsParams,
    /// The node covers the tree's lower/upper domain boundary. An edge
    /// node is where `traverse` clamps out-of-domain keys, so its buffers
    /// may hold tuples *outside* `range` — the rebuild scan must look past
    /// the boundary or the graft silently drops them (permanent false
    /// negatives; every tuple inserted beyond the built domain would
    /// vanish from the index on the first reorganization of that edge).
    at_lower_edge: bool,
    at_upper_edge: bool,
}

impl ReplacementSpec {
    /// Scan the affected range from `source` and build the replacement
    /// subtree. No latch is required; this is the expensive part. A failed
    /// scan is the source's error: there is no replacement to install.
    ///
    /// For an edge node the scan is open-ended on the boundary side(s)
    /// and the replacement's range widens to hug the data actually found,
    /// so out-of-domain tuples become modeled (or properly buffered)
    /// members of the new subtree instead of being lost.
    pub fn build(&self, source: &dyn PairSource) -> hermit_storage::Result<TrsTree> {
        let scan_lb = if self.at_lower_edge { f64::NEG_INFINITY } else { self.range.lb };
        let scan_ub = if self.at_upper_edge { f64::INFINITY } else { self.range.ub };
        let pairs = source.scan_range(scan_lb, scan_ub)?;
        let mut lb = self.range.lb;
        let mut ub = self.range.ub;
        for (m, _, _) in &pairs {
            lb = lb.min(*m);
            ub = ub.max(*m);
        }
        Ok(TrsTree::build(self.sub_params, (lb, ub), pairs))
    }

    /// The range the replacement was built for (install-time validity
    /// check).
    pub fn range(&self) -> (f64, f64) {
        (self.range.lb, self.range.ub)
    }
}

impl TrsTree {
    /// Snapshot what an offline rebuild of `node` needs (cheap; call under
    /// a read latch).
    ///
    /// Depth budget for the rebuilt subtree: the node keeps its depth, so
    /// it may grow up to `max_height - depth + 1` levels below itself.
    pub fn replacement_spec(&self, node: NodeId) -> ReplacementSpec {
        let range = self.node(node).range;
        let root_range = self.node(self.root).range;
        let depth = self.depth_of(node);
        let mut sub_params = self.params;
        sub_params.max_height = (self.params.max_height + 1).saturating_sub(depth).max(1);
        ReplacementSpec {
            node,
            range,
            sub_params,
            at_lower_edge: range.lb <= root_range.lb,
            at_upper_edge: range.ub >= root_range.ub,
        }
    }

    /// Install a replacement subtree into `node`'s slot (the brief
    /// write-latched step). The node id is preserved, so parents need no
    /// update.
    ///
    /// Old subtree nodes become garbage in the arena; `compact` reclaims
    /// them.
    pub fn graft_subtree(&mut self, node: NodeId, sub: TrsTree) {
        // Append the sub-arena, then swap the sub-root into the old slot. A
        // grafted router's child ids stay valid: they point into the
        // appended region.
        let sub_root = self.append_subtree(sub);
        self.arena.swap(node as usize, sub_root as usize);
    }

    fn depth_of(&self, node: NodeId) -> usize {
        // Walk from the root toward the node's range midpoint, counting
        // levels until we hit it. Falls back to 1 for stale ids.
        let target = self.node(node).range;
        let probe = (target.lb + target.ub) / 2.0;
        let mut id = self.root;
        let mut depth = 1;
        loop {
            if id == node {
                return depth;
            }
            match &self.node(id).kind {
                NodeKind::Leaf(_) => return depth,
                NodeKind::Internal { children } => {
                    let n = self.node(id);
                    let k = children.len();
                    let w = n.range.width();
                    let idx = if w <= 0.0 {
                        0
                    } else {
                        (((probe - n.range.lb) / w * k as f64) as isize).clamp(0, k as isize - 1)
                            as usize
                    };
                    id = children[idx];
                    depth += 1;
                }
            }
        }
    }

    /// Compact the arena after reorganizations left garbage nodes behind:
    /// rebuilds the arena containing only nodes reachable from the root.
    /// Memory accounting calls this implicitly via [`Self::compacted_memory_bytes`].
    ///
    /// Queued reorganization candidates are remapped to the compacted node
    /// ids; candidates whose node became garbage are dropped. (Without the
    /// remap a queued candidate would silently point at whichever node
    /// landed in its old arena slot.)
    pub fn compact(&mut self) {
        let mut new_arena = Vec::with_capacity(self.arena.len());
        let mut remap: Vec<Option<NodeId>> = vec![None; self.arena.len()];
        let root = self.root;
        let new_root = self.copy_reachable(root, &mut new_arena, &mut remap);
        self.arena = new_arena;
        self.root = new_root;
        self.reorg_queue = self
            .reorg_queue
            .drain(..)
            .filter_map(|cand| {
                let node = *remap.get(cand.node as usize)?;
                node.map(|node| ReorgCandidate { node, ..cand })
            })
            .collect();
    }

    fn copy_reachable(
        &self,
        id: NodeId,
        out: &mut Vec<crate::node::Node>,
        remap: &mut [Option<NodeId>],
    ) -> NodeId {
        let node = self.node(id).clone();
        let new_id = match node.kind {
            NodeKind::Leaf(_) => {
                out.push(node);
                (out.len() - 1) as NodeId
            }
            NodeKind::Internal { children } => {
                let new_children: Vec<NodeId> =
                    children.iter().map(|&c| self.copy_reachable(c, out, remap)).collect();
                out.push(crate::node::Node {
                    range: node.range,
                    kind: NodeKind::Internal { children: new_children },
                });
                (out.len() - 1) as NodeId
            }
        };
        remap[id as usize] = Some(new_id);
        new_id
    }

    /// Memory after compaction — what a long-running instance would report
    /// once garbage from past reorganizations is reclaimed.
    pub fn compacted_memory_bytes(&mut self) -> usize {
        self.compact();
        self.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::ReorgKind;
    use crate::params::TrsParams;
    use crate::{ConcurrentTrsTree, VecPairSource};
    use hermit_storage::Tid;

    fn sigmoid_pairs(n: usize) -> Vec<(f64, f64, Tid)> {
        (0..n)
            .map(|i| {
                let m = i as f64 / n as f64 * 20.0 - 10.0;
                (m, 1000.0 / (1.0 + (-m).exp()), Tid(i as u64))
            })
            .collect()
    }

    /// Run `reorganize` on `tree` through the Appendix-B driver, then hand
    /// the tree back compacted and checked.
    fn reorganized(tree: TrsTree, reorganize: impl FnOnce(&ConcurrentTrsTree)) -> TrsTree {
        let online = ConcurrentTrsTree::new(tree);
        reorganize(&online);
        let mut tree = online.into_inner();
        tree.compact();
        tree.check_invariants().unwrap();
        tree
    }

    #[test]
    fn split_reorg_absorbs_outlier_flood() {
        // Start with a linear tree, then shift the data distribution in one
        // region so the old model no longer fits.
        let mut pairs: Vec<(f64, f64, Tid)> =
            (0..10_000).map(|i| (i as f64, i as f64, Tid(i as u64))).collect();
        let mut tree = TrsTree::build(TrsParams::default(), (0.0, 9_999.0), pairs.clone());
        assert_eq!(tree.stats().leaves, 1);

        // New regime: values in [3000, 7000] now map to 3m + 500.
        for p in pairs.iter_mut() {
            if p.0 >= 3_000.0 && p.0 <= 7_000.0 {
                p.1 = 3.0 * p.0 + 500.0;
            }
        }
        for p in &pairs {
            if p.0 >= 3_000.0 && p.0 <= 7_000.0 {
                tree.insert(p.0, p.1, p.2);
            }
        }
        let outliers_before = tree.stats().outliers;
        assert!(outliers_before > 1_000, "regime change should flood buffers");
        assert!(tree.reorg_queue_len() > 0);

        let source = VecPairSource(pairs);
        let tree = reorganized(tree, |t| assert!(t.reorganize_pass(&source, 10) >= 1));
        let outliers_after = tree.stats().outliers;
        assert!(
            outliers_after < outliers_before / 5,
            "reorg should drain buffers: {outliers_before} -> {outliers_after}"
        );
        // Lookups still correct under the new regime.
        let r = tree.lookup_point(5_000.0);
        let truth = 3.0 * 5_000.0 + 500.0;
        let covered = r.ranges.iter().any(|(lo, hi)| truth >= *lo && truth <= *hi)
            || r.tids.contains(&Tid(5_000));
        assert!(covered, "post-reorg lookup lost the tuple");
    }

    #[test]
    fn merge_reorg_shrinks_tree_after_deletes() {
        let pairs = sigmoid_pairs(40_000);
        let mut tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        let leaves_before = tree.stats().leaves;
        assert!(leaves_before > 2);

        // Delete the steep middle of the sigmoid; the survivors are the
        // two flat tails, which fit far fewer models.
        let surviving: Vec<(f64, f64, Tid)> =
            pairs.iter().copied().filter(|(m, _, _)| *m < -3.0 || *m > 3.0).collect();
        for (m, _, tid) in pairs.iter().filter(|(m, _, _)| *m >= -3.0 && *m <= 3.0) {
            tree.delete(*m, *tid);
        }
        let source = VecPairSource(surviving);
        let tree = reorganized(tree, |t| {
            t.reorganize_pass(&source, 64);
        });
        assert!(
            tree.stats().leaves < leaves_before,
            "merge should shrink: {} -> {}",
            leaves_before,
            tree.stats().leaves
        );
    }

    #[test]
    fn full_rebuild_resets_structure() {
        let pairs = sigmoid_pairs(30_000);
        let mut tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        for i in 0..5_000u64 {
            tree.insert(0.0, 1.0e9, Tid(100_000 + i));
        }
        assert!(tree.stats().outliers >= 5_000);
        let tree = reorganized(tree, |t| assert!(t.rebuild(&VecPairSource(pairs))));
        // Fresh sigmoid data may legitimately keep a few build-time
        // outliers (< outlier_ratio per leaf); the injected flood is gone.
        assert!(
            tree.stats().outliers < 300,
            "rebuild should drop injected outliers, kept {}",
            tree.stats().outliers
        );
        assert_eq!(tree.reorg_queue_len(), 0);
    }

    #[test]
    fn first_level_subtree_reorg() {
        let pairs = sigmoid_pairs(30_000);
        let tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        assert!(tree.stats().internals > 0);
        let source = VecPairSource(pairs);
        reorganized(tree, |t| {
            for i in 0..8 {
                assert!(t.reorganize_first_level_subtree(i, &source));
            }
        });
        // Single-leaf tree: partial reorg is a no-op.
        let flat = TrsTree::build(TrsParams::default(), (0.0, 9.0), vec![(1.0, 1.0, Tid(0))]);
        reorganized(flat, |t| assert!(!t.reorganize_first_level_subtree(0, &source)));
    }

    #[test]
    fn compact_reclaims_garbage() {
        let pairs = sigmoid_pairs(30_000);
        let tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        let source = VecPairSource(pairs);
        let before_nodes = tree.arena.len();
        let online = ConcurrentTrsTree::new(tree);
        for i in 0..8 {
            online.reorganize_first_level_subtree(i, &source);
        }
        let mut tree = online.into_inner();
        assert!(tree.arena.len() > before_nodes, "reorg leaves garbage");
        tree.compact();
        tree.check_invariants().unwrap();
        let s = tree.stats();
        assert_eq!(tree.arena.len(), s.leaves + s.internals);
    }

    #[test]
    fn edge_reorg_keeps_out_of_domain_tuples() {
        // Regression: tuples inserted beyond the built domain clamp into
        // an edge leaf's buffer. Reorganizing that leaf used to scan only
        // its recorded range, so the rebuilt subtree dropped every
        // out-of-domain tuple — they became permanently unreachable.
        let mut pairs: Vec<(f64, f64, Tid)> =
            (0..1_000).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        let mut tree = TrsTree::build(TrsParams::default(), (0.0, 999.0), pairs.clone());
        // Grow the domain upward (and a little downward) past the edges.
        for i in 0..2_000i64 {
            let m = 100_000.0 + i as f64;
            tree.insert(m, 2.0 * m, Tid(10_000 + i as u64));
            pairs.push((m, 2.0 * m, Tid(10_000 + i as u64)));
        }
        tree.insert(-50.0, -100.0, Tid(99_999));
        pairs.push((-50.0, -100.0, Tid(99_999)));
        assert!(tree.reorg_queue_len() > 0, "the flood must queue a split");

        let source = VecPairSource(pairs);
        let tree = reorganized(tree, |t| {
            t.reorganize_pass(&source, 16);
        });

        // Every out-of-domain tuple is still reachable: either a model
        // band over its new home covers the true host value, or the tuple
        // rode along as a buffered outlier.
        for probe in [(100_000.0, Tid(10_000)), (101_999.0, Tid(11_999)), (-50.0, Tid(99_999))] {
            let r = tree.lookup_point(probe.0);
            let truth = if probe.0 < 0.0 { -100.0 } else { 2.0 * probe.0 };
            let covered = r.ranges.iter().any(|(lo, hi)| truth >= *lo && truth <= *hi)
                || r.tids.contains(&probe.1);
            assert!(covered, "tuple at {} lost by edge reorganization", probe.0);
        }
        // And the in-domain originals are intact too.
        let r = tree.lookup_point(500.0);
        assert!(r.ranges.iter().any(|(lo, hi)| 1_000.0 >= *lo && 1_000.0 <= *hi));
    }

    #[test]
    fn stale_candidates_are_skipped() {
        let mut tree = TrsTree::build(
            TrsParams::default(),
            (0.0, 999.0),
            (0..1000).map(|i| (i as f64, i as f64, Tid(i))).collect(),
        );
        // Manually enqueue a merge candidate pointing at a leaf (invalid).
        tree.reorg_queue.push_back(ReorgCandidate { node: tree.root(), kind: ReorgKind::Merge });
        let tree = reorganized(tree, |t| {
            assert_eq!(t.reorganize_pass(&VecPairSource(vec![]), 10), 0);
        });
        assert_eq!(tree.reorg_queue_len(), 0, "a stale candidate is dropped, not requeued");
    }
}
