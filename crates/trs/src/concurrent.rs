//! Online structure reorganization — the Appendix B protocol.
//!
//! TRS-Tree deliberately avoids latch coupling: single-tuple operations
//! touch exactly one leaf and never cascade, and reorganization is rare and
//! fast, so a coarse-grained protocol suffices:
//!
//! 1. The background worker sets the *reorganizing* flag.
//! 2. While the flag is up, concurrent insert/delete/update operations
//!    append their modifications to a *temporal side buffer* instead of the
//!    tree (avoiding phantoms during the rebuild scan).
//! 3. The worker scans the affected range from the base table, builds the
//!    replacement nodes *off-line*, then takes the coarse tree latch,
//!    installs the nodes, replays the side buffer, and drops the flag.
//!
//! Lookups only ever see a consistent tree: they acquire the read side of
//! the same latch, which the worker holds exclusively only for the short
//! install-and-replay step. While the flag is up they also return the
//! side buffer's inserts, so a write acknowledged mid-reorganization is
//! found by the next lookup, not only after the replay.
//!
//! This wrapper is the only driver of reorganization: a queued split/merge
//! pass, one first-level subtree (§7.7) and a full rebuild differ only in
//! the nodes they pick, and all run the same private protocol body. A scan
//! that fails installs nothing and re-queues its candidate.

use crate::maintain::{ReorgCandidate, ReorgKind};
use crate::node::{NodeId, NodeKind, TrsTree};
use crate::{PairSource, TrsLookup};
use hermit_storage::Tid;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A buffered modification from the reorganization window.
#[derive(Debug, Clone, Copy)]
enum SideOp {
    Insert { m: f64, n: f64, tid: Tid },
    Delete { m: f64, tid: Tid },
}

/// The nodes one reorganization rebuilds; the protocol around them is the
/// same whichever is chosen.
#[derive(Debug, Clone, Copy)]
enum Targets {
    /// Up to this many queued split/merge candidates (the §4.4 pass).
    Queued(usize),
    /// The `i`-th first-level subtree (the §7.7 trace).
    FirstLevel(usize),
    /// The whole tree.
    Root,
}

/// Thread-safe TRS-Tree with online reorganization (Appendix B).
pub struct ConcurrentTrsTree {
    tree: RwLock<TrsTree>,
    reorganizing: AtomicBool,
    side_buffer: Mutex<Vec<SideOp>>,
    /// Number of reorganization passes completed (observability).
    reorg_passes: AtomicU64,
}

impl ConcurrentTrsTree {
    /// Wrap a built tree.
    pub fn new(tree: TrsTree) -> Self {
        ConcurrentTrsTree {
            tree: RwLock::new(tree),
            reorganizing: AtomicBool::new(false),
            side_buffer: Mutex::new(Vec::new()),
            reorg_passes: AtomicU64::new(0),
        }
    }

    /// Range lookup (Algorithm 2) under the read latch.
    pub fn lookup(&self, lb: f64, ub: f64) -> TrsLookup {
        let tree = self.tree.read();
        let mut out = tree.lookup(lb, ub);
        self.collect_diverted(lb, ub, &mut out.tids);
        out
    }

    /// Point lookup under the read latch.
    pub fn lookup_point(&self, m: f64) -> TrsLookup {
        self.lookup(m, m)
    }

    /// Scratch-reusing range lookup under the read latch (the vectorized
    /// pipeline's phase 1).
    pub fn lookup_into(
        &self,
        lb: f64,
        ub: f64,
        scratch: &mut crate::LookupScratch,
        out: &mut TrsLookup,
    ) {
        let tree = self.tree.read();
        tree.lookup_into(lb, ub, scratch, out);
        self.collect_diverted(lb, ub, &mut out.tids);
    }

    /// Add the tids of inserts in `[lb, ub]` that a reorganization in
    /// flight diverted to the side buffer: they are not in the tree yet,
    /// but their writers were already acknowledged, so a lookup hands them
    /// out like outliers (validation drops any deleted since). Call with
    /// the tree latch held — the buffer is replayed into the tree, and
    /// emptied, only under the write latch, so every insert is seen in
    /// exactly one of the two places.
    fn collect_diverted(&self, lb: f64, ub: f64, tids: &mut Vec<Tid>) {
        if !self.reorganizing.load(Ordering::Acquire) {
            return;
        }
        for op in self.side_buffer.lock().iter() {
            if let SideOp::Insert { m, tid, .. } = *op {
                if m >= lb && m <= ub {
                    tids.push(tid);
                }
            }
        }
    }

    /// The tree's parameters (copied out from under the latch).
    pub fn params(&self) -> crate::TrsParams {
        *self.tree.read().params()
    }

    /// Heap bytes held by the tree (read latch; includes arena garbage from
    /// past reorganizations — see [`compacted_memory_bytes`](Self::compacted_memory_bytes)).
    pub fn memory_bytes(&self) -> usize {
        self.tree.read().memory_bytes()
    }

    /// Queued reorganization candidates awaiting a background pass.
    pub fn reorg_queue_len(&self) -> usize {
        self.tree.read().reorg_queue_len()
    }

    /// Divert `op` to the side buffer if a reorganization is in flight.
    ///
    /// The flag is checked *under the side-buffer lock* — the same lock the
    /// worker holds while replaying the buffer and dropping the flag — so a
    /// writer can never observe `reorganizing == true`, get preempted, and
    /// push into a buffer that was already drained (which would strand the
    /// op forever: a permanent index false negative).
    fn divert(&self, op: SideOp) -> bool {
        let mut buf = self.side_buffer.lock();
        if self.reorganizing.load(Ordering::Acquire) {
            buf.push(op);
            true
        } else {
            false
        }
    }

    /// Raise the *reorganizing* flag (writers start diverting). Taking the
    /// side-buffer lock synchronizes with [`divert`](Self::divert): any
    /// writer that saw the flag down has fully decided to go to the tree,
    /// whose latch then orders it against the rebuild.
    fn begin_reorg(&self) {
        let _buf = self.side_buffer.lock();
        self.reorganizing.store(true, Ordering::Release);
    }

    /// Replay the side buffer into `tree` and drop the flag — atomic with
    /// respect to diverting writers (both sides hold the side-buffer lock).
    /// Call with the tree write latch held.
    fn finish_reorg(&self, tree: &mut TrsTree) {
        let mut buf = self.side_buffer.lock();
        for op in buf.drain(..) {
            match op {
                SideOp::Insert { m, n, tid } => {
                    tree.insert(m, n, tid);
                }
                SideOp::Delete { m, tid } => {
                    tree.delete(m, tid);
                }
            }
        }
        self.reorganizing.store(false, Ordering::Release);
    }

    /// Insert; diverted to the side buffer while a reorganization is in
    /// flight.
    pub fn insert(&self, m: f64, n: f64, tid: Tid) {
        if !self.divert(SideOp::Insert { m, n, tid }) {
            self.tree.write().insert(m, n, tid);
        }
    }

    /// Delete; diverted to the side buffer while a reorganization is in
    /// flight.
    pub fn delete(&self, m: f64, tid: Tid) {
        if !self.divert(SideOp::Delete { m, tid }) {
            self.tree.write().delete(m, tid);
        }
    }

    /// Structural statistics (read latch).
    pub fn stats(&self) -> crate::TrsTreeStats {
        self.tree.read().stats()
    }

    /// Memory after compaction (write latch; compaction rebuilds the arena).
    pub fn compacted_memory_bytes(&self) -> usize {
        self.tree.write().compacted_memory_bytes()
    }

    /// Completed reorganization passes.
    pub fn reorg_passes(&self) -> u64 {
        self.reorg_passes.load(Ordering::Relaxed)
    }

    /// Run one background reorganization pass over up to `limit` queued
    /// candidates (the Appendix B protocol; see module docs). Returns the
    /// number of candidates whose subtree was replaced.
    ///
    /// Intended to be called from a dedicated thread; concurrent lookups
    /// proceed under the read latch except during the brief install step.
    pub fn reorganize_pass(&self, source: &dyn PairSource, limit: usize) -> usize {
        self.reorganize(source, Targets::Queued(limit))
    }

    /// Reorganize the `i`-th first-level subtree online (the §7.7 trace
    /// driver). False when the root is a leaf (nothing to partially
    /// reorganize) or the scan failed.
    pub fn reorganize_first_level_subtree(&self, i: usize, source: &dyn PairSource) -> bool {
        self.reorganize(source, Targets::FirstLevel(i)) > 0
    }

    /// Rebuild the whole tree from fresh data (the §4.4 limit case). The
    /// root is both domain edges at once, so the open-ended scan also
    /// re-domains the tree over whatever the source now holds. False when
    /// the scan failed and the tree was left as it was.
    pub fn rebuild(&self, source: &dyn PairSource) -> bool {
        self.reorganize(source, Targets::Root) > 0
    }

    /// The one Appendix-B body behind every reorganization: raise the flag,
    /// pick the nodes, and for each one snapshot its replacement spec under
    /// the read latch, scan and build it with no latch held, and graft it
    /// under the write latch; then replay the side buffer and drop the
    /// flag. A node whose scan fails keeps its subtree — one built from
    /// nothing would drop every tuple under it — and a queued candidate
    /// goes back on the queue for a later pass. Returns the number of
    /// subtrees grafted.
    fn reorganize(&self, source: &dyn PairSource, targets: Targets) -> usize {
        self.begin_reorg();
        // `Some(kind)` for a queued candidate, which must still have the
        // role it was queued for; `None` for a node picked by position.
        let picked: Vec<(NodeId, Option<ReorgKind>)> = {
            let mut tree = self.tree.write();
            match targets {
                Targets::Queued(limit) => std::iter::from_fn(|| tree.next_reorg_candidate())
                    .take(limit)
                    .map(|c| (c.node, Some(c.kind)))
                    .collect(),
                Targets::FirstLevel(i) => match &tree.node(tree.root()).kind {
                    NodeKind::Internal { children } if !children.is_empty() => {
                        vec![(children[i % children.len()], None)]
                    }
                    _ => Vec::new(),
                },
                Targets::Root => vec![(tree.root(), None)],
            }
        };

        let mut grafted = 0;
        for (node, kind) in picked {
            let spec = {
                let tree = self.tree.read();
                let live = (node as usize) < tree.arena.len()
                    && kind.is_none_or(|k| tree.node(node).is_leaf() == (k == ReorgKind::Split));
                live.then(|| tree.replacement_spec(node))
            };
            let Some(spec) = spec else { continue };
            // The expensive part, offline: lookups and writers proceed.
            let built = spec.build(source);
            let mut tree = self.tree.write();
            match built {
                // A compaction or another driver may have moved the slot
                // since the snapshot: install only over the same range.
                Ok(sub)
                    if tree
                        .arena
                        .get(node as usize)
                        .is_some_and(|n| (n.range.lb, n.range.ub) == spec.range()) =>
                {
                    tree.graft_subtree(node, sub);
                    grafted += 1;
                }
                Ok(_) => {}
                Err(_) => {
                    if let Some(kind) = kind {
                        tree.enqueue_reorg(ReorgCandidate { node, kind });
                    }
                }
            }
        }

        let mut tree = self.tree.write();
        if matches!(targets, Targets::Root) && grafted > 0 {
            // Every queued candidate refers to pre-rebuild structure.
            tree.reorg_queue.clear();
        }
        self.finish_reorg(&mut tree);
        self.reorg_passes.fetch_add(1, Ordering::Relaxed);
        grafted
    }

    /// Serialize a checkpoint of the tree under the write latch (the
    /// snapshot compacts the arena first, hence exclusive access). Writers
    /// and lookups block only for the serialization itself — a TRS-Tree
    /// snapshot is KBs by construction (§6), so the pause is brief.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, crate::persist::PersistError> {
        self.tree.write().snapshot_bytes()
    }

    /// Consume the wrapper, returning the inner tree.
    pub fn into_inner(self) -> TrsTree {
        self.tree.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TrsParams;
    use crate::VecPairSource;
    use std::sync::Arc;

    fn sigmoid_pairs(n: usize) -> Vec<(f64, f64, Tid)> {
        (0..n)
            .map(|i| {
                let m = i as f64 / n as f64 * 20.0 - 10.0;
                (m, 1000.0 / (1.0 + (-m).exp()), Tid(i as u64))
            })
            .collect()
    }

    #[test]
    fn sequential_semantics_match_plain_tree() {
        let pairs = sigmoid_pairs(20_000);
        let plain = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        let conc = ConcurrentTrsTree::new(plain.clone());
        for m in [-9.0, -1.0, 0.0, 3.5, 9.9] {
            let a = plain.lookup_point(m);
            let b = conc.lookup_point(m);
            assert_eq!(a.ranges, b.ranges);
        }
    }

    #[test]
    fn concurrent_lookups_during_inserts() {
        let pairs = sigmoid_pairs(30_000);
        let tree = Arc::new(ConcurrentTrsTree::new(TrsTree::build(
            TrsParams::default(),
            (-10.0, 10.0),
            pairs,
        )));
        crossbeam::thread::scope(|s| {
            // Writers.
            for w in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move |_| {
                    for i in 0..5_000u64 {
                        let m = (i % 2000) as f64 / 100.0 - 10.0;
                        tree.insert(m, 5.0e8, Tid(1_000_000 + w * 10_000 + i));
                    }
                });
            }
            // Readers.
            for _ in 0..4 {
                let tree = Arc::clone(&tree);
                s.spawn(move |_| {
                    for i in 0..2_000 {
                        let m = (i % 200) as f64 / 10.0 - 10.0;
                        let _ = tree.lookup(m, m + 0.5);
                    }
                });
            }
        })
        .unwrap();
        assert!(tree.stats().outliers >= 20_000, "all inserts must be visible");
    }

    /// A [`PairSource`] shared with concurrent writers, mimicking the real
    /// insert order in an RDBMS: the tuple lands in the base table first
    /// and in the indexes second, so a reorganization scan always sees at
    /// least the tuples the index has.
    struct SharedSource(parking_lot::Mutex<Vec<(f64, f64, Tid)>>);

    impl crate::PairSource for SharedSource {
        fn scan_range(&self, lb: f64, ub: f64) -> hermit_storage::Result<Vec<(f64, f64, Tid)>> {
            Ok(self.0.lock().iter().filter(|(m, _, _)| *m >= lb && *m <= ub).copied().collect())
        }
    }

    #[test]
    fn reorg_pass_with_concurrent_writers_loses_nothing() {
        let mut pairs = sigmoid_pairs(30_000);
        let tree = Arc::new(ConcurrentTrsTree::new(TrsTree::build(
            TrsParams::default(),
            (-10.0, 10.0),
            pairs.clone(),
        )));
        // Flood a region to queue split candidates.
        for i in 0..6_000u64 {
            let m = (i % 600) as f64 / 1000.0; // around 0
            tree.insert(m, -7.0e8, Tid(2_000_000 + i));
            pairs.push((m, -7.0e8, Tid(2_000_000 + i)));
        }
        let source = Arc::new(SharedSource(parking_lot::Mutex::new(pairs)));

        let extra_base = 3_000_000u64;
        crossbeam::thread::scope(|s| {
            // Background reorg.
            {
                let tree = Arc::clone(&tree);
                let source = Arc::clone(&source);
                s.spawn(move |_| {
                    for _ in 0..4 {
                        tree.reorganize_pass(source.as_ref(), 4);
                    }
                });
            }
            // Concurrent writer inserting fresh outliers the whole time —
            // base table first, index second, as a real executor would.
            {
                let tree = Arc::clone(&tree);
                let source = Arc::clone(&source);
                s.spawn(move |_| {
                    for i in 0..3_000u64 {
                        source.0.lock().push((5.0, 9.0e8, Tid(extra_base + i)));
                        tree.insert(5.0, 9.0e8, Tid(extra_base + i));
                    }
                });
            }
        })
        .unwrap();

        assert!(tree.reorg_passes() >= 4);
        // Every concurrently-inserted tuple must be findable. Two legal
        // paths: via the outlier buffer (replayed from the side buffer or
        // applied directly), or via the model band if a rebuild scan picked
        // the tuples up as ordinary data — Hermit then reaches them through
        // the host index. Both satisfy the no-false-negative contract.
        let r = tree.lookup_point(5.0);
        let in_band = r.ranges.iter().any(|(lo, hi)| 9.0e8 >= *lo && 9.0e8 <= *hi);
        let buffered = (0..3_000u64).filter(|i| r.tids.contains(&Tid(extra_base + i))).count();
        assert!(
            in_band || buffered == 3_000,
            "concurrent inserts lost across reorganization (buffered = {buffered}, in_band = {in_band})"
        );
    }

    /// An insert diverted by a reorganization in flight is found by every
    /// lookup form at once, not only after the side buffer is replayed.
    #[test]
    fn a_diverted_insert_is_found_before_the_replay() {
        let tree = ConcurrentTrsTree::new(TrsTree::build(
            TrsParams::default(),
            (-10.0, 10.0),
            sigmoid_pairs(2_000),
        ));
        tree.begin_reorg();
        tree.insert(5.0, 9.0e8, Tid(42));
        assert!(tree.lookup_point(5.0).tids.contains(&Tid(42)));
        let mut out = TrsLookup::default();
        tree.lookup_into(4.0, 6.0, &mut crate::LookupScratch::default(), &mut out);
        assert!(out.tids.contains(&Tid(42)));
        assert!(!tree.lookup(6.0, 7.0).tids.contains(&Tid(42)), "only inside the predicate");
        tree.finish_reorg(&mut tree.tree.write());
        assert!(tree.lookup_point(5.0).tids.contains(&Tid(42)), "replayed into the tree");
    }

    /// A source whose scan fails, as a heap with an unreadable page does.
    struct FailingSource;

    impl crate::PairSource for FailingSource {
        fn scan_range(&self, _: f64, _: f64) -> hermit_storage::Result<Vec<(f64, f64, Tid)>> {
            Err(hermit_storage::StorageError::Io("unreadable page".into()))
        }
    }

    /// A failed scan installs nothing: the subtree keeps its tuples, the
    /// candidate waits on the queue for the next pass, and the flag still
    /// drops with the side buffer replayed.
    #[test]
    fn a_failed_scan_keeps_the_subtree_and_requeues_its_candidate() {
        let pairs: Vec<(f64, f64, Tid)> =
            (0..5_000).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        let mut flooded = TrsTree::build(TrsParams::default(), (0.0, 4_999.0), pairs.clone());
        for i in 0..2_000u64 {
            flooded.insert(2_500.0, -1.0e9, Tid(1_000_000 + i));
        }
        let tree = ConcurrentTrsTree::new(flooded);
        let (queued, before) = (tree.reorg_queue_len(), tree.stats());
        assert!(queued > 0, "the flood must queue a split");

        assert_eq!(tree.reorganize_pass(&FailingSource, 64), 0);
        assert!(!tree.rebuild(&FailingSource));
        assert!(!tree.reorganize_first_level_subtree(0, &FailingSource));
        assert_eq!(tree.reorg_queue_len(), queued, "the candidate is back on the queue");
        let after = tree.stats();
        assert_eq!(
            (after.leaves, after.outliers, after.covered),
            (before.leaves, before.outliers, before.covered)
        );
        assert_eq!(tree.lookup_point(2_500.0).tids.len(), 2_000, "no buffered tuple lost");
        tree.insert(10.0, -3.0, Tid(7));
        assert!(tree.lookup_point(10.0).tids.contains(&Tid(7)), "the flag is down again");

        // Once the source reads again, the same candidate is served.
        assert!(tree.reorganize_pass(&VecPairSource(pairs), 64) > 0);
    }

    #[test]
    fn online_subtree_reorg_keeps_lookups_consistent() {
        let pairs = sigmoid_pairs(30_000);
        let tree = Arc::new(ConcurrentTrsTree::new(TrsTree::build(
            TrsParams::default(),
            (-10.0, 10.0),
            pairs.clone(),
        )));
        let source = VecPairSource(pairs);
        crossbeam::thread::scope(|s| {
            {
                let tree = Arc::clone(&tree);
                let source = &source;
                s.spawn(move |_| {
                    for i in 0..8 {
                        tree.reorganize_first_level_subtree(i, source);
                    }
                });
            }
            {
                let tree = Arc::clone(&tree);
                s.spawn(move |_| {
                    for i in 0..2_000 {
                        let m = (i % 190) as f64 / 10.0 - 9.5;
                        let r = tree.lookup_point(m);
                        // The model band must always cover the true value.
                        let truth = 1000.0 / (1.0 + (-m).exp());
                        let hit = r.ranges.iter().any(|(lo, hi)| truth >= *lo && truth <= *hi);
                        assert!(hit, "lookup inconsistent during online reorg at m={m}");
                    }
                });
            }
        })
        .unwrap();
        assert!(tree.reorg_passes() >= 1);
    }
}
