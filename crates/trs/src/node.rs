//! TRS-Tree node representation: arena nodes, leaf models, outlier buffers.

use hermit_stats::LinearModel;
use hermit_storage::{F64Key, Tid};

/// Index of a node inside the tree arena.
pub type NodeId = u32;

/// An inclusive value range `[lb, ub]` on the target column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    /// Lower bound (inclusive).
    pub lb: f64,
    /// Upper bound (inclusive).
    pub ub: f64,
}

impl ValueRange {
    /// Construct; `lb` must not exceed `ub`.
    pub fn new(lb: f64, ub: f64) -> Self {
        debug_assert!(lb <= ub, "range [{lb}, {ub}] inverted");
        ValueRange { lb, ub }
    }

    /// Width of the range.
    #[inline]
    pub fn width(&self) -> f64 {
        self.ub - self.lb
    }

    /// True if `v` lies in the range.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lb && v <= self.ub
    }

    /// True if the ranges overlap.
    #[inline]
    pub fn overlaps(&self, lb: f64, ub: f64) -> bool {
        self.lb <= ub && lb <= self.ub
    }

    /// Intersection with `[lb, ub]`, or `None` if disjoint.
    #[inline]
    pub fn intersect(&self, lb: f64, ub: f64) -> Option<ValueRange> {
        let lo = self.lb.max(lb);
        let hi = self.ub.min(ub);
        if lo <= hi {
            Some(ValueRange::new(lo, hi))
        } else {
            None
        }
    }

    /// Split into `k` equal-width sub-ranges. The last sub-range absorbs
    /// floating-point slack so the union exactly covers `self`.
    pub fn split(&self, k: usize) -> Vec<ValueRange> {
        debug_assert!(k >= 2);
        let step = self.width() / k as f64;
        (0..k)
            .map(|i| {
                let lb = self.lb + step * i as f64;
                let ub = if i == k - 1 { self.ub } else { self.lb + step * (i + 1) as f64 };
                ValueRange::new(lb, ub)
            })
            .collect()
    }
}

/// A leaf's outlier buffer: target value → tuple ids that the leaf's linear
/// model cannot cover, as `(key, tid)` entries sorted by key (duplicate
/// keys in insertion order).
///
/// The paper (§4) describes the buffer as a hash table, which serves the
/// point probes of Algorithm 3 but cannot answer a *range* predicate
/// without scanning the entire buffer — ruinous for range-heavy workloads
/// once a leaf holds thousands of noise outliers. The sorted vector
/// collects a range in O(log n + k) and costs 16 bytes an entry. The last
/// measurement of both layouts (the `ablations` bench's former
/// `ablation_outlier_buffer` group: 100-wide range lookups over a tree of
/// 100 K linear rows with every 50th row buffered, 2-vCPU Xeon container,
/// 30 samples) read 16.9 µs a lookup for the hash table (14.6–19.0) and
/// 188.5 ns for the sorted vector (173–199): ≈ 90 × in the vector's favour,
/// so the paper's hash table was dropped, not kept beside it.
#[derive(Debug, Clone, Default)]
pub struct OutlierBuffer(Vec<(F64Key, Tid)>);

impl OutlierBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the buffer holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A buffer of `entries` given in any order: one stable sort by key
    /// puts them where [`add`](Self::add)ing them one by one, in that
    /// order, would (equal keys keep their order).
    pub(crate) fn from_entries(mut entries: Vec<(F64Key, Tid)>) -> Self {
        entries.sort_by_key(|&(k, _)| k);
        // A built buffer keeps no growth slack: `memory_bytes` counts it.
        entries.shrink_to_fit();
        Self(entries)
    }

    /// Register an outlier.
    pub fn add(&mut self, m: f64, tid: Tid) {
        let idx = self.0.partition_point(|(k, _)| *k <= F64Key(m));
        self.0.insert(idx, (F64Key(m), tid));
    }

    /// Remove one `(m, tid)` entry; returns true if found.
    pub fn remove(&mut self, m: f64, tid: Tid) -> bool {
        let start = self.0.partition_point(|(k, _)| *k < F64Key(m));
        let mut run = self.0[start..].iter().take_while(|(k, _)| *k == F64Key(m));
        match run.position(|(_, t)| *t == tid) {
            Some(i) => {
                self.0.remove(start + i);
                true
            }
            None => false,
        }
    }

    /// Collect tids whose target value lies in `[lb, ub]` (binary search,
    /// then a walk to `ub`). Buffers are small by construction — bounded
    /// by `outlier_ratio` of a leaf's tuples.
    pub fn collect_range(&self, lb: f64, ub: f64, out: &mut Vec<Tid>) {
        let start = self.0.partition_point(|(k, _)| k.0 < lb);
        out.extend(self.0[start..].iter().take_while(|(k, _)| k.0 <= ub).map(|(_, tid)| *tid));
    }

    /// Every `(target value, tid)` entry in key order. Used by persistence.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (f64, Tid)> + '_ {
        self.0.iter().map(|(k, tid)| (k.0, *tid))
    }

    /// Heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(F64Key, Tid)>()
    }
}

/// Payload of a leaf node.
#[derive(Debug, Clone)]
pub struct LeafData {
    /// Fitted linear mapping `n = β·m + α`.
    pub model: LinearModel,
    /// Confidence interval ε derived from `error_bound` (§4.5).
    pub eps: f64,
    /// Tuples covered by this leaf's range at build/reorg time (outliers
    /// included), plus subsequent inserts. Denominator of the reorg ratios.
    pub covered: usize,
    /// The outlier buffer.
    pub outliers: OutlierBuffer,
    /// Delete operations routed to this leaf since the last
    /// reorganization; drives the merge trigger (§4.4).
    pub deletes: usize,
}

impl LeafData {
    /// Fresh leaf with the given model and ε.
    pub fn new(model: LinearModel, eps: f64, covered: usize) -> Self {
        LeafData { model, eps, covered, outliers: OutlierBuffer::new(), deletes: 0 }
    }

    /// Host-column interval implied by target value `m`.
    #[inline]
    pub fn host_band(&self, m: f64) -> (f64, f64) {
        self.model.band(m, self.eps)
    }

    /// True if the pair `(m, n)` is covered by the model's ε-band.
    #[inline]
    pub fn covers(&self, m: f64, n: f64) -> bool {
        self.model.residual(m, n) <= self.eps
    }

    /// Algorithm 3's split trigger: the buffer holds more than
    /// `split_trigger_ratio` of the tuples the leaf covers.
    pub fn wants_split(&self, params: &crate::TrsParams) -> bool {
        self.outliers.len() as f64 > params.split_trigger_ratio * self.covered.max(1) as f64
    }

    /// Algorithm 3's merge trigger: more deletes than `merge_trigger_ratio`
    /// of the tuples the leaf covers (the leaf's parent is the candidate).
    pub fn wants_merge(&self, params: &crate::TrsParams) -> bool {
        self.deletes as f64 > params.merge_trigger_ratio * self.covered.max(1) as f64
    }
}

/// Node payload: internal router or leaf.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Internal node: children ordered left→right over equal-width
    /// sub-ranges of the node's range.
    Internal {
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Leaf node with regression payload.
    Leaf(LeafData),
}

/// One TRS-Tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Target-column range this node is responsible for.
    pub range: ValueRange,
    /// Router or leaf payload.
    pub kind: NodeKind,
}

impl Node {
    /// True if this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Heap bytes this node owns outside its arena slot: a router's child
    /// ids or a leaf's outlier buffer. The slot itself is the arena's.
    pub fn memory_bytes(&self) -> usize {
        match &self.kind {
            NodeKind::Internal { children } => children.capacity() * std::mem::size_of::<NodeId>(),
            NodeKind::Leaf(leaf) => leaf.outliers.memory_bytes(),
        }
    }
}

/// Structural statistics of a TRS-Tree (reported by the harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrsTreeStats {
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Number of internal nodes.
    pub internals: usize,
    /// Tree height (1 = single root leaf).
    pub height: usize,
    /// Total buffered outliers across leaves.
    pub outliers: usize,
    /// Total tuples the tree accounts for across leaves — model-covered
    /// *plus* buffered outliers (each leaf's `covered` counter, which
    /// inserts increment and deletes decrement). The denominator of the
    /// outlier-share ratio `outliers / covered`.
    pub covered: usize,
    /// Total heap bytes.
    pub memory_bytes: usize,
}

impl TrsTreeStats {
    /// Buffered outliers over the tuples the tree accounts for
    /// (`outliers / covered`; 0 for an empty tree).
    pub fn outlier_share(&self) -> f64 {
        self.outliers as f64 / self.covered.max(1) as f64
    }
}

/// The Tiered Regression Search Tree.
///
/// Construct with [`TrsTree::build`](crate::build) / [`crate::build_parallel`],
/// query with [`TrsTree::lookup`](crate::lookup), and maintain with the
/// methods in [`crate::maintain`].
#[derive(Debug, Clone)]
pub struct TrsTree {
    pub(crate) arena: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) params: crate::TrsParams,
    /// Reorganization candidates detected by insert/delete operations
    /// (§4.4: detection is offloaded to the operations; a background
    /// thread consumes the queue).
    pub(crate) reorg_queue: std::collections::VecDeque<crate::maintain::ReorgCandidate>,
}

impl TrsTree {
    /// The parameters the tree was built with.
    pub fn params(&self) -> &crate::TrsParams {
        &self.params
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.arena[id as usize]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.arena[id as usize]
    }

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        self.arena.push(node);
        (self.arena.len() - 1) as NodeId
    }

    /// Append `sub`'s whole arena after this tree's nodes, shifting its
    /// child ids, and return the id its root now has (a parallel build's
    /// stitch, a reorganization's graft).
    pub(crate) fn append_subtree(&mut self, sub: TrsTree) -> NodeId {
        let offset = self.arena.len() as NodeId;
        self.arena.extend(sub.arena.into_iter().map(|mut node| {
            if let NodeKind::Internal { children } = &mut node.kind {
                children.iter_mut().for_each(|c| *c += offset);
            }
            node
        }));
        offset + sub.root
    }

    /// Walk from the root to the leaf whose range covers `m` (Algorithm 3's
    /// `Traverse`). Values outside the root range clamp to the nearest edge
    /// leaf so that out-of-range inserts still land somewhere sensible.
    pub fn traverse(&self, m: f64) -> NodeId {
        let mut id = self.root;
        loop {
            let node = &self.arena[id as usize];
            match &node.kind {
                NodeKind::Leaf(_) => return id,
                NodeKind::Internal { children } => {
                    // Children split the node's range into equal widths;
                    // compute the child index directly instead of scanning.
                    let k = children.len();
                    let w = node.range.width();
                    let idx = if w <= 0.0 {
                        0
                    } else {
                        (((m - node.range.lb) / w * k as f64) as isize).clamp(0, k as isize - 1)
                            as usize
                    };
                    id = children[idx];
                }
            }
        }
    }

    /// Depth-aware structural statistics.
    pub fn stats(&self) -> TrsTreeStats {
        let mut s = TrsTreeStats { height: self.height_of(self.root), ..Default::default() };
        // Walk only nodes reachable from the root: garbage left behind by
        // reorganizations still occupies arena memory (charged below via
        // `memory_bytes`) but is not part of the live tree, so it must not
        // inflate leaf/outlier counts.
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.arena[id as usize].kind {
                NodeKind::Internal { children } => {
                    s.internals += 1;
                    stack.extend_from_slice(children);
                }
                NodeKind::Leaf(leaf) => {
                    s.leaves += 1;
                    s.outliers += leaf.outliers.len();
                    s.covered += leaf.covered;
                }
            }
        }
        s.memory_bytes = self.memory_bytes();
        s
    }

    fn height_of(&self, id: NodeId) -> usize {
        match &self.arena[id as usize].kind {
            NodeKind::Leaf(_) => 1,
            NodeKind::Internal { children } => {
                1 + children.iter().map(|&c| self.height_of(c)).max().unwrap_or(0)
            }
        }
    }

    /// Total heap bytes held by the tree: every arena slot once, plus what
    /// each node owns outside it. This is the "Hermit index size" every
    /// memory figure in the paper reports — note how it is dominated by
    /// outlier buffers, not by the regression models (a few `f64`s each).
    pub fn memory_bytes(&self) -> usize {
        self.arena.iter().map(|n| n.memory_bytes()).sum::<usize>()
            + self.arena.capacity() * std::mem::size_of::<Node>()
    }

    /// Check structural invariants (tests): children partition parents,
    /// leaf ranges are valid, ε non-negative.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_node(self.root, None)
    }

    fn check_node(&self, id: NodeId, expected: Option<ValueRange>) -> Result<(), String> {
        let node = &self.arena[id as usize];
        if node.range.lb > node.range.ub {
            return Err(format!("node {id}: inverted range"));
        }
        if let Some(exp) = expected {
            if (node.range.lb - exp.lb).abs() > 1e-9 * (1.0 + exp.width())
                || (node.range.ub - exp.ub).abs() > 1e-9 * (1.0 + exp.width())
            {
                return Err(format!(
                    "node {id}: range [{}, {}] != expected [{}, {}]",
                    node.range.lb, node.range.ub, exp.lb, exp.ub
                ));
            }
        }
        match &node.kind {
            NodeKind::Leaf(leaf) => {
                if leaf.eps < 0.0 {
                    return Err(format!("leaf {id}: negative eps"));
                }
                Ok(())
            }
            NodeKind::Internal { children } => {
                if children.len() < 2 {
                    return Err(format!("internal {id}: fewer than 2 children"));
                }
                let subs = node.range.split(children.len());
                for (child, sub) in children.iter().zip(subs) {
                    self.check_node(*child, Some(sub))?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_split_covers_exactly() {
        let r = ValueRange::new(0.0, 1024.0);
        let subs = r.split(4);
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].lb, 0.0);
        assert_eq!(subs[3].ub, 1024.0);
        for w in subs.windows(2) {
            assert_eq!(w[0].ub, w[1].lb);
        }
        // Uneven width still covers fully.
        let r = ValueRange::new(0.0, 10.0);
        let subs = r.split(3);
        assert_eq!(subs[2].ub, 10.0);
    }

    #[test]
    fn range_intersect() {
        let r = ValueRange::new(10.0, 20.0);
        assert_eq!(r.intersect(15.0, 25.0), Some(ValueRange::new(15.0, 20.0)));
        assert_eq!(r.intersect(0.0, 30.0), Some(r));
        assert_eq!(r.intersect(21.0, 30.0), None);
        assert!(r.overlaps(20.0, 30.0));
        assert!(!r.overlaps(20.0001, 30.0));
    }

    #[test]
    fn sorted_vec_buffer_contract() {
        let mut b = OutlierBuffer::new();
        assert!(b.is_empty());
        b.add(1.0, Tid(10));
        b.add(2.0, Tid(20));
        b.add(1.0, Tid(11)); // duplicate key
        assert_eq!(b.len(), 3);

        let mut out = Vec::new();
        b.collect_range(1.0, 1.5, &mut out);
        assert_eq!(out, vec![Tid(10), Tid(11)], "duplicates in insertion order");

        assert!(b.remove(1.0, Tid(10)));
        assert!(!b.remove(1.0, Tid(10)), "double remove");
        assert!(!b.remove(9.0, Tid(0)), "absent key");
        assert_eq!(b.len(), 2);

        out.clear();
        b.collect_range(f64::NEG_INFINITY, f64::INFINITY, &mut out);
        assert_eq!(out, vec![Tid(11), Tid(20)]);
        assert_eq!(b.entries().collect::<Vec<_>>(), vec![(1.0, Tid(11)), (2.0, Tid(20))]);
        assert!(b.memory_bytes() > 0);
    }

    #[test]
    fn leaf_covers_band() {
        let leaf = LeafData::new(hermit_stats::LinearModel { beta: 2.0, alpha: 0.0 }, 1.0, 100);
        assert!(leaf.covers(5.0, 10.5)); // predict 10, |10.5-10| <= 1
        assert!(!leaf.covers(5.0, 11.5));
        assert_eq!(leaf.host_band(5.0), (9.0, 11.0));
    }
}
