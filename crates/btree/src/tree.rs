//! The B+-tree proper: insert, delete, point/range lookup, bulk load.
//!
//! Duplicate keys are fully supported (secondary indexes routinely map one
//! key to many tuples). Equal keys route *right* on insert and scans start
//! at the *leftmost* occurrence, so all duplicates are reachable by walking
//! the leaf chain.
//!
//! Deletion is "lazy" in the style of many production main-memory engines:
//! entries are removed from their leaf but underfull leaves are not
//! rebalanced, and a leaf that empties stays in the chain, where every walk
//! steps over it. This keeps the concurrency story simple and matches the
//! way the paper's experiments use the baseline (insert/lookup heavy).

use crate::node::{Internal, Leaf, NodeId, CAP, NIL};
use std::mem::size_of;

/// Spare input [`BPlusTree::bulk_load`] lets pile up before it hands it
/// back: 256 KiB, 64 leaves of `(F64Key, Tid)` entries.
const RELEASE_BYTES: usize = 256 << 10;

/// A B+-tree of page-shaped nodes with duplicate-key support.
///
/// `K` is the key type (use `hermit_storage::F64Key` for float keys), `V`
/// the value type (typically `Tid` or `RowLoc`).
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    /// Leaves, by id: one allocation each, so a new leaf moves no other.
    leaves: Vec<Box<Leaf<K, V>>>,
    /// Internal nodes, by id. A child id names a leaf on the lowest
    /// internal level and an internal node above it.
    internals: Vec<Box<Internal<K>>>,
    /// A leaf id while `height == 1` ([`NIL`] before the first entry), an
    /// internal node's above.
    root: NodeId,
    len: usize,
    height: usize,
}

impl<K: Ord + Copy, V: Copy + PartialEq> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, V: Copy + PartialEq> BPlusTree<K, V> {
    /// Empty tree (no node until the first insert).
    pub fn new() -> Self {
        BPlusTree { leaves: Vec::new(), internals: Vec::new(), root: NIL, len: 0, height: 1 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total heap bytes held by the tree's nodes and the tables of pointers
    /// to them. This is the number the paper's memory figures report for
    /// the baseline index.
    pub fn memory_bytes(&self) -> usize {
        self.leaves.len() * size_of::<Leaf<K, V>>()
            + self.internals.len() * size_of::<Internal<K>>()
            + (self.leaves.capacity() + self.internals.capacity()) * size_of::<usize>()
    }

    fn push_leaf(&mut self, leaf: Box<Leaf<K, V>>) -> NodeId {
        self.leaves.push(leaf);
        (self.leaves.len() - 1) as NodeId
    }

    fn push_internal(&mut self, node: Box<Internal<K>>) -> NodeId {
        self.internals.push(node);
        (self.internals.len() - 1) as NodeId
    }

    /// Insert an entry. Duplicates (same key, even same value) are allowed.
    pub fn insert(&mut self, key: K, value: V) {
        self.len += 1;
        if self.root == NIL {
            self.root = self.push_leaf(Leaf::with_entries([(key, value)]));
            return;
        }
        if let Some((sep, right)) = self.insert_rec(self.root, self.height - 1, key, value) {
            // Root split: grow a level.
            let mut root = Internal::new(self.root, sep);
            root.insert(0, sep, right);
            self.root = self.push_internal(root);
            self.height += 1;
        }
    }

    /// Insert below node `id`, `levels` internal levels above the leaves. A
    /// split returns the separator and the id of the new right sibling.
    fn insert_rec(&mut self, id: NodeId, levels: usize, key: K, value: V) -> Option<(K, NodeId)> {
        if levels == 0 {
            return self.insert_into_leaf(id, key, value);
        }
        let node = &self.internals[id as usize];
        // Route right on equality so duplicate runs extend rightwards.
        let idx = node.keys().partition_point(|k| *k <= key);
        let (sep, child) = self.insert_rec(node.children()[idx], levels - 1, key, value)?;
        let node = &mut self.internals[id as usize];
        if !node.is_full() {
            node.insert(idx, sep, child);
            return None;
        }
        // Full: split around the middle separator, then install the child's
        // split on the side it falls.
        let mid = CAP / 2;
        let (up, mut right) = node.split_off(mid);
        if idx <= mid {
            node.insert(idx, sep, child);
        } else {
            right.insert(idx - mid - 1, sep, child);
        }
        Some((up, self.push_internal(right)))
    }

    fn insert_into_leaf(&mut self, id: NodeId, key: K, value: V) -> Option<(K, NodeId)> {
        let right_id = self.leaves.len() as NodeId;
        let leaf = &mut self.leaves[id as usize];
        let idx = leaf.keys().partition_point(|k| *k <= key);
        if !leaf.is_full() {
            leaf.insert(idx, key, value);
            return None;
        }
        // Full: move the upper half to a new right sibling, then insert on
        // the side the entry falls.
        let mid = CAP / 2;
        let mut right = leaf.split_off(mid);
        if idx < mid {
            leaf.insert(idx, key, value);
        } else {
            right.insert(idx - mid, key, value);
        }
        leaf.next = right_id;
        let sep = right.keys()[0];
        self.leaves.push(right);
        Some((sep, right_id))
    }

    /// Leaf that may contain the *leftmost* occurrence of `key` ([`NIL`] in
    /// an empty tree).
    fn find_leaf(&self, key: &K) -> NodeId {
        let mut id = self.root;
        for _ in 1..self.height {
            let node = &self.internals[id as usize];
            // Route left on equality to reach the first duplicate.
            id = node.children()[node.keys().partition_point(|k| k < key)];
        }
        id
    }

    /// Visit every value stored under `key` without allocating.
    ///
    /// This is the point-probe hot path: where [`Self::get`] materializes a
    /// `Vec<V>` per call, `for_each_eq` walks the duplicate run in place
    /// (crossing leaf boundaries as needed) and hands each value to `f`.
    pub fn for_each_eq(&self, key: &K, mut f: impl FnMut(&V)) {
        let mut id = self.find_leaf(key);
        while id != NIL {
            let leaf = &self.leaves[id as usize];
            let start = leaf.keys().partition_point(|k| k < key);
            for (k, v) in leaf.keys()[start..].iter().zip(&leaf.values()[start..]) {
                if k != key {
                    return;
                }
                f(v);
            }
            // The run may continue into the next leaf (long duplicate runs
            // span leaves; lazy deletion can also leave empty leaves).
            id = leaf.next;
        }
    }

    /// All values stored under `key`, in insertion-adjacent order.
    ///
    /// Allocates a fresh `Vec` per call; executors should prefer
    /// [`Self::for_each_eq`].
    pub fn get(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each_eq(key, |v| out.push(*v));
        out
    }

    /// True if at least one entry with `key` exists.
    pub fn contains_key(&self, key: &K) -> bool {
        let mut found = false;
        self.for_each_eq(key, |_| found = true);
        found
    }

    /// Visit every entry with `lb <= key <= ub` in key order.
    pub fn for_each_in_range(&self, lb: &K, ub: &K, mut f: impl FnMut(&K, &V)) {
        if lb > ub {
            return;
        }
        let mut id = self.find_leaf(lb);
        while id != NIL {
            let leaf = &self.leaves[id as usize];
            let start = leaf.keys().partition_point(|k| k < lb);
            for (k, v) in leaf.keys()[start..].iter().zip(&leaf.values()[start..]) {
                if k > ub {
                    return;
                }
                f(k, v);
            }
            id = leaf.next;
        }
    }

    /// Remove one entry matching `(key, value)`. Returns true if removed.
    ///
    /// Lazy deletion: the leaf is not rebalanced.
    pub fn remove(&mut self, key: &K, value: &V) -> bool {
        let mut id = self.find_leaf(key);
        while id != NIL {
            let leaf = &mut self.leaves[id as usize];
            let start = leaf.keys().partition_point(|k| k < key);
            let run = leaf.keys()[start..].iter().take_while(|k| *k == key).count();
            if let Some(i) = leaf.values()[start..start + run].iter().position(|v| v == value) {
                leaf.remove(start + i);
                self.len -= 1;
                return true;
            }
            if start + run < leaf.len() {
                return false;
            }
            // The run may continue into the next leaf, past emptied ones.
            id = leaf.next;
        }
        false
    }

    /// Build a tree from entries sorted by key. Leaves are packed full
    /// (`CAP` entries; the last one holds the rest), giving the dense
    /// layout a freshly-built index would have.
    ///
    /// The input is consumed as the tree is built: it is reversed once, and
    /// each leaf, in key order, takes its entries off the input's back.
    /// Whenever 256 KiB of the input is spent it is handed back, so the
    /// sorted input and the finished tree are never resident side by side
    /// (a build's peak is the tree plus one stride).
    ///
    /// Panics in debug builds if the input is unsorted.
    pub fn bulk_load(mut entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires key-sorted input"
        );
        let mut tree = Self::new();
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        let leaves = entries.len().div_ceil(CAP);
        let (mut internals, mut width) = (0, leaves);
        while width > 1 {
            width = width.div_ceil(CAP + 1);
            internals += width;
        }
        tree.leaves.reserve_exact(leaves);
        tree.internals.reserve_exact(internals);

        // Level 0: full leaves in key order, so a range scan walks memory
        // upwards the way the hardware prefetches.
        let release = RELEASE_BYTES / size_of::<(K, V)>().max(1);
        entries.reverse();
        while !entries.is_empty() {
            let at = entries.len().saturating_sub(CAP);
            let id = tree.push_leaf(Leaf::with_entries(entries[at..].iter().rev().copied()));
            if let Some(prev) = id.checked_sub(1) {
                tree.leaves[prev as usize].next = id;
            }
            entries.truncate(at);
            if entries.capacity() - entries.len() >= release {
                entries.shrink_to_fit();
            }
        }
        let mut level: Vec<(K, NodeId)> =
            (0..).zip(&tree.leaves).map(|(id, leaf)| (leaf.keys()[0], id)).collect();

        // Upper levels: group children CAP + 1 at a time.
        while level.len() > 1 {
            level = level
                .chunks(CAP + 1)
                .map(|group| {
                    let (first, child) = group[0];
                    let mut node = Internal::new(child, first);
                    for (i, &(key, child)) in group[1..].iter().enumerate() {
                        node.insert(i, key, child);
                    }
                    (first, tree.push_internal(node))
                })
                .collect();
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree
    }

    /// Check structural invariants (tests / debugging): separators that
    /// bound their subtrees, sorted leaves, and a leaf chain that links
    /// every leaf and covers all entries.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root == NIL {
            return if self.len == 0 { Ok(()) } else { Err("no root but entries".into()) };
        }
        self.check_subtree(self.root, self.height - 1, None, None)?;
        let mut id = self.root;
        for _ in 1..self.height {
            id = self.internals[id as usize].children()[0];
        }
        let (mut count, mut leaves) = (0, 0);
        let mut prev: Option<K> = None;
        while id != NIL {
            let Some(leaf) = self.leaves.get(id as usize).filter(|_| leaves < self.leaves.len())
            else {
                return Err(format!(
                    "leaf chain runs past its {} leaves at {id}",
                    self.leaves.len()
                ));
            };
            for &k in leaf.keys() {
                if prev.is_some_and(|p| p > k) {
                    return Err(format!("leaf {id}: keys out of order"));
                }
                prev = Some(k);
            }
            count += leaf.len();
            leaves += 1;
            id = leaf.next;
        }
        if leaves != self.leaves.len() {
            return Err(format!("leaf chain links {leaves} of {} leaves", self.leaves.len()));
        }
        if count != self.len {
            return Err(format!("leaf chain has {count} entries but len() = {}", self.len));
        }
        Ok(())
    }

    /// Every key below node `id` (`levels` internal levels above the
    /// leaves) lies within `[lo, hi]`, and every separator on the way is.
    fn check_subtree(
        &self,
        id: NodeId,
        levels: usize,
        lo: Option<K>,
        hi: Option<K>,
    ) -> Result<(), String> {
        let within = |k: &K| lo.is_none_or(|lo| lo <= *k) && hi.is_none_or(|hi| *k <= hi);
        if levels == 0 {
            let leaf = self.leaves.get(id as usize).ok_or(format!("no leaf {id}"))?;
            if leaf.keys().iter().all(within) {
                return Ok(());
            }
            return Err(format!("leaf {id}: a key outside its parent's separators"));
        }
        let node = self.internals.get(id as usize).ok_or(format!("no internal node {id}"))?;
        let keys = node.keys();
        if !keys.iter().all(within) || keys.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("internal node {id}: separators out of order"));
        }
        for (i, &child) in node.children().iter().enumerate() {
            let lo = i.checked_sub(1).map(|j| keys[j]).or(lo);
            self.check_subtree(child, levels - 1, lo, keys.get(i).copied().or(hi))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::{F64Key, Tid};

    fn tree_with(n: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::new();
        for i in 0..n {
            t.insert(i, i * 10);
        }
        t
    }

    /// Entries in `[lb, ub]`, through the one range traversal.
    fn range<K: Ord + Copy, V: Copy + PartialEq>(t: &BPlusTree<K, V>, lb: K, ub: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        t.for_each_in_range(&lb, &ub, |&k, &v| out.push((k, v)));
        out
    }

    #[test]
    fn insert_and_point_get() {
        let t = tree_with(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(&0), vec![0]);
        assert_eq!(t.get(&999), vec![9990]);
        assert_eq!(t.get(&500), vec![5000]);
        assert!(t.get(&1000).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_insert_order() {
        let mut t = BPlusTree::new();
        for i in (0..1000u64).rev() {
            t.insert(i, i);
        }
        t.check_invariants().unwrap();
        let all: Vec<u64> = range(&t, 0, 999).into_iter().map(|(k, _)| k).collect();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn for_each_eq_matches_get_across_leaf_spans() {
        let mut t = BPlusTree::new();
        for i in 0..200u64 {
            t.insert(i, i);
        }
        let run = 2 * CAP as u64; // a duplicate run spanning several leaves
        for v in 0..run {
            t.insert(77, 10_000 + v);
        }
        let mut visited = Vec::new();
        t.for_each_eq(&77, |&v| visited.push(v));
        // Independent oracle: the range scan (get() delegates to
        // for_each_eq, so comparing against it would be circular).
        let oracle: Vec<u64> = range(&t, 77, 77).into_iter().map(|(_, v)| v).collect();
        assert_eq!(visited, oracle);
        assert_eq!(visited.len() as u64, run + 1);
        // Absent keys visit nothing, including past-the-end ones.
        let mut n = 0;
        t.for_each_eq(&999, |_| n += 1);
        t.for_each_eq(&1_000_000, |_| n += 1);
        assert_eq!(n, 0);
        // And an empty tree visits nothing at all.
        BPlusTree::<u64, u64>::new().for_each_eq(&1, |_| n += 1);
        BPlusTree::<u64, u64>::new().for_each_in_range(&0, &9, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn duplicates_all_retrievable() {
        let mut t = BPlusTree::new();
        for v in 0..100u64 {
            t.insert(42, v);
        }
        t.insert(41, 0);
        t.insert(43, 0);
        let vals = t.get(&42);
        assert_eq!(vals.len(), 100);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scan_exact_bounds() {
        let t = tree_with(1000);
        let hits = range(&t, 100, 199);
        assert_eq!(hits.len(), 100);
        assert_eq!(hits[0].0, 100);
        assert_eq!(hits[99].0, 199);
        // Empty and inverted ranges.
        assert!(range(&t, 2000, 3000).is_empty());
        assert!(range(&t, 10, 5).is_empty());
    }

    #[test]
    fn remove_single_entries() {
        let mut t = tree_with(500);
        assert!(t.remove(&250, &2500));
        assert!(!t.remove(&250, &2500), "double remove must fail");
        assert_eq!(t.len(), 499);
        assert!(t.get(&250).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_among_duplicates() {
        let mut t = BPlusTree::new();
        for v in 0..50u64 {
            t.insert(7, v);
        }
        assert!(t.remove(&7, &25));
        let vals = t.get(&7);
        assert_eq!(vals.len(), 49);
        assert!(!vals.contains(&25));
        t.check_invariants().unwrap();
    }

    /// Lazy deletion can empty a leaf in the middle of a duplicate run:
    /// probes and removals walk past it to the rest of the run.
    #[test]
    fn remove_and_for_each_eq_walk_past_an_emptied_leaf() {
        // Key 1 fills the first leaf's tail, two whole leaves and part of a
        // fourth.
        let run = 3 * CAP as u64;
        let entries: Vec<(u64, u64)> =
            [(0, 0)].into_iter().chain((0..run).map(|v| (1, v))).chain([(2, 0)]).collect();
        let mut t = BPlusTree::bulk_load(entries);
        assert!(t.height() > 1);
        let second = (CAP as u64 - 1)..(2 * CAP as u64 - 1);
        for v in second.clone() {
            assert!(t.remove(&1, &v));
        }
        assert_eq!(leaves(&t)[1], vec![], "the second leaf is empty");
        let mut visited = Vec::new();
        t.for_each_eq(&1, |&v| visited.push(v));
        let want: Vec<u64> = (0..run).filter(|v| !second.contains(v)).collect();
        assert_eq!(visited, want);
        // A removal of the run's last entry walks past the empty leaf.
        assert!(t.remove(&1, &(run - 1)));
        assert!(!t.remove(&1, &(run - 1)));
        assert!(!t.remove(&1, &second.start), "an entry of the emptied leaf is gone");
        // Empty the first leaf's part of the run too: the walk then starts
        // on a leaf without the key and steps over the empty one.
        for v in 0..CAP as u64 - 1 {
            assert!(t.remove(&1, &v));
        }
        let mut n = 0;
        t.for_each_eq(&1, |_| n += 1);
        assert_eq!(n, CAP, "the third leaf's part of the run is all that is left");
        assert_eq!(t.get(&2), vec![0]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let entries: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i * 3)).collect();
        let bulk = BPlusTree::bulk_load(entries.clone());
        bulk.check_invariants().unwrap();
        assert_eq!(bulk.len(), 10_000);
        assert_eq!(bulk.get(&9_999), vec![29_997]);
        let scan: Vec<u64> = range(&bulk, 5000, 5009).into_iter().map(|(k, _)| k).collect();
        assert_eq!(scan, (5000..5010).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_then_insert() {
        let entries: Vec<(u64, u64)> = (0..1000).map(|i| (i * 2, i)).collect();
        let mut t = BPlusTree::bulk_load(entries);
        for i in 0..1000u64 {
            t.insert(i * 2 + 1, i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 2000);
        assert_eq!(range(&t, 0, 3999).len(), 2000);
    }

    /// Each leaf's entries, in leaf-chain order from the leftmost leaf.
    fn leaves(t: &BPlusTree<u64, u64>) -> Vec<Vec<(u64, u64)>> {
        let mut id = t.root;
        for _ in 1..t.height {
            id = t.internals[id as usize].children()[0];
        }
        let mut out = Vec::new();
        while id != NIL {
            let leaf = &t.leaves[id as usize];
            out.push(leaf.keys().iter().copied().zip(leaf.values().iter().copied()).collect());
            id = leaf.next;
        }
        out
    }

    /// A bulk load holds what single inserts of the same entries hold: the
    /// same leaf chain and the same range results, duplicates in input
    /// order, at sizes around a leaf and past the input's release stride;
    /// every leaf but the last is full.
    #[test]
    fn bulk_load_equals_single_inserts() {
        let stride = RELEASE_BYTES / size_of::<(u64, u64)>();
        for n in [0, 1, CAP - 1, CAP, CAP + 1, stride + 1].map(|n| n as u64) {
            // Key i / dup: runs of `dup` equal keys. A leaf's CAP is odd, so
            // pairs cross leaf boundaries; runs longer than a leaf span them.
            for dup in [1, 2, CAP as u64 + 45] {
                let entries: Vec<(u64, u64)> = (0..n).map(|i| (i / dup, i)).collect();
                let bulk = BPlusTree::bulk_load(entries.clone());
                let mut single = BPlusTree::new();
                for &(k, v) in &entries {
                    single.insert(k, v);
                }
                bulk.check_invariants().unwrap();
                single.check_invariants().unwrap();
                let chain = leaves(&bulk);
                assert_eq!((bulk.len(), chain.concat()), (single.len(), leaves(&single).concat()));
                assert_eq!(chain.concat(), entries, "n {n}, dup {dup}");
                let top = n / dup + 1;
                for (lb, ub) in [(0, top), (top / 3, top / 3), (top / 2, top / 2 + 7), (top, 0)] {
                    assert_eq!(
                        range(&bulk, lb, ub),
                        range(&single, lb, ub),
                        "n {n}, dup {dup}, [{lb}, {ub}]"
                    );
                }
                let lens: Vec<usize> = chain.iter().map(Vec::len).collect();
                let full = lens.iter().rev().skip(1).all(|&l| l == CAP);
                assert!(full && lens.iter().all(|&l| l > 0), "n {n}: {lens:?}");
                assert_eq!(
                    bulk.leaves.len(),
                    bulk.leaves.capacity(),
                    "the leaf table is sized once"
                );
                assert_eq!(bulk.internals.len(), bulk.internals.capacity());
            }
        }
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t: BPlusTree<u64, u64> = BPlusTree::bulk_load(vec![]);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        let t = BPlusTree::bulk_load(vec![(1u64, 2u64)]);
        assert_eq!(t.get(&1), vec![2]);
    }

    /// A bulk-loaded host tree costs ≈ 16 bytes a 16-byte entry, and inserts
    /// after the load grow it by the nodes they create and the pointers to
    /// them — never by a copy of the tree.
    #[test]
    fn a_host_tree_costs_its_entries_and_grows_a_node_at_a_time() {
        const N: u64 = 600_000;
        let entries = (0..N).map(|i| (F64Key(i as f64), Tid(i))).collect();
        let mut t = BPlusTree::bulk_load(entries);
        let loaded = t.memory_bytes();
        assert!(loaded as f64 / N as f64 <= 16.5, "{loaded} B for {N} entries");
        let nodes = |t: &BPlusTree<F64Key, Tid>| (t.leaves.len(), t.internals.len());
        let (leaves, internals) = nodes(&t);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t.insert(F64Key((state % N) as f64 + 0.5), Tid(N + i));
        }
        t.check_invariants().unwrap();
        let (new_leaves, new_internals) = nodes(&t);
        assert!(new_leaves > leaves, "the inserts split leaves");
        let created = (new_leaves - leaves) * size_of::<Leaf<F64Key, Tid>>()
            + (new_internals - internals) * size_of::<Internal<F64Key>>();
        // The pointer tables at most double: under two pointers a node.
        let pointers = 2 * (new_leaves + new_internals) * size_of::<usize>();
        let grown = t.memory_bytes() - loaded;
        assert!(
            created <= grown && grown <= created + pointers,
            "grew {grown} B for {created} B of new nodes ({pointers} B of pointers allowed)"
        );
    }

    #[test]
    fn memory_grows_with_entries() {
        let small = tree_with(100).memory_bytes();
        let large = tree_with(10_000).memory_bytes();
        assert!(large > small * 10, "memory should scale: {small} vs {large}");
    }

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(tree_with(10).height(), 1);
        let t = tree_with(100_000);
        assert!(t.height() >= 3 && t.height() <= 5, "height = {}", t.height());
    }

    #[test]
    fn float_keys_via_f64key() {
        let mut t: BPlusTree<F64Key, u64> = BPlusTree::new();
        for i in 0..100 {
            t.insert(F64Key(i as f64 * 0.5), i);
        }
        let hits: Vec<u64> =
            range(&t, F64Key(10.0), F64Key(12.0)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(hits, vec![20, 21, 22, 23, 24]);
    }

    #[test]
    fn interleaved_insert_remove_stress() {
        let mut t = BPlusTree::new();
        // Deterministic pseudo-random workload.
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut live: Vec<(u64, u64)> = Vec::new();
        for step in 0..20_000 {
            if live.is_empty() || rng() % 3 != 0 {
                let k = rng() % 500;
                let v = step as u64;
                t.insert(k, v);
                live.push((k, v));
            } else {
                let idx = (rng() as usize) % live.len();
                let (k, v) = live.swap_remove(idx);
                assert!(t.remove(&k, &v), "entry ({k},{v}) should exist");
            }
        }
        assert_eq!(t.len(), live.len());
        t.check_invariants().unwrap();
        // Every remaining entry is still findable.
        for &(k, v) in live.iter().take(200) {
            assert!(t.get(&k).contains(&v));
        }
    }
}
