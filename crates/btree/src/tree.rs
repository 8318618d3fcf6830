//! The B+-tree proper: insert, delete, point/range lookup, bulk load.
//!
//! Duplicate keys are fully supported (secondary indexes routinely map one
//! key to many tuples). Equal keys route *right* on insert and scans start
//! at the *leftmost* occurrence, so all duplicates are reachable by walking
//! the leaf chain.
//!
//! Deletion is "lazy" in the style of many production main-memory engines:
//! entries are removed from their leaf but underfull leaves are not
//! rebalanced (structural shrinking happens only when a leaf empties
//! entirely, by unlinking it from scans implicitly — empty leaves are simply
//! skipped). This keeps the concurrency story simple and matches the way
//! the paper's experiments use the baseline (insert/lookup heavy).

use crate::node::{Node, NodeId, MAX_KEYS, NIL};

/// Leaves [`BPlusTree::bulk_load`] builds between two releases of its
/// input's tail: 2 048 leaves copy 1 MiB of 16-byte entries.
const SHRINK_EVERY: usize = 2_048;

/// An arena-allocated B+-tree with duplicate-key support.
///
/// `K` is the key type (use `hermit_storage::F64Key` for float keys), `V`
/// the value type (typically `Tid` or `RowLoc`).
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    arena: Vec<Node<K, V>>,
    root: NodeId,
    len: usize,
    height: usize,
}

impl<K: Ord + Clone, V: Clone + PartialEq> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of inserting into a subtree: a split produces a separator key and
/// the id of the new right sibling.
struct Split<K> {
    sep: K,
    right: NodeId,
}

impl<K: Ord + Clone, V: Clone + PartialEq> BPlusTree<K, V> {
    /// Empty tree (a single empty leaf).
    pub fn new() -> Self {
        let arena = vec![Node::new_leaf()];
        BPlusTree { arena, root: 0, len: 0, height: 1 }
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

    /// Total heap bytes held by the tree's nodes. This is the number the
    /// paper's memory figures report for the baseline index.
    pub fn memory_bytes(&self) -> usize {
        self.arena.iter().map(|n| n.memory_bytes()).sum::<usize>()
            + self.arena.capacity() * std::mem::size_of::<Node<K, V>>()
    }

    fn alloc(&mut self, node: Node<K, V>) -> NodeId {
        self.arena.push(node);
        (self.arena.len() - 1) as NodeId
    }

    /// Insert an entry. Duplicates (same key, even same value) are allowed.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(split) = self.insert_rec(self.root, key, value) {
            // Root split: grow a level.
            let new_root = self.alloc(Node::Internal {
                keys: vec![split.sep],
                children: vec![self.root, split.right],
            });
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, node_id: NodeId, key: K, value: V) -> Option<Split<K>> {
        match &self.arena[node_id as usize] {
            Node::Leaf { .. } => self.insert_into_leaf(node_id, key, value),
            Node::Internal { keys, .. } => {
                // Route right on equality so duplicate runs extend rightwards.
                let idx = keys.partition_point(|k| *k <= key);
                let child = match &self.arena[node_id as usize] {
                    Node::Internal { children, .. } => children[idx],
                    _ => unreachable!(),
                };
                let split = self.insert_rec(child, key, value)?;
                // Child split: install separator + new child here.
                let full = {
                    let Node::Internal { keys, children } = &mut self.arena[node_id as usize]
                    else {
                        unreachable!()
                    };
                    keys.insert(idx, split.sep);
                    children.insert(idx + 1, split.right);
                    keys.len() > MAX_KEYS
                };
                if full {
                    Some(self.split_internal(node_id))
                } else {
                    None
                }
            }
        }
    }

    fn insert_into_leaf(&mut self, leaf_id: NodeId, key: K, value: V) -> Option<Split<K>> {
        let full = {
            let Node::Leaf { keys, values, .. } = &mut self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let idx = keys.partition_point(|k| *k <= key);
            keys.insert(idx, key);
            values.insert(idx, value);
            keys.len() > MAX_KEYS
        };
        if full {
            Some(self.split_leaf(leaf_id))
        } else {
            None
        }
    }

    fn split_leaf(&mut self, leaf_id: NodeId) -> Split<K> {
        let (right_keys, right_values, old_next) = {
            let Node::Leaf { keys, values, next } = &mut self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), values.split_off(mid), *next)
        };
        let sep = right_keys[0].clone();
        let right =
            self.alloc(Node::Leaf { keys: right_keys, values: right_values, next: old_next });
        let Node::Leaf { next, .. } = &mut self.arena[leaf_id as usize] else { unreachable!() };
        *next = right;
        Split { sep, right }
    }

    fn split_internal(&mut self, node_id: NodeId) -> Split<K> {
        let (sep, right_keys, right_children) = {
            let Node::Internal { keys, children } = &mut self.arena[node_id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid + 1);
            let sep = keys.pop().expect("mid key exists");
            let right_children = children.split_off(mid + 1);
            (sep, right_keys, right_children)
        };
        let right = self.alloc(Node::Internal { keys: right_keys, children: right_children });
        Split { sep, right }
    }

    /// Leaf that may contain the *leftmost* occurrence of `key`.
    fn find_leaf(&self, key: &K) -> NodeId {
        let mut node_id = self.root;
        loop {
            match &self.arena[node_id as usize] {
                Node::Leaf { .. } => return node_id,
                Node::Internal { keys, children } => {
                    // Route left on equality to reach the first duplicate.
                    let idx = keys.partition_point(|k| k < key);
                    node_id = children[idx];
                }
            }
        }
    }

    /// Visit every value stored under `key` without allocating.
    ///
    /// This is the point-probe hot path: where [`Self::get`] materializes a
    /// `Vec<V>` per call, `for_each_eq` walks the duplicate run in place
    /// (crossing leaf boundaries as needed) and hands each value to `f`.
    pub fn for_each_eq(&self, key: &K, mut f: impl FnMut(&V)) {
        let mut leaf_id = self.find_leaf(key);
        loop {
            let Node::Leaf { keys, values, next } = &self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let start = keys.partition_point(|k| k < key);
            for i in start..keys.len() {
                if keys[i] != *key {
                    return;
                }
                f(&values[i]);
            }
            // The run may continue into the next leaf (long duplicate runs
            // span leaves; lazy deletion can also leave empty leaves).
            if *next == NIL {
                return;
            }
            leaf_id = *next;
        }
    }

    /// All values stored under `key`, in insertion-adjacent order.
    ///
    /// Allocates a fresh `Vec` per call; executors should prefer
    /// [`Self::for_each_eq`].
    pub fn get(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each_eq(key, |v| out.push(v.clone()));
        out
    }

    /// True if at least one entry with `key` exists.
    pub fn contains_key(&self, key: &K) -> bool {
        let mut found = false;
        self.for_each_eq(key, |_| found = true);
        found
    }

    /// Visit every entry with `lb <= key <= ub` in key order.
    ///
    /// This closure-based scan is the hot path used by the executors; the
    /// iterator API ([`Self::range`]) wraps the same traversal.
    pub fn for_each_in_range(&self, lb: &K, ub: &K, mut f: impl FnMut(&K, &V)) {
        if lb > ub {
            return;
        }
        let mut leaf_id = self.find_leaf(lb);
        loop {
            let Node::Leaf { keys, values, next } = &self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let start = keys.partition_point(|k| k < lb);
            for i in start..keys.len() {
                if keys[i] > *ub {
                    return;
                }
                f(&keys[i], &values[i]);
            }
            if *next == NIL {
                return;
            }
            leaf_id = *next;
        }
    }

    /// Count entries in `[lb, ub]` without materializing them.
    pub fn count_in_range(&self, lb: &K, ub: &K) -> usize {
        let mut n = 0;
        self.for_each_in_range(lb, ub, |_, _| n += 1);
        n
    }

    /// Iterator over entries in `[lb, ub]`.
    pub fn range(&self, lb: K, ub: K) -> RangeIter<'_, K, V> {
        let leaf = if lb <= ub { self.find_leaf(&lb) } else { NIL };
        let idx = if leaf != NIL {
            let Node::Leaf { keys, .. } = &self.arena[leaf as usize] else { unreachable!() };
            keys.partition_point(|k| *k < lb)
        } else {
            0
        };
        RangeIter { tree: self, leaf, idx, ub }
    }

    /// Remove one entry matching `(key, value)`. Returns true if removed.
    ///
    /// Lazy deletion: the leaf is not rebalanced.
    pub fn remove(&mut self, key: &K, value: &V) -> bool {
        let mut leaf_id = self.find_leaf(key);
        loop {
            let Node::Leaf { keys, values, next } = &mut self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let start = keys.partition_point(|k| k < key);
            let mut i = start;
            while i < keys.len() && keys[i] == *key {
                if values[i] == *value {
                    keys.remove(i);
                    values.remove(i);
                    self.len -= 1;
                    return true;
                }
                i += 1;
            }
            // Duplicates may spill into the next leaf.
            if i == keys.len() && *next != NIL {
                let next_id = *next;
                let Node::Leaf { keys: nk, .. } = &self.arena[next_id as usize] else {
                    unreachable!()
                };
                if nk.first().is_some_and(|k| k == key) || nk.is_empty() {
                    leaf_id = next_id;
                    continue;
                }
            }
            return false;
        }
    }

    /// Remove *all* entries under `key`; returns how many were removed.
    pub fn remove_all(&mut self, key: &K) -> usize {
        let mut removed = 0;
        let mut leaf_id = self.find_leaf(key);
        loop {
            let Node::Leaf { keys, values, next } = &mut self.arena[leaf_id as usize] else {
                unreachable!()
            };
            let start = keys.partition_point(|k| k < key);
            let end = keys.partition_point(|k| k <= key);
            if start < end {
                keys.drain(start..end);
                values.drain(start..end);
                removed += end - start;
            }
            // Continue while the next leaf still starts with `key` (or is
            // empty and must be skipped).
            if *next == NIL {
                break;
            }
            let next_id = *next;
            let Node::Leaf { keys: nk, .. } = &self.arena[next_id as usize] else { unreachable!() };
            if nk.first().is_some_and(|k| k <= key) {
                leaf_id = next_id;
            } else {
                break;
            }
        }
        self.len -= removed;
        removed
    }

    /// Build a tree from entries sorted by key. Leaves are packed to
    /// `MAX_KEYS`, giving the dense layout a freshly-built index would have.
    ///
    /// The input is consumed as the tree is built: its leaves are built
    /// 2 048 at a time from its back, and after each stride the input
    /// hands back the memory they copied, so the sorted input and the
    /// finished tree are never resident side by side (a build's peak is the
    /// tree plus one stride).
    ///
    /// Panics in debug builds if the input is unsorted.
    pub fn bulk_load(mut entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires key-sorted input"
        );
        if entries.is_empty() {
            return Self::new();
        }
        let len = entries.len();
        let leaves = len.div_ceil(MAX_KEYS);
        let (mut nodes, mut width) = (leaves, leaves);
        while width > 1 {
            width = width.div_ceil(MAX_KEYS + 1);
            nodes += width;
        }
        let mut tree = BPlusTree { arena: Vec::with_capacity(nodes), root: 0, len, height: 1 };

        // Level 0: packed leaves, one stride at a time from the back of the
        // input, each stride's leaves allocated in key order (a range scan
        // then walks memory upwards, the way the hardware prefetches), and
        // the stride's entries released before the next stride is built.
        let empty = || Node::Leaf { keys: Vec::new(), values: Vec::new(), next: NIL };
        tree.arena.resize_with(leaves, empty);
        let mut end = leaves;
        while end > 0 {
            let start = end.saturating_sub(SHRINK_EVERY);
            for (i, chunk) in (start..).zip(entries[start * MAX_KEYS..].chunks(MAX_KEYS)) {
                let keys = chunk.iter().map(|(k, _)| k.clone()).collect();
                let values = chunk.iter().map(|(_, v)| v.clone()).collect();
                let next = if i + 1 < leaves { (i + 1) as NodeId } else { NIL };
                tree.arena[i] = Node::Leaf { keys, values, next };
            }
            entries.truncate(start * MAX_KEYS);
            entries.shrink_to_fit();
            end = start;
        }
        let mut level: Vec<(K, NodeId)> = Vec::with_capacity(leaves);
        for (id, node) in tree.arena.iter().enumerate() {
            let Node::Leaf { keys, .. } = node else { unreachable!() };
            level.push((keys[0].clone(), id as NodeId));
        }

        // Upper levels: group children MAX_KEYS+1 at a time.
        while level.len() > 1 {
            let mut next_level: Vec<(K, NodeId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let group_end = (i + MAX_KEYS + 1).min(level.len());
                let group = &level[i..group_end];
                let first_key = group[0].0.clone();
                let children: Vec<NodeId> = group.iter().map(|(_, id)| *id).collect();
                let keys: Vec<K> = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let id = tree.alloc(Node::Internal { keys, children });
                next_level.push((first_key, id));
                i = group_end;
            }
            level = next_level;
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree
    }

    /// Check structural invariants (tests / debugging): sorted leaves,
    /// consistent separator routing, linked leaf chain covering all entries.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Walk the leaf chain from the leftmost leaf.
        let mut node_id = self.root;
        loop {
            match &self.arena[node_id as usize] {
                Node::Leaf { .. } => break,
                Node::Internal { children, keys } => {
                    if children.len() != keys.len() + 1 {
                        return Err(format!(
                            "internal node {node_id}: {} children for {} keys",
                            children.len(),
                            keys.len()
                        ));
                    }
                    node_id = children[0];
                }
            }
        }
        let mut count = 0;
        let mut prev: Option<K> = None;
        let mut leaf_id = node_id;
        loop {
            let Node::Leaf { keys, values, next } = &self.arena[leaf_id as usize] else {
                return Err("leaf chain hit an internal node".into());
            };
            if keys.len() != values.len() {
                return Err(format!("leaf {leaf_id}: key/value arity mismatch"));
            }
            for k in keys {
                if let Some(p) = &prev {
                    if p > k {
                        return Err(format!("leaf {leaf_id}: keys out of order"));
                    }
                }
                prev = Some(k.clone());
                count += 1;
            }
            if *next == NIL {
                break;
            }
            leaf_id = *next;
        }
        if count != self.len {
            return Err(format!("leaf chain has {count} entries but len() = {}", self.len));
        }
        Ok(())
    }
}

/// Iterator over `[lb, ub]` produced by [`BPlusTree::range`].
pub struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: NodeId,
    idx: usize,
    ub: K,
}

impl<'a, K: Ord + Clone, V: Clone + PartialEq> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            let Node::Leaf { keys, values, next } = &self.tree.arena[self.leaf as usize] else {
                unreachable!()
            };
            if self.idx < keys.len() {
                let k = &keys[self.idx];
                if *k > self.ub {
                    self.leaf = NIL;
                    return None;
                }
                let v = &values[self.idx];
                self.idx += 1;
                return Some((k, v));
            }
            self.leaf = *next;
            self.idx = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(n: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::new();
        for i in 0..n {
            t.insert(i, i * 10);
        }
        t
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
        let all: Vec<u64> = t.range(0, 999).map(|(k, _)| *k).collect();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn for_each_eq_matches_get_across_leaf_spans() {
        let mut t = BPlusTree::new();
        for i in 0..200u64 {
            t.insert(i, i);
        }
        for v in 0..300u64 {
            t.insert(77, 10_000 + v); // duplicate run spanning several leaves
        }
        let mut visited = Vec::new();
        t.for_each_eq(&77, |&v| visited.push(v));
        // Independent oracle: the range scan (get() delegates to
        // for_each_eq, so comparing against it would be circular).
        let mut oracle = Vec::new();
        t.for_each_in_range(&77, &77, |_, &v| oracle.push(v));
        assert_eq!(visited, oracle);
        assert_eq!(visited.len(), 301);
        // Absent keys visit nothing, including past-the-end ones.
        let mut n = 0;
        t.for_each_eq(&999, |_| n += 1);
        t.for_each_eq(&1_000_000, |_| n += 1);
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
        let hits: Vec<u64> = t.range(100, 199).map(|(k, _)| *k).collect();
        assert_eq!(hits.len(), 100);
        assert_eq!(hits[0], 100);
        assert_eq!(hits[99], 199);
        // Empty and inverted ranges.
        assert_eq!(t.range(2000, 3000).count(), 0);
        assert_eq!(t.range(10, 5).count(), 0);
        assert_eq!(t.count_in_range(&100, &199), 100);
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

    #[test]
    fn remove_all_duplicates_spanning_leaves() {
        let mut t = BPlusTree::new();
        for i in 0..100u64 {
            t.insert(i, 0);
        }
        for v in 0..200u64 {
            t.insert(50, 1000 + v); // long duplicate run spans several leaves
        }
        let removed = t.remove_all(&50);
        assert_eq!(removed, 201);
        assert!(t.get(&50).is_empty());
        assert_eq!(t.len(), 99);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let entries: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i * 3)).collect();
        let bulk = BPlusTree::bulk_load(entries.clone());
        bulk.check_invariants().unwrap();
        assert_eq!(bulk.len(), 10_000);
        assert_eq!(bulk.get(&9_999), vec![29_997]);
        let scan: Vec<u64> = bulk.range(5000, 5009).map(|(k, _)| *k).collect();
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
        assert_eq!(t.count_in_range(&0, &3999), 2000);
    }

    /// Each leaf's entries, in leaf-chain order from the leftmost leaf.
    fn leaves(t: &BPlusTree<u64, u64>) -> Vec<Vec<(u64, u64)>> {
        let mut id = t.root;
        while let Node::Internal { children, .. } = &t.arena[id as usize] {
            id = children[0];
        }
        let mut out = Vec::new();
        while id != NIL {
            let Node::Leaf { keys, values, next } = &t.arena[id as usize] else { unreachable!() };
            out.push(keys.iter().copied().zip(values.iter().copied()).collect());
            id = *next;
        }
        out
    }

    /// A bulk load holds what single inserts of the same entries hold: the
    /// same leaf chain and the same range results, duplicates in input
    /// order, at sizes around a leaf and past the input's shrink stride;
    /// every leaf but the last is full.
    #[test]
    fn bulk_load_equals_single_inserts() {
        for n in [0u64, 1, 31, 32, 33, (SHRINK_EVERY * MAX_KEYS + 1) as u64] {
            for dup in [1u64, 3, 45] {
                // Key i / dup: runs of `dup` equal keys; runs of 3 and of
                // 45 cross leaf boundaries.
                let entries: Vec<(u64, u64)> = (0..n).map(|i| (i / dup, i)).collect();
                let bulk = BPlusTree::bulk_load(entries.clone());
                let mut single = BPlusTree::new();
                for &(k, v) in &entries {
                    single.insert(k, v);
                }
                bulk.check_invariants().unwrap();
                let chain = leaves(&bulk);
                assert_eq!((bulk.len(), chain.concat()), (single.len(), leaves(&single).concat()));
                assert_eq!(chain.concat(), entries, "n {n}, dup {dup}");
                let top = n / dup + 1;
                for (lb, ub) in [(0, top), (top / 3, top / 3), (top / 2, top / 2 + 7), (top, 0)] {
                    let got: Vec<_> = bulk.range(lb, ub).map(|(&k, &v)| (k, v)).collect();
                    let want: Vec<_> = single.range(lb, ub).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "n {n}, dup {dup}, [{lb}, {ub}]");
                }
                let lens: Vec<usize> = chain.iter().map(Vec::len).collect();
                let full = lens.iter().rev().skip(1).all(|&l| l == MAX_KEYS);
                assert!(full && lens.iter().all(|&l| l > 0 || n == 0), "n {n}: {lens:?}");
                assert_eq!(bulk.arena.len(), bulk.arena.capacity(), "the arena is sized once");
            }
        }
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t: BPlusTree<u64, u64> = BPlusTree::bulk_load(vec![]);
        assert!(t.is_empty());
        let t = BPlusTree::bulk_load(vec![(1u64, 2u64)]);
        assert_eq!(t.get(&1), vec![2]);
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
        use hermit_storage::F64Key;
        let mut t: BPlusTree<F64Key, u64> = BPlusTree::new();
        for i in 0..100 {
            t.insert(F64Key(i as f64 * 0.5), i);
        }
        let hits: Vec<u64> = t.range(F64Key(10.0), F64Key(12.0)).map(|(_, v)| *v).collect();
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
