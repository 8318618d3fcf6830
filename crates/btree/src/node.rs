//! B+-tree node representation: fixed-size, page-shaped nodes.
//!
//! A node is one allocation of a fixed size: a count, the links, and inline
//! arrays of [`CAP`] keys (and values, or `CAP + 1` child ids). A leaf of
//! `(F64Key, Tid)` entries is 4 088 bytes, so it fills one 4 KiB allocation;
//! an internal node of `F64Key`s is 3 072. The tree
//! ([`crate::tree::BPlusTree`]) keeps leaves and internal nodes in two
//! tables of boxes and links them by index, so a new node never moves the
//! others and the crate needs no `unsafe`.
//!
//! This departs on purpose from the paper's DBMS-X nodes "sized at 256
//! bytes" (§7.1): with 32 keys a node, two heap `Vec`s and their headers
//! cost ≈ 20 bytes per 16-byte entry, where a page-shaped leaf costs ≈ 16.
//! The arrays are always fully initialized — slots past the count hold
//! copies of some earlier key or value — which is why keys and values must
//! be `Copy`.

/// Index of a node inside its table.
pub type NodeId = u32;

/// Sentinel meaning "no node" (the last leaf's `next` link, an empty tree's
/// root).
pub const NIL: NodeId = u32::MAX;

/// Entries a leaf holds, and keys an internal node holds. 255 entries of
/// 16 bytes plus an 8-byte header fill a 4 KiB page.
pub const CAP: usize = 255;

/// A leaf: a sorted multi-set of up to [`CAP`] entries and a right-sibling
/// link for range scans.
#[derive(Debug, Clone)]
pub struct Leaf<K, V> {
    len: u32,
    /// Right sibling, or [`NIL`].
    pub next: NodeId,
    keys: [K; CAP],
    values: [V; CAP],
}

impl<K: Copy, V: Copy> Leaf<K, V> {
    /// A leaf holding `entries`, in order, linked to [`NIL`].
    ///
    /// Panics if `entries` is empty or longer than [`CAP`].
    pub fn with_entries(entries: impl IntoIterator<Item = (K, V)>) -> Box<Self> {
        let mut entries = entries.into_iter();
        let (key, value) = entries.next().expect("a leaf is built from at least one entry");
        let mut leaf = Box::new(Leaf { len: 1, next: NIL, keys: [key; CAP], values: [value; CAP] });
        for (key, value) in entries {
            leaf.insert(leaf.len(), key, value);
        }
        leaf
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if another entry needs a split first.
    pub fn is_full(&self) -> bool {
        self.len() == CAP
    }

    /// The sorted keys.
    pub fn keys(&self) -> &[K] {
        &self.keys[..self.len()]
    }

    /// The values, parallel to [`Self::keys`].
    pub fn values(&self) -> &[V] {
        &self.values[..self.len()]
    }

    /// Put `(key, value)` at position `idx`, shifting the tail right.
    /// Panics if the leaf is full.
    pub fn insert(&mut self, idx: usize, key: K, value: V) {
        let len = self.len();
        assert!(len < CAP, "insert into a full leaf");
        self.keys.copy_within(idx..len, idx + 1);
        self.values.copy_within(idx..len, idx + 1);
        self.keys[idx] = key;
        self.values[idx] = value;
        self.len += 1;
    }

    /// Take out the entry at `idx`, shifting the tail left.
    pub fn remove(&mut self, idx: usize) {
        let len = self.len();
        self.keys.copy_within(idx + 1..len, idx);
        self.values.copy_within(idx + 1..len, idx);
        self.len -= 1;
    }

    /// Move the entries from `at` on into a new leaf that takes over this
    /// leaf's `next` link (the caller links this leaf to it).
    pub fn split_off(&mut self, at: usize) -> Box<Self> {
        let mut right = Box::new(self.clone());
        let moved = self.len() - at;
        right.keys.copy_within(at..self.len(), 0);
        right.values.copy_within(at..self.len(), 0);
        right.len = moved as u32;
        self.len = at as u32;
        right
    }
}

/// An internal node: `keys().len() + 1` children, where child `i` holds
/// keys between separators `i - 1` and `i` (inclusive on both sides:
/// duplicate runs may straddle a separator). Inserts route right on
/// equality, scans start left on equality.
#[derive(Debug, Clone)]
pub struct Internal<K> {
    len: u32,
    keys: [K; CAP],
    children: [NodeId; CAP + 1],
}

impl<K: Copy> Internal<K> {
    /// A node whose only child is `first` (`fill` initializes the unused
    /// key slots; any key will do).
    pub fn new(first: NodeId, fill: K) -> Box<Self> {
        let mut children = [NIL; CAP + 1];
        children[0] = first;
        Box::new(Internal { len: 0, keys: [fill; CAP], children })
    }

    /// True if another separator needs a split first.
    pub fn is_full(&self) -> bool {
        self.len as usize == CAP
    }

    /// The separator keys.
    pub fn keys(&self) -> &[K] {
        &self.keys[..self.len as usize]
    }

    /// The child ids, one more than [`Self::keys`].
    pub fn children(&self) -> &[NodeId] {
        &self.children[..=self.len as usize]
    }

    /// Put separator `sep` at `idx` and the child right of it at `idx + 1`.
    /// Panics if the node is full.
    pub fn insert(&mut self, idx: usize, sep: K, child: NodeId) {
        let len = self.len as usize;
        assert!(len < CAP, "insert into a full internal node");
        self.keys.copy_within(idx..len, idx + 1);
        self.children.copy_within(idx + 1..=len, idx + 2);
        self.keys[idx] = sep;
        self.children[idx + 1] = child;
        self.len += 1;
    }

    /// Split around separator `mid`: this node keeps the separators before
    /// it, the returned node takes those after it, and `mid` itself is
    /// returned for the parent.
    pub fn split_off(&mut self, mid: usize) -> (K, Box<Self>) {
        let len = self.len as usize;
        let sep = self.keys[mid];
        let mut right = Box::new(self.clone());
        right.keys.copy_within(mid + 1..len, 0);
        right.children.copy_within(mid + 1..=len, 0);
        right.len = (len - mid - 1) as u32;
        self.len = mid as u32;
        (sep, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::{F64Key, Tid};

    #[test]
    fn a_host_tree_leaf_fits_a_page() {
        assert!(std::mem::size_of::<Leaf<F64Key, Tid>>() <= 4096);
        assert!(std::mem::size_of::<Internal<F64Key>>() <= 4096);
        // And nearly fills it: the header is all that is not an entry.
        assert_eq!(std::mem::size_of::<Leaf<F64Key, Tid>>(), CAP * 16 + 8);
    }

    #[test]
    fn leaf_inserts_removes_and_splits_at_capacity() {
        let mut leaf = Leaf::with_entries((0..CAP as u64 - 1).map(|i| (2 * i, i)));
        assert_eq!(leaf.len(), CAP - 1);
        leaf.insert(1, 1, 99);
        assert!(leaf.is_full());
        assert_eq!(&leaf.keys()[..3], &[0, 1, 2]);
        assert_eq!(&leaf.values()[..3], &[0, 99, 1]);
        leaf.remove(0);
        assert_eq!((leaf.len(), leaf.keys()[0], leaf.values()[0]), (CAP - 1, 1, 99));
        leaf.insert(0, 0, 0);
        leaf.next = 7;
        let right = leaf.split_off(CAP / 2);
        assert_eq!((leaf.len(), right.len()), (CAP / 2, CAP - CAP / 2));
        assert_eq!(leaf.keys().last(), Some(&(2 * (CAP as u64 / 2 - 2))));
        assert_eq!(right.keys().last(), Some(&(2 * (CAP as u64 - 2))));
        assert_eq!(right.next, 7);
    }

    #[test]
    fn internal_keeps_one_more_child_than_keys_across_a_split() {
        let mut node = Internal::new(0, 0u64);
        for i in 1..=CAP as u32 {
            node.insert(i as usize - 1, u64::from(i) * 10, i);
        }
        assert!(node.is_full());
        assert_eq!(node.children().len(), CAP + 1);
        let (sep, right) = node.split_off(CAP / 2);
        assert_eq!(sep, (CAP as u64 / 2 + 1) * 10);
        assert_eq!((node.keys().len(), right.keys().len()), (CAP / 2, CAP - CAP / 2 - 1));
        assert_eq!(node.children().len() + right.children().len(), CAP + 1);
        assert_eq!(right.children()[0], CAP as u32 / 2 + 1);
        assert_eq!(right.keys()[0], (CAP as u64 / 2 + 2) * 10);
    }
}
