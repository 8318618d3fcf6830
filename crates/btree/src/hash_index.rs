//! Hash-based primary index.
//!
//! Under the logical-pointer scheme (§5.1), every secondary-index lookup —
//! baseline or Hermit — must resolve primary keys to row locations through
//! the primary index. The resolution is always a point lookup, so a hash
//! map is the natural structure; the B+-tree variant is also available when
//! the primary index doubles as a host index (the paper notes a primary
//! index can serve as the host index).

use hermit_storage::RowLoc;
use std::collections::HashMap;

/// Primary index: primary key → row location.
#[derive(Debug, Default, Clone)]
pub struct HashPrimaryIndex {
    map: HashMap<i64, RowLoc>,
}

impl HashPrimaryIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty index with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HashPrimaryIndex { map: HashMap::with_capacity(cap) }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Register (or move) a primary key; returns its previous location.
    pub fn insert(&mut self, pk: i64, loc: RowLoc) -> Option<RowLoc> {
        self.map.insert(pk, loc)
    }

    /// Resolve a primary key to its row location.
    #[inline]
    pub fn get(&self, pk: i64) -> Option<RowLoc> {
        self.map.get(&pk).copied()
    }

    /// Remove a primary key; returns its old location.
    pub fn remove(&mut self, pk: i64) -> Option<RowLoc> {
        self.map.remove(&pk)
    }

    /// Approximate heap bytes. A `HashMap` bucket holds the key, value, and
    /// control metadata; we charge capacity × entry size plus one control
    /// byte per slot (hashbrown layout).
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(i64, RowLoc)>();
        self.map.capacity() * (entry + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut idx = HashPrimaryIndex::new();
        idx.insert(1, RowLoc::new(0, 5));
        idx.insert(2, RowLoc::new(1, 0));
        assert_eq!(idx.get(1), Some(RowLoc::new(0, 5)));
        assert_eq!(idx.get(3), None);
        assert_eq!(idx.remove(1), Some(RowLoc::new(0, 5)));
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn reinsert_moves_key() {
        let mut idx = HashPrimaryIndex::new();
        assert_eq!(idx.insert(7, RowLoc::new(0, 0)), None);
        assert_eq!(idx.insert(7, RowLoc::new(9, 9)), Some(RowLoc::new(0, 0)));
        assert_eq!(idx.get(7), Some(RowLoc::new(9, 9)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn memory_scales() {
        let mut idx = HashPrimaryIndex::new();
        for i in 0..10_000 {
            idx.insert(i, RowLoc::from_index(i as usize));
        }
        assert!(idx.memory_bytes() >= 10_000 * 16);
    }
}
