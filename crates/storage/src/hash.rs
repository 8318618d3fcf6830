//! The hasher of the engine's own integer keys.
//!
//! The standard library's default hasher, SipHash-1-3 under a random
//! per-map key, keeps an adversary from choosing keys that collide. Keys
//! the engine makes itself — page ids in the buffer pool's page table —
//! are chosen by no client, so they need only spread: [`IntMap`] hashes
//! them with one SplitMix64 finalizer ([`mix`]) instead of a SipHash
//! round. Keys a client chooses, such as primary keys, stay under the
//! default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64's finalizer: every input bit reaches every output bit, so
/// consecutive keys do not land in consecutive buckets.
#[inline]
pub fn mix(key: u64) -> u64 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hasher of engine-made integer keys (see the module docs). Bytes
/// written any other way are folded in eight at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IntHasher`]s.
pub type IntState = BuildHasherDefault<IntHasher>;

/// A `HashMap` of engine-made integer keys.
pub type IntMap<K, V> = HashMap<K, V, IntState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn map_agrees_with_the_default_hasher() {
        let mut ints: IntMap<i64, u32> = IntMap::default();
        let mut std_map: HashMap<i64, u32> = HashMap::new();
        for i in 0..10_000i64 {
            let k = i.wrapping_mul(0x9e37_79b9) ^ (i << 40);
            ints.insert(k, i as u32);
            std_map.insert(k, i as u32);
            if i % 3 == 0 {
                assert_eq!(ints.remove(&(k - 1)), std_map.remove(&(k - 1)));
            }
        }
        assert_eq!(ints.len(), std_map.len());
        assert!(std_map.iter().all(|(k, v)| ints.get(k) == Some(v)));
    }

    /// Consecutive keys spread over the buckets: no bucket of a 1 024-way
    /// split of 64 K consecutive keys takes more than twice its share.
    #[test]
    fn consecutive_keys_spread() {
        let ints = IntState::default();
        let mut buckets = [0u32; 1024];
        for k in 0..65_536u64 {
            buckets[(ints.hash_one(k) % 1024) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n > 0 && n < 128));
    }
}
