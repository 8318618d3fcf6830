//! Hash-based primary index.
//!
//! Under the logical-pointer scheme (§5.1), every secondary-index lookup —
//! baseline or Hermit — must resolve primary keys to row locations through
//! the primary index. The resolution is always a point lookup, so a hash
//! map is the natural structure; the B+-tree variant is also available when
//! the primary index doubles as a host index (the paper notes a primary
//! index can serve as the host index).
//!
//! # Two tiers
//!
//! A reopened database knows how many keys it is about to index before the
//! first one arrives: recovery sizes the index to the recovered heap with
//! [`HashPrimaryIndex::with_capacity`]. Those keys go to the **base** tier,
//! one flat table of 16-byte `(key, location)` slots that is allocated once,
//! kept at most 85 % full and never grown: linear probing from a SplitMix64
//! hash of the key, and a tombstone on remove. It costs 18.8 B per key where
//! a `HashMap` pays 28.8 B at 1.24 M keys (power-of-two buckets, each with a
//! control byte, at most 7/8 full).
//!
//! Keys that arrive once the base has taken as many keys as it was sized
//! for go to the **delta** tier, a `HashMap`. A tombstone is never reused,
//! so it keeps its share of that budget, and a removed base key that comes
//! back lands in the delta.
//!
//! A database that was never reopened sizes no base, so its keys go to
//! the delta — or, in an index made by [`HashPrimaryIndex::with_run`], to
//! the **run** tier while each is one more than the last (a bulk load, an
//! auto-increment client): a `Vec` of locations indexed by `pk − first`,
//! 8 B per key, where the reserved `EMPTY` location marks a key that is
//! not indexed. A run key is found with one subtraction and one load, and
//! stored with a push; any other key goes to the delta. A scattering hash
//! makes every insert of an ascending load store to a random bucket of a
//! table that outgrows the caches, and a hash that keeps sixteen ascending
//! keys in one bucket window made random lookups up to 1.5 × slower once
//! the table filled; the run needs neither. Only a paged database takes a
//! run. Its tids are physical, so no secondary lookup resolves through this
//! index; an in-memory database under logical tids is how the paper's
//! experiments measure a hash primary index (§5.1, Figs. 10 and 14), and a
//! run would take that cost out of them. A key is live in at most one tier.

use hermit_storage::hash::mix;
use hermit_storage::RowLoc;
use std::collections::HashMap;

/// Location of a base slot that never held a key: probing stops here.
const EMPTY: RowLoc = RowLoc { block: u32::MAX, offset: u32::MAX };
/// Location of a base slot whose key was removed: probing continues past it.
const TOMBSTONE: RowLoc = RowLoc { block: u32::MAX, offset: u32::MAX - 1 };

/// One base slot; its state is in `loc` ([`EMPTY`], [`TOMBSTONE`], or the
/// key's row location).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: i64,
    loc: RowLoc,
}

/// Control bytes a `HashMap` allocates beyond one per bucket (one SIMD
/// group, mirrored for probes that wrap).
const MAP_GROUP_BYTES: usize = 16;

/// Primary index: primary key → row location.
#[derive(Debug, Default, Clone)]
pub struct HashPrimaryIndex {
    /// The base tier's slots, at least `budget / 0.85` of them.
    slots: Vec<Slot>,
    /// Keys the base may ever take.
    budget: usize,
    /// Base slots that ever took a key (live ones and tombstones).
    filled: usize,
    /// Live keys in the base.
    base_len: usize,
    /// Whether a base-less index keeps a run.
    takes_run: bool,
    /// The run tier: `run[i]` is the location of key `run_start + i`
    /// (wrapping), or [`EMPTY`]. Only a base-less index has one.
    run: Vec<RowLoc>,
    /// The key of `run[0]`.
    run_start: i64,
    /// Live keys in the run.
    run_len: usize,
    /// The delta tier.
    delta: HashMap<i64, RowLoc>,
}

impl HashPrimaryIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty index whose ascending keys go to the run tier (see the module
    /// docs).
    pub fn with_run() -> Self {
        HashPrimaryIndex { takes_run: true, ..Self::default() }
    }

    /// Empty index whose base tier takes the first `cap` keys; later keys
    /// go to the delta.
    pub fn with_capacity(cap: usize) -> Self {
        // ⌈cap / 0.85⌉ slots: more than `cap`, so a probe always meets an
        // empty slot.
        let slots = cap.saturating_mul(20).div_ceil(17);
        HashPrimaryIndex {
            slots: vec![Slot { key: 0, loc: EMPTY }; slots],
            budget: cap,
            ..Self::default()
        }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.base_len + self.run_len + self.delta.len()
    }

    /// True if no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live keys in the base tier and outside it, in the run and delta
    /// tiers (see the module docs).
    pub fn tier_lens(&self) -> (usize, usize) {
        (self.base_len, self.run_len + self.delta.len())
    }

    /// Walk `pk`'s probe sequence: `Ok` with its live slot, or `Err` with
    /// the empty slot that ends the sequence. `None` without a base.
    #[inline]
    fn probe(&self, pk: i64) -> Option<Result<usize, usize>> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        let mut i = ((u128::from(mix(pk as u64)) * n as u128) >> 64) as usize;
        loop {
            let slot = self.slots[i];
            if slot.loc == EMPTY {
                return Some(Err(i));
            }
            if slot.key == pk && slot.loc != TOMBSTONE {
                return Some(Ok(i));
            }
            i = if i + 1 == n { 0 } else { i + 1 };
        }
    }

    /// `pk`'s live base slot.
    #[inline]
    fn find(&self, pk: i64) -> Option<usize> {
        if self.base_len == 0 {
            return None;
        }
        self.probe(pk)?.ok()
    }

    /// `pk`'s index in the run, if the run covers it.
    #[inline]
    fn run_index(&self, pk: i64) -> Option<usize> {
        let i = usize::try_from(pk.wrapping_sub(self.run_start) as u64).ok()?;
        (i < self.run.len()).then_some(i)
    }

    /// `pk`'s live run entry.
    #[inline]
    fn run_entry(&self, pk: i64) -> Option<usize> {
        self.run_index(pk).filter(|&i| self.run[i] != EMPTY)
    }

    /// Register (or move) a primary key; returns its previous location.
    pub fn insert(&mut self, pk: i64, loc: RowLoc) -> Option<RowLoc> {
        // The two reserved locations cannot sit in a base slot or the run;
        // a heap never hands them out, and the delta holds them if one does.
        let storable = loc != EMPTY && loc != TOMBSTONE;
        if self.takes_run && self.slots.is_empty() {
            return self.insert_run(pk, loc, storable);
        }
        match self.probe(pk) {
            Some(Ok(i)) if storable => return Some(std::mem::replace(&mut self.slots[i].loc, loc)),
            Some(Ok(i)) => {
                let old = self.tombstone(i);
                self.delta.insert(pk, loc);
                return Some(old);
            }
            Some(Err(i))
                if storable
                    && self.filled < self.budget
                    && (self.delta.is_empty() || !self.delta.contains_key(&pk)) =>
            {
                self.slots[i] = Slot { key: pk, loc };
                self.filled += 1;
                self.base_len += 1;
                return None;
            }
            _ => {}
        }
        self.delta.insert(pk, loc)
    }

    /// [`insert`](Self::insert) into a base-less index with a run: the run
    /// takes a key it covers or one that extends it, the delta any other key
    /// and any reserved location.
    fn insert_run(&mut self, pk: i64, loc: RowLoc, storable: bool) -> Option<RowLoc> {
        if self.run.is_empty() {
            self.run_start = pk;
        }
        let i = match self.run_index(pk) {
            Some(i) => i,
            None if storable && pk.wrapping_sub(self.run_start) as u64 == self.run.len() as u64 => {
                self.run.push(EMPTY);
                self.run.len() - 1
            }
            None => return self.delta.insert(pk, loc),
        };
        // `pk` is in the run's range: live in the run, in the delta under a
        // reserved location, or in neither.
        let old = std::mem::replace(&mut self.run[i], EMPTY);
        let old = if old != EMPTY {
            self.run_len -= 1;
            Some(old)
        } else if self.delta.is_empty() {
            None
        } else {
            self.delta.remove(&pk)
        };
        if storable {
            self.run[i] = loc;
            self.run_len += 1;
        } else {
            self.delta.insert(pk, loc);
        }
        old
    }

    /// Resolve a primary key to its row location.
    #[inline]
    pub fn get(&self, pk: i64) -> Option<RowLoc> {
        if let Some(i) = self.find(pk) {
            return Some(self.slots[i].loc);
        }
        match self.run_entry(pk) {
            Some(i) => Some(self.run[i]),
            None if self.delta.is_empty() => None,
            None => self.delta.get(&pk).copied(),
        }
    }

    /// Remove a primary key; returns its old location.
    pub fn remove(&mut self, pk: i64) -> Option<RowLoc> {
        if let Some(i) = self.find(pk) {
            return Some(self.tombstone(i));
        }
        match self.run_entry(pk) {
            Some(i) => {
                self.run_len -= 1;
                Some(std::mem::replace(&mut self.run[i], EMPTY))
            }
            None if self.delta.is_empty() => None,
            None => self.delta.remove(&pk),
        }
    }

    /// Turn the live base slot `i` into a tombstone; returns its location.
    fn tombstone(&mut self, i: usize) -> RowLoc {
        self.base_len -= 1;
        std::mem::replace(&mut self.slots[i].loc, TOMBSTONE)
    }

    /// Bytes allocated: the base's slots, the run's locations, plus the
    /// delta's table as the standard library lays it out — a power-of-two bucket count (all but
    /// one usable below 8 buckets, 7/8 from there), one `(key, location)`
    /// entry and one control byte per bucket, and one trailing group of
    /// control bytes.
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(i64, RowLoc)>();
        let cap = self.delta.capacity();
        let delta = match cap {
            0 => 0,
            1..=7 => (cap + 1) * (entry + 1) + MAP_GROUP_BYTES,
            _ => cap / 7 * 8 * (entry + 1) + MAP_GROUP_BYTES,
        };
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.run.capacity() * std::mem::size_of::<RowLoc>()
            + delta
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

    /// The report is what is allocated: 16 B per base slot at ≤ 85 % load,
    /// 8 B per run key, and the delta's power-of-two table with its control
    /// bytes.
    #[test]
    fn memory_bytes_counts_what_is_allocated() {
        assert_eq!(HashPrimaryIndex::new().memory_bytes(), 0);
        let base = HashPrimaryIndex::with_capacity(1_000);
        assert_eq!(base.memory_bytes(), 1_177 * 16);
        assert!(base.memory_bytes() <= 19 * 1_000);
        let mut run = HashPrimaryIndex::with_run();
        for pk in 0..1_000 {
            run.insert(pk, RowLoc::from_index(pk as usize));
        }
        assert_eq!(run.tier_lens(), (0, 1_000));
        assert_eq!(run.memory_bytes(), 1_024 * 8);
        // Descending keys: the first starts a run, the rest go to the delta.
        // 999 keys at 7/8 load need 1 142 buckets; the table has 2 048.
        let mut delta = HashPrimaryIndex::with_run();
        for pk in (0..1_000).rev() {
            delta.insert(pk, RowLoc::from_index(pk as usize));
        }
        assert_eq!(delta.memory_bytes(), 2_048 * 17 + 16 + 4 * 8);
        // Without a run, the same keys ascending all go to the delta.
        let mut hashed = HashPrimaryIndex::new();
        for pk in 0..1_000 {
            hashed.insert(pk, RowLoc::from_index(pk as usize));
        }
        assert_eq!(hashed.memory_bytes(), 2_048 * 17 + 16);
        let mut small = HashPrimaryIndex::new();
        small.insert(1, RowLoc::new(0, 1));
        assert_eq!(small.memory_bytes(), 4 * 17 + 16);
    }

    /// Without a base, mostly ascending keys — runs of successors broken by
    /// jumps, moves, removes, re-inserts and reserved locations — against a
    /// `HashMap`. The first stored key and its successors land in the run,
    /// and nothing else does.
    #[test]
    fn the_run_agrees_with_a_hash_map() {
        for first in [0i64, -5, i64::MAX - 300] {
            let mut idx = HashPrimaryIndex::with_run();
            let mut model: HashMap<i64, RowLoc> = HashMap::new();
            let mut rng = Rng(first as u64);
            // The run covers `start..next` once a location was stored.
            let (mut start, mut next) = (None, first);
            for step in 0..20_000u32 {
                let pk = match rng.below(8) {
                    0 => next.wrapping_sub(rng.below(400) as i64),
                    1 => next.wrapping_add(1 + rng.below(3) as i64),
                    _ => next,
                };
                let loc = match rng.below(64) {
                    0 => EMPTY,
                    1 => TOMBSTONE,
                    _ => RowLoc::new(rng.below(1 << 20) as u32, step),
                };
                if rng.below(4) == 0 {
                    assert_eq!(idx.remove(pk), model.remove(&pk), "remove {pk}");
                } else {
                    assert_eq!(idx.insert(pk, loc), model.insert(pk, loc), "insert {pk}");
                    // A stored location at the run's end extends it.
                    if loc != EMPTY && loc != TOMBSTONE && (start.is_none() || pk == next) {
                        start.get_or_insert(pk);
                        next = pk.wrapping_add(1);
                    }
                }
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "get {pk}");
            }
            assert_eq!(idx.len(), model.len());
            assert_eq!(idx.tier_lens(), (0, model.len()));
            let start = start.expect("a location was stored");
            let run = model
                .iter()
                .filter(|(&pk, &loc)| {
                    (pk.wrapping_sub(start) as u64) < next.wrapping_sub(start) as u64
                        && loc != EMPTY
                        && loc != TOMBSTONE
                })
                .count();
            assert_eq!(idx.run_len, run, "first {first}");
            assert!(idx.run_len > model.len() / 2, "{} of {}", idx.run_len, model.len());
            for (&pk, &loc) in &model {
                assert_eq!(idx.get(pk), Some(loc), "final get {pk}");
            }
        }
    }

    /// SplitMix64's generator, for reproducible random operations.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(self.0) % n
        }
    }

    /// Random inserts, moves and removes against a `HashMap`, over bases
    /// presized for 0, 1, 100 and 4 000 keys. Tier membership follows the
    /// rule of the module docs: a new key goes to the base while fewer than
    /// `cap` keys ever entered it, otherwise to the delta.
    #[test]
    fn two_tiers_agree_with_a_hash_map() {
        for cap in [0usize, 1, 100, 4_000] {
            let mut idx = HashPrimaryIndex::with_capacity(cap);
            let mut model: HashMap<i64, RowLoc> = HashMap::new();
            let mut in_base: HashMap<i64, bool> = HashMap::new();
            let mut entered_base = 0;
            // The fill: `cap` distinct keys, then one of them again — a
            // duplicate returns the location it displaces (what recovery
            // reads as a ghost row), and stays in the base.
            for pk in 0..cap as i64 {
                assert_eq!(idx.insert(pk * 3, RowLoc::from_index(pk as usize)), None);
                model.insert(pk * 3, RowLoc::from_index(pk as usize));
                in_base.insert(pk * 3, true);
                entered_base += 1;
            }
            if cap > 0 {
                let old = idx.insert(0, RowLoc::new(7, 7));
                assert_eq!(old, Some(RowLoc::from_index(0)), "a duplicate returns its old row");
                model.insert(0, RowLoc::new(7, 7));
                assert_eq!(idx.tier_lens(), (cap, 0));
            }
            // The base is full: a new key goes to the delta, and so does a
            // removed base key that comes back.
            assert_eq!(idx.insert(-1, RowLoc::new(1, 1)), None);
            model.insert(-1, RowLoc::new(1, 1));
            in_base.insert(-1, false);
            if cap > 0 {
                assert_eq!(idx.remove(0), Some(RowLoc::new(7, 7)));
                assert_eq!(idx.insert(0, RowLoc::new(8, 8)), None);
                model.insert(0, RowLoc::new(8, 8));
                in_base.insert(0, false);
                assert_eq!(idx.tier_lens(), (cap - 1, 2));
            }
            // Random traffic: moves of existing keys stay in their tier.
            let mut rng = Rng(cap as u64);
            let span = 3 * cap as u64 + 200;
            for step in 0..20_000 {
                let pk = rng.below(span) as i64 - 100;
                let loc = RowLoc::new(rng.below(1 << 20) as u32, step);
                match rng.below(3) {
                    0 | 1 => {
                        assert_eq!(idx.insert(pk, loc), model.insert(pk, loc), "insert {pk}");
                        in_base.entry(pk).or_insert_with(|| {
                            let base = entered_base < cap;
                            entered_base += usize::from(base);
                            base
                        });
                    }
                    _ => {
                        assert_eq!(idx.remove(pk), model.remove(&pk), "remove {pk}");
                        // A removed key re-enters as a new key.
                        in_base.remove(&pk);
                    }
                }
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "get {pk}");
            }
            for pk in -100..span as i64 {
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "final get {pk}");
            }
            let base = model.keys().filter(|pk| in_base.get(pk) == Some(&true)).count();
            assert_eq!(idx.tier_lens(), (base, model.len() - base), "cap {cap}");
            assert_eq!(idx.len(), model.len());
        }
    }

    /// A location that collides with a slot state is still stored, in the
    /// delta, even when it moves a key out of the base.
    #[test]
    fn reserved_locations_live_in_the_delta() {
        let mut idx = HashPrimaryIndex::with_capacity(4);
        assert_eq!(idx.insert(1, EMPTY), None);
        assert_eq!(idx.insert(2, RowLoc::new(0, 2)), None);
        assert_eq!(idx.insert(2, TOMBSTONE), Some(RowLoc::new(0, 2)));
        assert_eq!((idx.get(1), idx.get(2)), (Some(EMPTY), Some(TOMBSTONE)));
        assert_eq!(idx.tier_lens(), (0, 2));
        assert_eq!(idx.insert(2, RowLoc::new(0, 3)), Some(TOMBSTONE));
        assert_eq!(idx.tier_lens(), (0, 2), "a key in the delta does not also enter the base");
        assert_eq!(idx.get(2), Some(RowLoc::new(0, 3)));
    }
}
