//! Primary index: primary key → row location.
//!
//! Under the logical-pointer scheme (§5.1), every secondary-index lookup —
//! baseline or Hermit — must resolve primary keys to row locations through
//! the primary index. The resolution is always a point lookup, so a hash
//! map is the natural structure; the B+-tree variant is also available when
//! the primary index doubles as a host index (the paper notes a primary
//! index can serve as the host index).
//!
//! # Runs and outliers
//!
//! An index made by [`HashPrimaryIndex::new`] is that hash map. An index
//! made by [`HashPrimaryIndex::with_runs`] is for a paged heap, whose rows
//! are fixed-width and appended: there, a load that inserts keys 0, 1, 2, …
//! puts key `k` in the `k`-th slot, so a row's location is a function of its
//! key. The index stores that function instead of the keys, in the spirit
//! of the paper's own remedy (§4: a model of a correlation plus an outlier
//! buffer). A **run** is `(first key, first slot, length)`, a stretch of
//! consecutive keys in consecutive slots, where a slot is numbered
//! `block × slots per page + offset`. A lookup is a binary search over the
//! runs and one division. Each run key has a liveness bit, so a removed key
//! costs a cleared bit and no lookup reads a page: 1.24 M keys cost ≈ 0.15
//! MiB.
//!
//! Only the last run grows. A key past every run extends it when its slot
//! is as far past the run's first slot as the key is past its first key;
//! the keys in between, at most 192 of them (a new run costs as many
//! bytes as they cost bits), take cleared bits, so a heap that reopens
//! with tombstones keeps one run. A key past every run that does not fit
//! starts a new run, and a last run shorter than 16 keys gives its keys to
//! the outliers first, so streams that interleave in the heap do not leave
//! a run per key, and the runs stay few. Any other key — a
//! re-insert, an out-of-order insert, a live key that moves — is an
//! **outlier**, kept in a `HashMap`. A key is live in at most one of the
//! two.
//!
//! Only a paged database takes runs. Its tids are physical, so no secondary
//! lookup resolves through this index; an in-memory database under logical
//! tids is how the paper's experiments measure a hash primary index (§5.1,
//! Figs. 10 and 14), and runs would take that cost out of them.

use hermit_storage::RowLoc;
use std::collections::HashMap;

/// A stretch of consecutive keys in consecutive slots.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's first key.
    first_pk: i64,
    /// Slot number of the first key's row.
    first_slot: u64,
    /// Index of the first key's liveness bit; the run's bits end where the
    /// next run's begin.
    bit: usize,
}

/// A gap of this many keys inside a run costs as many bits as a new run
/// costs bytes; a longer gap starts a new run.
const MAX_GAP: u64 = 8 * std::mem::size_of::<Run>() as u64;

/// A last run shorter than this, which the next key past it cannot extend,
/// moves its keys to the outliers.
const MIN_RUN: usize = 16;

/// Control bytes a `HashMap` allocates beyond one per bucket (one SIMD
/// group, mirrored for probes that wrap).
const MAP_GROUP_BYTES: usize = 16;

/// Primary index: primary key → row location.
#[derive(Debug, Default, Clone)]
pub struct HashPrimaryIndex {
    /// Slots per heap page; 0 for an index that keeps no runs.
    slots_per_page: u64,
    /// Runs in key order; their key ranges are disjoint.
    runs: Vec<Run>,
    /// One bit per key a run spans, set while the key is live there.
    live: Vec<u64>,
    /// Bits in `live`.
    bits: usize,
    /// Live keys in the runs.
    run_len: usize,
    /// Keys outside the runs.
    outliers: HashMap<i64, RowLoc>,
}

impl HashPrimaryIndex {
    /// Empty index without runs: a hash map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty index that keeps runs over a heap with `slots_per_page` slots
    /// a page (see the module docs).
    pub fn with_runs(slots_per_page: u16) -> Self {
        HashPrimaryIndex { slots_per_page: u64::from(slots_per_page), ..Self::default() }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.run_len + self.outliers.len()
    }

    /// True if no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live keys in the runs and in the outliers (see the module docs).
    pub fn tier_lens(&self) -> (usize, usize) {
        (self.run_len, self.outliers.len())
    }

    /// The run whose range holds `pk`, and `pk`'s bit.
    #[inline]
    fn run_bit(&self, pk: i64) -> Option<(usize, usize)> {
        let i = self.runs.partition_point(|r| r.first_pk <= pk).checked_sub(1)?;
        let run = self.runs[i];
        let end = self.runs.get(i + 1).map_or(self.bits, |r| r.bit);
        let bit = usize::try_from(pk.abs_diff(run.first_pk)).ok()?.checked_add(run.bit)?;
        (bit < end).then_some((i, bit))
    }

    #[inline]
    fn is_live(&self, bit: usize) -> bool {
        self.live[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The location of run `i`'s key at `bit`.
    #[inline]
    fn loc(&self, i: usize, bit: usize) -> RowLoc {
        let run = self.runs[i];
        let slot = run.first_slot + (bit - run.bit) as u64;
        RowLoc::new((slot / self.slots_per_page) as u32, (slot % self.slots_per_page) as u32)
    }

    /// Take `pk` out of its run if it is live there; returns its location.
    fn take_from_run(&mut self, pk: i64) -> Option<RowLoc> {
        let (i, bit) = self.run_bit(pk).filter(|&(_, bit)| self.is_live(bit))?;
        self.live[bit / 64] &= !(1 << (bit % 64));
        self.run_len -= 1;
        Some(self.loc(i, bit))
    }

    fn remove_outlier(&mut self, pk: i64) -> Option<RowLoc> {
        if self.outliers.is_empty() {
            None
        } else {
            self.outliers.remove(&pk)
        }
    }

    /// Register (or move) a primary key; returns its previous location.
    pub fn insert(&mut self, pk: i64, loc: RowLoc) -> Option<RowLoc> {
        if let Some(old) = self.take_from_run(pk) {
            self.outliers.insert(pk, loc);
            return Some(old);
        }
        if self.extend_runs(pk, loc) {
            return self.remove_outlier(pk);
        }
        self.outliers.insert(pk, loc)
    }

    /// Store `pk` at `loc` in the runs if `pk` lies past every run: in the
    /// last run if `loc` continues it, else in a new one (see the module
    /// docs). False if `pk` belongs with the outliers.
    fn extend_runs(&mut self, pk: i64, loc: RowLoc) -> bool {
        let per_page = self.slots_per_page;
        if per_page == 0 || u64::from(loc.offset) >= per_page {
            return false;
        }
        let slot = u64::from(loc.block) * per_page + u64::from(loc.offset);
        while let Some(&last) = self.runs.last() {
            let len = self.bits - last.bit;
            let past = i128::from(pk) - i128::from(last.first_pk);
            if past < len as i128 {
                return false;
            }
            let gap = (past - len as i128) as u64;
            if i128::from(slot) - i128::from(last.first_slot) == past && gap <= MAX_GAP {
                for _ in 0..gap {
                    self.push_bit(false);
                }
                self.push_bit(true);
                return true;
            }
            if len >= MIN_RUN {
                break;
            }
            self.demote_last_run();
        }
        self.runs.push(Run { first_pk: pk, first_slot: slot, bit: self.bits });
        self.push_bit(true);
        true
    }

    fn push_bit(&mut self, live: bool) {
        if self.bits.is_multiple_of(64) {
            self.live.push(0);
        }
        if live {
            self.live[self.bits / 64] |= 1 << (self.bits % 64);
            self.run_len += 1;
        }
        self.bits += 1;
    }

    /// Move the last run's live keys to the outliers and drop the run.
    fn demote_last_run(&mut self) {
        let i = self.runs.len() - 1;
        let run = self.runs[i];
        for bit in run.bit..self.bits {
            if self.is_live(bit) {
                let pk = run.first_pk + (bit - run.bit) as i64;
                self.outliers.insert(pk, self.loc(i, bit));
                self.run_len -= 1;
            }
        }
        self.runs.pop();
        self.bits = run.bit;
        self.live.truncate(self.bits.div_ceil(64));
        if let Some(word) = self.live.last_mut().filter(|_| !self.bits.is_multiple_of(64)) {
            *word &= (1 << (self.bits % 64)) - 1;
        }
    }

    /// Resolve a primary key to its row location.
    #[inline]
    pub fn get(&self, pk: i64) -> Option<RowLoc> {
        match self.run_bit(pk) {
            Some((i, bit)) if self.is_live(bit) => Some(self.loc(i, bit)),
            _ if self.outliers.is_empty() => None,
            _ => self.outliers.get(&pk).copied(),
        }
    }

    /// Remove a primary key; returns its old location.
    pub fn remove(&mut self, pk: i64) -> Option<RowLoc> {
        self.take_from_run(pk).or_else(|| self.remove_outlier(pk))
    }

    /// Bytes allocated: the runs and their bits, plus the outliers' table
    /// as the standard library lays it out — a power-of-two bucket count
    /// (all but one usable below 8 buckets, 7/8 from there), one `(key,
    /// location)` entry and one control byte per bucket, and one trailing
    /// group of control bytes.
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(i64, RowLoc)>();
        let cap = self.outliers.capacity();
        let outliers = match cap {
            0 => 0,
            1..=7 => (cap + 1) * (entry + 1) + MAP_GROUP_BYTES,
            _ => cap / 7 * 8 * (entry + 1) + MAP_GROUP_BYTES,
        };
        self.runs.capacity() * std::mem::size_of::<Run>() + self.live.capacity() * 8 + outliers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slots per page of the run-keeping indexes below.
    const PER_PAGE: u16 = 100;

    /// Slot number `n` as a location on `PER_PAGE`-slot pages.
    fn at(n: u64) -> RowLoc {
        let per_page = u64::from(PER_PAGE);
        RowLoc::new((n / per_page) as u32, (n % per_page) as u32)
    }

    #[test]
    fn insert_get_remove() {
        for mut idx in [HashPrimaryIndex::new(), HashPrimaryIndex::with_runs(PER_PAGE)] {
            idx.insert(1, RowLoc::new(0, 5));
            idx.insert(2, RowLoc::new(1, 0));
            assert_eq!(idx.get(1), Some(RowLoc::new(0, 5)));
            assert_eq!(idx.get(3), None);
            assert_eq!(idx.remove(1), Some(RowLoc::new(0, 5)));
            assert_eq!(idx.get(1), None);
            assert_eq!(idx.len(), 1);
        }
    }

    #[test]
    fn reinsert_moves_key() {
        for mut idx in [HashPrimaryIndex::new(), HashPrimaryIndex::with_runs(PER_PAGE)] {
            assert_eq!(idx.insert(7, RowLoc::new(0, 0)), None);
            assert_eq!(idx.insert(7, RowLoc::new(9, 9)), Some(RowLoc::new(0, 0)));
            assert_eq!(idx.get(7), Some(RowLoc::new(9, 9)));
            assert_eq!(idx.len(), 1);
        }
    }

    #[test]
    fn memory_scales() {
        let mut idx = HashPrimaryIndex::new();
        for i in 0..10_000 {
            idx.insert(i, RowLoc::new(i as u32 / 256, i as u32 % 256));
        }
        assert!(idx.memory_bytes() >= 10_000 * 16);
    }

    /// The report is what is allocated: a run's entry and one bit per key
    /// it spans, and the outliers' power-of-two table with its control
    /// bytes.
    #[test]
    fn memory_bytes_counts_what_is_allocated() {
        assert_eq!(HashPrimaryIndex::new().memory_bytes(), 0);
        let mut run = HashPrimaryIndex::with_runs(PER_PAGE);
        for pk in 0..1_000 {
            run.insert(pk, at(pk as u64));
        }
        assert_eq!(run.tier_lens(), (1_000, 0));
        assert_eq!(run.memory_bytes(), 4 * 24 + 16 * 8, "one run, 1 000 bits in 16 words");
        // Descending keys: the first starts a run, and every later key lies
        // below it. 999 keys at 7/8 load need 1 142 buckets; the table has
        // 2 048.
        let mut outliers = HashPrimaryIndex::with_runs(PER_PAGE);
        for pk in (0..1_000).rev() {
            outliers.insert(pk, at(999 - pk as u64));
        }
        assert_eq!(outliers.tier_lens(), (1, 999));
        assert_eq!(outliers.memory_bytes(), 2_048 * 17 + 16 + 4 * 24 + 4 * 8);
        // Without runs, the same keys ascending all go to the hash.
        let mut hashed = HashPrimaryIndex::new();
        for pk in 0..1_000 {
            hashed.insert(pk, at(pk as u64));
        }
        assert_eq!(hashed.memory_bytes(), 2_048 * 17 + 16);
        let mut small = HashPrimaryIndex::new();
        small.insert(1, RowLoc::new(0, 1));
        assert_eq!(small.memory_bytes(), 4 * 17 + 16);
    }

    /// SplitMix64's generator, for reproducible random operations.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            hermit_storage::hash::mix(self.0) % n
        }
    }

    /// A heap's appends: keys from ascending streams that jump ahead, with
    /// deletes and re-inserts of older keys, each new row in the next slot
    /// — the way a paged database drives its primary index — against a
    /// `HashMap`, for one stream and for two interleaved ones.
    #[test]
    fn the_run_agrees_with_a_hash_map() {
        for (streams, first) in [(1u64, 0i64), (1, i64::MAX - 100_000), (2, -5), (2, 1 << 40)] {
            let mut idx = HashPrimaryIndex::with_runs(PER_PAGE);
            let mut model: HashMap<i64, RowLoc> = HashMap::new();
            let mut rng = Rng(first as u64 ^ streams);
            let mut next: Vec<i64> = (0..streams as i64).map(|s| first - s * 1_000_000).collect();
            let mut slot = 0u64;
            for _ in 0..20_000 {
                let s = rng.below(streams) as usize;
                let pk = match rng.below(256) {
                    0 => {
                        next[s] += 1 + rng.below(3) as i64;
                        continue;
                    }
                    1..=8 => next[s] - 1 - rng.below(500) as i64,
                    _ => {
                        next[s] += 1;
                        next[s] - 1
                    }
                };
                if let Some(loc) = model.remove(&pk) {
                    assert_eq!(idx.remove(pk), Some(loc), "remove {pk}");
                } else {
                    assert_eq!(idx.insert(pk, at(slot)), None, "insert {pk}");
                    model.insert(pk, at(slot));
                    slot += 1;
                }
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "get {pk}");
            }
            assert_eq!(idx.len(), model.len());
            for (&pk, &loc) in &model {
                assert_eq!(idx.get(pk), Some(loc), "final get {pk}");
            }
            let (runs, outliers) = idx.tier_lens();
            assert_eq!(runs + outliers, model.len());
            if streams == 1 {
                assert!(runs > 3 * outliers, "one stream: {runs} in runs, {outliers} outliers");
            }
            // Every run but the last covers at least `MIN_RUN` keys.
            assert!(idx.runs.len() * MIN_RUN <= idx.bits + MIN_RUN, "{} runs", idx.runs.len());
        }
    }

    /// Random inserts, moves and removes at random locations, against a
    /// `HashMap`, with and without runs; then a reopen's pass, which feeds
    /// a heap's live rows in slot order — tombstones leave gaps, and a
    /// duplicate key returns the location it displaces (a ghost row).
    #[test]
    fn two_tiers_agree_with_a_hash_map() {
        for runs in [false, true] {
            let mut idx =
                if runs { HashPrimaryIndex::with_runs(PER_PAGE) } else { HashPrimaryIndex::new() };
            let mut model: HashMap<i64, RowLoc> = HashMap::new();
            let mut rng = Rng(u64::from(runs));
            for _ in 0..20_000 {
                let pk = rng.below(3_000) as i64 - 100;
                let loc = at(rng.below(1 << 30));
                if rng.below(3) == 0 {
                    assert_eq!(idx.remove(pk), model.remove(&pk), "remove {pk}");
                } else {
                    assert_eq!(idx.insert(pk, loc), model.insert(pk, loc), "insert {pk}");
                }
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "get {pk}");
            }
            for pk in -100..3_000 {
                assert_eq!(idx.get(pk), model.get(&pk).copied(), "final get {pk}");
            }
            assert_eq!(idx.len(), model.len());
            if !runs {
                assert_eq!(idx.tier_lens(), (0, model.len()));
            }
        }
        let mut idx = HashPrimaryIndex::with_runs(PER_PAGE);
        let mut ghosts = Vec::new();
        // Slot 1000 i + 999 holds key 10 i again: a page that missed its
        // delete. Every 7th other slot is a tombstone.
        let key = |slot: u64| if slot % 1_000 == 999 { 10 * (slot / 1_000) } else { slot };
        let tombstone = |slot: u64| slot % 7 == 4 && slot % 1_000 != 999;
        for slot in (0..5_000u64).filter(|&s| !tombstone(s)) {
            if let Some(old) = idx.insert(key(slot) as i64, at(slot)) {
                ghosts.push(old);
            }
        }
        assert_eq!(ghosts, (0..5).map(|i| at(10 * i)).collect::<Vec<_>>());
        assert_eq!(idx.runs.len(), 1, "tombstones and duplicate keys do not break the run");
        let tombstones = (0..5_000).filter(|&s| tombstone(s)).count();
        assert_eq!(idx.tier_lens(), (5_000 - tombstones - 10, 5));
        assert_eq!(idx.get(10), Some(at(1_999)));
        assert_eq!(idx.get(4), None);
        assert_eq!(idx.get(5), Some(at(5)));
    }

    /// A location off the slot grid — an offset past the page's slots, a
    /// block no run near the others can reach — is still stored, as an
    /// outlier or in a run of its own that the next key demotes, and the
    /// run before it goes on.
    #[test]
    fn off_grid_locations_are_outliers() {
        let mut idx = HashPrimaryIndex::with_runs(PER_PAGE);
        for pk in 0..20 {
            idx.insert(pk, at(pk as u64));
        }
        let far = RowLoc::new(u32::MAX, u32::from(PER_PAGE) - 1);
        assert_eq!(idx.insert(20, RowLoc::new(0, u32::MAX)), None);
        assert_eq!(idx.insert(21, far), None);
        assert_eq!(idx.insert(22, at(22)), None);
        assert_eq!((idx.get(20), idx.get(21)), (Some(RowLoc::new(0, u32::MAX)), Some(far)));
        assert_eq!((idx.runs.len(), idx.tier_lens()), (1, (21, 2)));
        assert_eq!(idx.insert(21, at(23)), Some(far));
        assert_eq!(idx.get(22), Some(at(22)));
        assert_eq!(idx.len(), 23);
    }
}
