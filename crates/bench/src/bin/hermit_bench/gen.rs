//! Seeded inputs: the Synthetic table (paper §7.1), the per-connection
//! operation streams, and the reference model responses are checked against.
//!
//! Everything here is a pure function of `--seed`; the server only ever sees
//! the generated rows and requests.
//!
//! # Target-column layout
//!
//! ```text
//! 0 ............ rows | rows ........ rows+span | rows+span .... rows+2·span
//!    static region    |  churn region, conn 0   |  churn region, conn 1
//! ```
//!
//! Static rows sit at every integer target of the static region and are never
//! written, so reads there are checked *exactly*. Each connection writes only
//! into its own churn region (and its own pk range), so it alone knows which
//! rows there have been acknowledged and can check its reads for false
//! negatives without talking to the other thread. The churn regions are
//! pre-seeded with one *anchor* row every [`ANCHOR_STEP`] targets so that the
//! TRS-Tree is built over the whole domain and models it; without anchors
//! every churn insert would land outside the built range and be buffered as
//! an outlier, which no real table does.

use hermit_core::Query;
use hermit_storage::Value;
use std::collections::BTreeSet;

pub const PK: usize = 0;
pub const HOST: usize = 1;
pub const TARGET: usize = 2;

/// Connections (and load threads) every workload uses.
pub const CONNS: usize = 2;
/// One pre-loaded anchor row per this many churn-region targets.
pub const ANCHOR_STEP: usize = 8;
/// Width, in target units, of a churn-region range read.
pub const CHURN_READ_WIDTH: usize = 100;
/// First pk a connection assigns to its own inserts; far above any loaded pk.
const CHURN_PK_BASE: i64 = 1_000_000_000;

/// SplitMix64: small, fast, and fixed here so streams never change with a
/// dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap, in nanoseconds, for `rate` events/s.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.unit()).ln() / rate * 1e9) as u64
    }
}

/// SplitMix64 finalizer; also the per-row checksum term.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sizes of the target-column regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Static rows (= width of the static region).
    pub rows: usize,
    /// Width of one connection's churn region.
    pub churn_span: usize,
}

impl Layout {
    pub fn new(rows: usize) -> Self {
        Layout { rows, churn_span: (rows / 8).max(2 * CHURN_READ_WIDTH) }
    }

    pub fn churn_lo(&self, conn: usize) -> usize {
        self.rows + conn * self.churn_span
    }

    fn domain(&self) -> usize {
        self.rows + CONNS * self.churn_span
    }

    pub fn first_churn_pk(conn: usize) -> i64 {
        CHURN_PK_BASE * (conn as i64 + 1)
    }
}

/// The generated table plus the exact model of its static region.
pub struct Dataset {
    pub layout: Layout,
    seed: u64,
    /// Targets in insertion (= pk) order: row `pk` has target `order[pk]`.
    order: Vec<u32>,
    /// `prefix[t]` = Σ `mix(pk)` over static targets `< t`, so the checksum of
    /// any static target range is one subtraction.
    prefix: Vec<u64>,
    /// pk of the static row at each target.
    #[cfg(test)]
    pk_of: Vec<u32>,
}

impl Dataset {
    pub fn generate(seed: u64, layout: Layout) -> Self {
        let anchors = (layout.rows..layout.domain()).step_by(ANCHOR_STEP);
        let mut order: Vec<u32> = (0..layout.rows).chain(anchors).map(|t| t as u32).collect();
        // Fisher–Yates: heap order must be uncorrelated with `target`.
        let mut rng = Rng::new(seed ^ 0x5EED_0DA7A);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut pk_of = vec![0u32; layout.rows];
        for (pk, &t) in order.iter().enumerate() {
            if (t as usize) < layout.rows {
                pk_of[t as usize] = pk as u32;
            }
        }
        let mut prefix = Vec::with_capacity(layout.rows + 1);
        let mut sum = 0u64;
        prefix.push(sum);
        for &pk in &pk_of {
            sum = sum.wrapping_add(mix(pk as u64));
            prefix.push(sum);
        }
        Dataset {
            layout,
            seed,
            order,
            prefix,
            #[cfg(test)]
            pk_of,
        }
    }

    /// Rows loaded before the server starts, in insertion order.
    pub fn loaded_rows(&self) -> usize {
        self.order.len()
    }

    pub fn loaded_row(&self, pk: usize) -> [Value; 4] {
        self.row(pk as i64, self.order[pk] as usize)
    }

    /// `host = 2·target + 3`, with every hundredth row (by pk, so scattered
    /// over `target` by the shuffle) given a uniformly random `host` instead.
    /// Exactly 1 %, not 1 % on average: the outlier count sets the size of the
    /// Hermit index, which should not wander with the seed.
    pub fn row(&self, pk: i64, target: usize) -> [Value; 4] {
        let h = mix(self.seed ^ (pk as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let host = if pk % 100 == 99 {
            3.0 + (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * self.layout.domain() as f64
        } else {
            2.0 * target as f64 + 3.0
        };
        [
            Value::Int(pk),
            Value::Float(host),
            Value::Float(target as f64),
            Value::Float((pk % 1000) as f64),
        ]
    }

    /// `(target, host, pk)` of every loaded row, in insertion order.
    pub fn loaded_pairs(&self) -> impl Iterator<Item = (f64, f64, i64)> + '_ {
        (0..self.order.len()).map(|pk| {
            let row = self.loaded_row(pk);
            (row[TARGET].as_f64().unwrap_or(0.0), row[HOST].as_f64().unwrap_or(0.0), pk as i64)
        })
    }

    /// Exact expectation for a read of static targets `lo..=hi`.
    pub fn expect_static(&self, lo: usize, hi: usize) -> (usize, u64) {
        (hi - lo + 1, self.prefix[hi + 1].wrapping_sub(self.prefix[lo]))
    }

    #[cfg(test)]
    pub fn static_pk(&self, target: usize) -> i64 {
        self.pk_of[target] as i64
    }
}

/// One request of a connection's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Point lookup on `target`.
    Point {
        target: usize,
    },
    /// Range lookup on `target`, bounds inclusive.
    Range {
        lo: usize,
        hi: usize,
    },
    /// Insert; auto-commit unless the stream has a transaction open.
    Insert {
        pk: i64,
        target: usize,
    },
    /// Delete of one of this connection's own earlier inserts.
    Delete {
        pk: i64,
        target: usize,
    },
    Begin,
    Commit,
}

/// Latency classes the end-to-end report splits by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Range,
    Write,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Point { .. } => Class::Point,
            Op::Range { .. } => Class::Range,
            _ => Class::Write,
        }
    }

    pub fn query(&self) -> Option<Query> {
        match *self {
            Op::Point { target } => Some(Query::new().point(TARGET, target as f64)),
            Op::Range { lo, hi } => Some(Query::new().range(TARGET, lo as f64, hi as f64)),
            _ => None,
        }
    }
}

/// Operation mix, in percent of *operations* (a transaction is one operation
/// that expands to `Begin`, [`TXN_STATEMENTS`] inserts and `Commit`).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub point: u8,
    pub range: u8,
    pub insert: u8,
    pub delete: u8,
    pub txn: u8,
    /// Rows a static-region range read returns.
    pub range_rows: usize,
    /// Percent of reads aimed at the connection's own churn region.
    pub churn_reads: u8,
}

pub const TXN_STATEMENTS: u8 = 4;

impl Mix {
    /// The read half of this mix scaled to 100 % static reads (half points,
    /// half ranges when the mix has no reads at all).
    pub fn reads_only(self) -> Mix {
        let reads = self.point as u32 + self.range as u32;
        let point = (self.point as u32 * 100).checked_div(reads).map_or(50, |p| p as u8);
        Mix { point, range: 100 - point, insert: 0, delete: 0, txn: 0, churn_reads: 0, ..self }
    }
}

/// Deterministic request stream of one connection, carrying the model of what
/// that connection has been acknowledged: `live` is every committed, not
/// deleted row it inserted; `pending` the inserts of its open transaction.
///
/// The stream advances the model when it *generates* an op, which equals the
/// acknowledged state because a connection has one request in flight and any
/// failed request already fails the run.
pub struct OpStream {
    rng: Rng,
    layout: Layout,
    conn: usize,
    mix: Mix,
    next_pk: i64,
    txn_left: Option<u8>,
    live: BTreeSet<(u32, i64)>,
    pending: Vec<(u32, i64)>,
}

impl OpStream {
    pub fn new(seed: u64, layout: Layout, conn: usize, mix: Mix) -> Self {
        assert_eq!(mix.point + mix.range + mix.insert + mix.delete + mix.txn, 100, "{mix:?}");
        OpStream {
            rng: Rng::new(mix_seed(seed, conn)),
            layout,
            conn,
            mix,
            next_pk: Layout::first_churn_pk(conn),
            txn_left: None,
            live: BTreeSet::new(),
            pending: Vec::new(),
        }
    }

    pub fn in_txn(&self) -> bool {
        self.txn_left.is_some()
    }

    /// Committed live rows this connection inserted, as `(target, pk)`.
    pub fn live(&self) -> &BTreeSet<(u32, i64)> {
        &self.live
    }

    pub fn next_op(&mut self) -> Op {
        match self.txn_left {
            Some(0) => {
                self.txn_left = None;
                self.live.extend(self.pending.drain(..));
                return Op::Commit;
            }
            Some(n) => {
                self.txn_left = Some(n - 1);
                return self.insert();
            }
            None => {}
        }
        let m = self.mix;
        let roll = self.rng.below(100) as u8;
        if roll < m.point + m.range {
            let churn = (self.rng.below(100) as u8) < m.churn_reads;
            return match (roll < m.point, churn) {
                (true, false) => {
                    Op::Point { target: self.rng.below(self.layout.rows as u64) as usize }
                }
                (true, true) => Op::Point { target: self.churn_point() },
                (false, false) => {
                    let lo = self.rng.below((self.layout.rows - m.range_rows + 1) as u64) as usize;
                    Op::Range { lo, hi: lo + m.range_rows - 1 }
                }
                (false, true) => {
                    let room = self.layout.churn_span - CHURN_READ_WIDTH + 1;
                    let lo = self.layout.churn_lo(self.conn) + self.rng.below(room as u64) as usize;
                    Op::Range { lo, hi: lo + CHURN_READ_WIDTH - 1 }
                }
            };
        }
        let roll = roll - m.point - m.range;
        if roll < m.insert {
            self.insert()
        } else if roll < m.insert + m.delete {
            self.delete()
        } else {
            self.txn_left = Some(TXN_STATEMENTS);
            Op::Begin
        }
    }

    /// `Begin` plus `statements` inserts with no `Commit`: what a connection
    /// leaves behind when its server is killed mid-transaction.
    pub fn dangling_txn(&mut self, statements: u8) -> Vec<Op> {
        let mut ops = vec![Op::Begin];
        self.txn_left = Some(statements);
        ops.extend((0..statements).map(|_| self.insert()));
        self.pending.clear();
        self.txn_left = None;
        ops
    }

    fn insert(&mut self) -> Op {
        let pk = self.next_pk;
        self.next_pk += 1;
        let offset = self.rng.below(self.layout.churn_span as u64) as usize;
        let target = self.layout.churn_lo(self.conn) + offset;
        if self.in_txn() {
            self.pending.push((target as u32, pk));
        } else {
            self.live.insert((target as u32, pk));
        }
        Op::Insert { pk, target }
    }

    /// Delete the live row at or after a random point of the churn region
    /// (wrapping), or insert when nothing of ours is live yet.
    fn delete(&mut self) -> Op {
        let probe = self.churn_point() as u32;
        let victim =
            self.live.range((probe, 0)..).next().or_else(|| self.live.iter().next()).copied();
        match victim {
            Some((target, pk)) => {
                self.live.remove(&(target, pk));
                Op::Delete { pk, target: target as usize }
            }
            None => self.insert(),
        }
    }

    fn churn_point(&mut self) -> usize {
        self.layout.churn_lo(self.conn) + self.rng.below(self.layout.churn_span as u64) as usize
    }
}

fn mix_seed(seed: u64, conn: usize) -> u64 {
    mix(seed ^ ((conn as u64 + 1) << 56))
}

/// Why a read response was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum Wrong {
    /// Static read: row count or pk checksum differs from the model.
    StaticMismatch { want_rows: usize, got_rows: usize },
    /// Churn read: an acknowledged live row is missing (a false negative).
    Missing { pk: i64 },
    /// A returned row lies outside the requested range.
    OutOfRange,
}

/// Check a read response against the model.
///
/// Reads inside the static region are exact (count + checksum of `mix(pk)`).
/// Reads inside a churn region must contain every row of `live` in range —
/// the paper's no-false-negative contract — and may contain more (anchors).
pub fn check_read(
    data: &Dataset,
    live: &BTreeSet<(u32, i64)>,
    lo: usize,
    hi: usize,
    rows: &[Vec<Value>],
) -> Result<(), Wrong> {
    let mut pks = Vec::with_capacity(rows.len());
    for row in rows {
        let target = row.get(TARGET).and_then(Value::as_f64).unwrap_or(-1.0);
        let pk = row.get(PK).and_then(Value::as_i64);
        match pk {
            Some(pk) if row.len() == 4 && target >= lo as f64 && target <= hi as f64 => {
                pks.push(pk)
            }
            _ => return Err(Wrong::OutOfRange),
        }
    }
    if hi < data.layout.rows {
        let (want_rows, want_sum) = data.expect_static(lo, hi);
        let sum = pks.iter().fold(0u64, |s, &pk| s.wrapping_add(mix(pk as u64)));
        if pks.len() != want_rows || sum != want_sum {
            return Err(Wrong::StaticMismatch { want_rows, got_rows: pks.len() });
        }
        return Ok(());
    }
    pks.sort_unstable();
    for &(_, pk) in live.range((lo as u32, i64::MIN)..=(hi as u32, i64::MAX)) {
        if pks.binary_search(&pk).is_err() {
            return Err(Wrong::Missing { pk });
        }
    }
    Ok(())
}

/// After a crash: the connection's churn region must hold exactly `live`
/// among non-anchor rows — every acknowledged write, no deleted row, and
/// nothing of a transaction that never committed.
pub fn check_recovered(
    conn: usize,
    live: &BTreeSet<(u32, i64)>,
    mut recovered_pks: Vec<i64>,
) -> Result<(), String> {
    recovered_pks.retain(|&pk| pk >= Layout::first_churn_pk(conn));
    recovered_pks.sort_unstable();
    let mut want: Vec<i64> = live.iter().map(|&(_, pk)| pk).collect();
    want.sort_unstable();
    if recovered_pks == want {
        return Ok(());
    }
    let lost = want.iter().filter(|pk| recovered_pks.binary_search(pk).is_err()).count();
    let extra = recovered_pks.iter().filter(|pk| want.binary_search(pk).is_err()).count();
    Err(format!(
        "connection {conn}: {lost} acknowledged rows lost, {extra} rows present that were deleted \
         or never committed"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        point: 20,
        range: 20,
        insert: 30,
        delete: 10,
        txn: 20,
        range_rows: 10,
        churn_reads: 50,
    };

    fn rows_for(data: &Dataset, lo: usize, hi: usize) -> Vec<Vec<Value>> {
        (lo..=hi).map(|t| data.row(data.static_pk(t), t).to_vec()).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let layout = Layout::new(2_000);
        let (a, b, c) = (
            Dataset::generate(7, layout),
            Dataset::generate(7, layout),
            Dataset::generate(8, layout),
        );
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, c.order);
        let ops = |seed| {
            let mut s = OpStream::new(seed, layout, 1, MIX);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn table_follows_the_paper_correlation_with_one_percent_noise() {
        let data = Dataset::generate(3, Layout::new(20_000));
        let noisy = data.loaded_pairs().filter(|&(m, n, _)| n != 2.0 * m + 3.0).count();
        assert_eq!(noisy, data.loaded_rows() / 100);
        // Every static target exactly once; anchors thin out the churn regions.
        let mut targets: Vec<u32> = data.order.clone();
        targets.sort_unstable();
        assert!(targets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(data.loaded_rows(), 20_000 + 2 * 2_500 / ANCHOR_STEP);
    }

    #[test]
    fn static_reads_are_checked_exactly() {
        let data = Dataset::generate(1, Layout::new(1_000));
        let live = BTreeSet::new();
        let mut rows = rows_for(&data, 100, 149);
        assert_eq!(check_read(&data, &live, 100, 149, &rows), Ok(()));
        rows.swap(0, 49); // order is free
        assert_eq!(check_read(&data, &live, 100, 149, &rows), Ok(()));
        let dropped = rows.pop().unwrap();
        assert_eq!(
            check_read(&data, &live, 100, 149, &rows),
            Err(Wrong::StaticMismatch { want_rows: 50, got_rows: 49 })
        );
        // Same count, one row swapped for a neighbour outside the range.
        rows.push(data.row(data.static_pk(150), 150).to_vec());
        assert_eq!(check_read(&data, &live, 100, 149, &rows), Err(Wrong::OutOfRange));
        // Same count, right range, wrong pk.
        rows.pop();
        let mut forged = dropped;
        forged[PK] = Value::Int(999_999);
        rows.push(forged);
        assert!(matches!(
            check_read(&data, &live, 100, 149, &rows),
            Err(Wrong::StaticMismatch { .. })
        ));
    }

    #[test]
    fn churn_reads_may_hold_more_but_never_less() {
        let layout = Layout::new(1_000);
        let data = Dataset::generate(1, layout);
        let lo = layout.churn_lo(1);
        let live: BTreeSet<(u32, i64)> =
            [(lo as u32 + 5, 2_000_000_001), (lo as u32 + 9, 2_000_000_002)].into();
        let row = |t: usize, pk: i64| data.row(pk, t).to_vec();
        let anchor = row(lo + 8, 17);
        let full = vec![row(lo + 5, 2_000_000_001), anchor.clone(), row(lo + 9, 2_000_000_002)];
        assert_eq!(check_read(&data, &live, lo, lo + 99, &full), Ok(()));
        assert_eq!(
            check_read(&data, &live, lo, lo + 99, &full[..2]),
            Err(Wrong::Missing { pk: 2_000_000_002 })
        );
        // A live row outside the asked range is not required.
        assert_eq!(check_read(&data, &live, lo + 6, lo + 8, &[anchor]), Ok(()));
    }

    #[test]
    fn stream_model_tracks_commits_deletes_and_dangling_transactions() {
        let layout = Layout::new(1_000);
        let mut s = OpStream::new(11, layout, 0, MIX);
        let mut live = BTreeSet::new();
        let mut pending = Vec::new();
        for _ in 0..5_000 {
            match s.next_op() {
                Op::Insert { pk, target } if s.in_txn() => pending.push((target as u32, pk)),
                Op::Insert { pk, target } => assert!(live.insert((target as u32, pk))),
                Op::Delete { pk, target } => assert!(live.remove(&(target as u32, pk))),
                Op::Commit => live.extend(pending.drain(..)),
                Op::Begin => assert!(pending.is_empty()),
                Op::Point { .. } | Op::Range { .. } => {}
            }
            if !s.in_txn() && pending.is_empty() {
                assert_eq!(&live, s.live());
            }
        }
        while s.in_txn() {
            s.next_op();
        }
        let committed = s.live().clone();
        let ops = s.dangling_txn(2);
        assert_eq!(ops.len(), 3);
        assert_eq!(s.live(), &committed, "uncommitted inserts never become live");
        assert!(!s.in_txn());
    }

    #[test]
    fn recovery_check_names_lost_and_resurrected_rows() {
        let base = Layout::first_churn_pk(0);
        let live: BTreeSet<(u32, i64)> = [(10, base), (11, base + 1)].into();
        assert_eq!(check_recovered(0, &live, vec![3, base + 1, base]), Ok(()));
        let err = check_recovered(0, &live, vec![base, base + 7]).unwrap_err();
        assert!(err.contains("1 acknowledged rows lost, 1 rows present"), "{err}");
    }

    #[test]
    fn rng_is_uniform_enough_and_gaps_average_to_the_rate() {
        let mut rng = Rng::new(5);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[rng.below(10) as usize] += 1;
        }
        assert!(buckets.iter().all(|&b| (9_000..11_000).contains(&b)), "{buckets:?}");
        let mean = (0..100_000).map(|_| rng.exp_gap_ns(2_000.0)).sum::<u64>() / 100_000;
        assert!((480_000..520_000).contains(&mean), "mean gap {mean} ns at 2000/s");
    }
}
