//! TRS-Tree persistence (§6 "Fault tolerance").
//!
//! The paper notes the RDBMS must periodically persist the TRS-Tree —
//! either like a disk index (leaf pages on disk) or like a pure in-memory
//! index that checkpoints and relies on write-ahead logging. This module
//! implements the checkpoint path: a compact, versioned binary snapshot of
//! the whole tree (models, ε values, outlier buffers, parameters) plus
//! restore. A snapshot of a TRS-Tree is small by construction — that is
//! the point of the structure — so checkpointing it wholesale is cheap,
//! unlike checkpointing a B+-tree.
//!
//! Format (little-endian throughout):
//!
//! ```text
//! magic "TRST" | version u32 | params (56 bytes) | layout u8 | root u32 |
//! node_count u32 | nodes... | queue_len u32 | queue...      (v2)
//! params := TrsParams::to_bytes
//! layout := 1 (a sorted buffer) is written; 0 (a hash buffer, which
//!           older builds could write) is read as well: the entries do
//!           not depend on it
//! node := range(lb f64, ub f64) | tag u8 |
//!         tag 0 (internal): child_count u32, children u32...
//!         tag 1 (leaf):     beta f64, alpha f64, eps f64, covered u64,
//!                           deletes u64, outlier_count u32,
//!                           (m f64, tid u64)... (in key order)
//! queue entry := node u32 | kind u8 (0 = split, 1 = merge)
//! ```
//!
//! Version 2 adds the pending reorganization queue, so split/merge
//! candidates detected before a checkpoint survive recovery. Version-1
//! snapshots are still read; their queue is re-derived from the restored
//! per-leaf outlier/delete counters against the trigger ratios.

use crate::maintain::{ReorgCandidate, ReorgKind};
use crate::node::{LeafData, Node, NodeKind, TrsTree, ValueRange};
use crate::params::TrsParams;
use hermit_stats::LinearModel;
use hermit_storage::Tid;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"TRST";
const VERSION: u32 = 2;
/// The outlier-buffer layout byte every snapshot is written with.
const SORTED_LAYOUT: u8 = 1;
/// The byte older builds wrote for a hash-table buffer; accepted on read.
const HASH_LAYOUT: u8 = 0;

/// Errors produced by snapshot encode/decode.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a TRS-Tree snapshot.
    BadMagic,
    /// Snapshot version not understood by this build.
    UnsupportedVersion(u32),
    /// Structurally invalid snapshot (truncated, bad tags, bad ids).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a TRS-Tree snapshot"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

struct Writer<W: Write> {
    out: W,
}

impl<W: Write> Writer<W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.out.write_all(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.out.write_all(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.out.write_all(&v.to_le_bytes())
    }
    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.out.write_all(&v.to_le_bytes())
    }
}

struct Reader<R: Read> {
    inp: R,
}

impl<R: Read> Reader<R> {
    fn u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.inp.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.inp.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
}

impl TrsTree {
    /// Serialize a checkpoint of the tree into `out`.
    ///
    /// The tree is compacted first (garbage from past reorganizations is
    /// not persisted); the method therefore takes `&mut self`.
    pub fn snapshot_to(&mut self, out: impl Write) -> Result<(), PersistError> {
        self.compact();
        let mut w = Writer { out };
        w.out.write_all(MAGIC)?;
        w.u32(VERSION)?;
        w.out.write_all(&self.params.to_bytes())?;
        w.u8(SORTED_LAYOUT)?;
        w.u32(self.root)?;
        w.u32(self.arena.len() as u32)?;
        for node in &self.arena {
            w.f64(node.range.lb)?;
            w.f64(node.range.ub)?;
            match &node.kind {
                NodeKind::Internal { children } => {
                    w.u8(0)?;
                    w.u32(children.len() as u32)?;
                    for c in children {
                        w.u32(*c)?;
                    }
                }
                NodeKind::Leaf(leaf) => {
                    w.u8(1)?;
                    w.f64(leaf.model.beta)?;
                    w.f64(leaf.model.alpha)?;
                    w.f64(leaf.eps)?;
                    w.u64(leaf.covered as u64)?;
                    w.u64(leaf.deletes as u64)?;
                    w.u32(leaf.outliers.len() as u32)?;
                    for (m, tid) in leaf.outliers.entries() {
                        w.f64(m)?;
                        w.u64(tid.0)?;
                    }
                }
            }
        }
        // v2: the pending reorganization queue (compact() above remapped
        // its node ids into the compacted arena).
        w.u32(self.reorg_queue.len() as u32)?;
        for cand in &self.reorg_queue {
            w.u32(cand.node)?;
            w.u8(match cand.kind {
                ReorgKind::Split => 0,
                ReorgKind::Merge => 1,
            })?;
        }
        Ok(())
    }

    /// Serialize a checkpoint into a byte vector.
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let mut buf = Vec::new();
        self.snapshot_to(&mut buf)?;
        Ok(buf)
    }

    /// Restore a tree from a checkpoint produced by [`snapshot_to`].
    ///
    /// [`snapshot_to`]: TrsTree::snapshot_to
    pub fn restore_from(inp: impl Read) -> Result<TrsTree, PersistError> {
        let mut r = Reader { inp };
        let mut magic = [0u8; 4];
        r.inp.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let mut params = [0u8; TrsParams::ENCODED_LEN];
        r.inp.read_exact(&mut params)?;
        let params =
            TrsParams::from_bytes(&params).ok_or(PersistError::Corrupt("invalid params"))?;
        if !matches!(r.u8()?, SORTED_LAYOUT | HASH_LAYOUT) {
            return Err(PersistError::Corrupt("bad buffer kind"));
        }
        let root = r.u32()?;
        let count = r.u32()? as usize;
        if count == 0 || root as usize >= count {
            return Err(PersistError::Corrupt("bad root/node count"));
        }
        let mut arena = Vec::with_capacity(count);
        for _ in 0..count {
            let lb = r.f64()?;
            let ub = r.f64()?;
            // Rejects NaN bounds as well as inverted ones.
            if !matches!(lb.partial_cmp(&ub), Some(Ordering::Less | Ordering::Equal)) {
                return Err(PersistError::Corrupt("inverted node range"));
            }
            let range = ValueRange::new(lb, ub);
            let kind = match r.u8()? {
                0 => {
                    let n = r.u32()? as usize;
                    if !(2..=1 << 20).contains(&n) {
                        return Err(PersistError::Corrupt("bad child count"));
                    }
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        let c = r.u32()?;
                        if c as usize >= count {
                            return Err(PersistError::Corrupt("child id out of range"));
                        }
                        children.push(c);
                    }
                    NodeKind::Internal { children }
                }
                1 => {
                    let beta = r.f64()?;
                    let alpha = r.f64()?;
                    let eps = r.f64()?;
                    if eps < 0.0 {
                        return Err(PersistError::Corrupt("negative eps"));
                    }
                    let covered = r.u64()? as usize;
                    let deletes = r.u64()? as usize;
                    let n = r.u32()? as usize;
                    let mut leaf = LeafData::new(LinearModel { beta, alpha }, eps, covered);
                    leaf.deletes = deletes;
                    for _ in 0..n {
                        let m = r.f64()?;
                        let tid = Tid(r.u64()?);
                        leaf.outliers.add(m, tid);
                    }
                    NodeKind::Leaf(leaf)
                }
                _ => return Err(PersistError::Corrupt("bad node tag")),
            };
            arena.push(Node { range, kind });
        }
        let reorg_queue = match version {
            // v1 snapshots predate queue persistence: re-derive candidates
            // from the restored per-leaf counters.
            1 => VecDeque::new(),
            _ => {
                let n = r.u32()? as usize;
                if n > count.saturating_mul(2) {
                    return Err(PersistError::Corrupt("oversized reorg queue"));
                }
                let mut queue = VecDeque::with_capacity(n);
                for _ in 0..n {
                    let node = r.u32()?;
                    if node as usize >= count {
                        return Err(PersistError::Corrupt("reorg candidate out of range"));
                    }
                    let kind = match r.u8()? {
                        0 => ReorgKind::Split,
                        1 => ReorgKind::Merge,
                        _ => return Err(PersistError::Corrupt("bad reorg kind")),
                    };
                    queue.push_back(ReorgCandidate { node, kind });
                }
                queue
            }
        };
        let mut tree = TrsTree { arena, root, params, reorg_queue };
        tree.check_invariants().map_err(|_| PersistError::Corrupt("invariant violation"))?;
        if version == 1 {
            tree.rederive_reorg_queue();
        }
        Ok(tree)
    }

    /// Rebuild the reorganization queue from per-leaf outlier/delete
    /// counters, using the same trigger ratios Algorithm 3 applies online.
    /// Used when restoring v1 snapshots, which did not persist the queue.
    fn rederive_reorg_queue(&mut self) {
        let params = self.params;
        let mut candidates = Vec::new();
        for (id, node) in self.arena.iter().enumerate() {
            let NodeKind::Leaf(leaf) = &node.kind else { continue };
            if leaf.wants_split(&params) {
                candidates.push(ReorgCandidate { node: id as u32, kind: ReorgKind::Split });
            }
            if leaf.wants_merge(&params) {
                if let Some(parent) = self.parent_of(id as u32) {
                    candidates.push(ReorgCandidate { node: parent, kind: ReorgKind::Merge });
                }
            }
        }
        for cand in candidates {
            if !self.reorg_queue.contains(&cand) {
                self.reorg_queue.push_back(cand);
            }
        }
    }

    /// Restore from a checkpoint file.
    pub fn restore(path: &std::path::Path) -> Result<TrsTree, PersistError> {
        let file = std::fs::File::open(path)?;
        Self::restore_from(std::io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrsParams;
    use hermit_storage::recovery::write_file_atomic;

    /// Structural equality modulo memory accounting (vector capacities
    /// differ between bulk construction and incremental restore).
    fn assert_stats_match(a: &TrsTree, b: &TrsTree) {
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.leaves, sb.leaves);
        assert_eq!(sa.internals, sb.internals);
        assert_eq!(sa.height, sb.height);
        assert_eq!(sa.outliers, sb.outliers);
    }

    fn sample_tree(n: usize) -> TrsTree {
        let pairs: Vec<(f64, f64, Tid)> = (0..n)
            .map(|i| {
                let m = i as f64 / n as f64 * 20.0 - 10.0;
                let v = if i % 97 == 0 { 5.0e8 } else { 1000.0 / (1.0 + (-m).exp()) };
                (m, v, Tid(i as u64))
            })
            .collect();
        TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs)
    }

    #[test]
    fn snapshot_roundtrip_preserves_lookups() {
        let mut tree = sample_tree(30_000);
        let bytes = tree.snapshot_bytes().unwrap();
        let restored = TrsTree::restore_from(bytes.as_slice()).unwrap();
        assert_stats_match(&tree, &restored);
        for i in 0..100 {
            let m = -10.0 + i as f64 * 0.2;
            let a = tree.lookup(m, m + 0.3);
            let b = restored.lookup(m, m + 0.3);
            assert_eq!(a.ranges, b.ranges, "ranges diverged at m={m}");
            let mut at = a.tids.clone();
            let mut bt = b.tids.clone();
            at.sort();
            bt.sort();
            assert_eq!(at, bt, "tids diverged at m={m}");
        }
    }

    #[test]
    fn snapshot_roundtrips_params() {
        let params = TrsParams {
            node_fanout: 4,
            max_height: 6,
            error_bound: 7.5,
            sampling_fraction: Some(0.1),
            ..Default::default()
        };
        let pairs = (0..5_000).map(|i| (i as f64, 3.0 * i as f64, Tid(i))).collect();
        let mut tree = TrsTree::build(params, (0.0, 5_000.0), pairs);
        let bytes = tree.snapshot_bytes().unwrap();
        let restored = TrsTree::restore_from(bytes.as_slice()).unwrap();
        assert_eq!(*restored.params(), params);
    }

    /// Offset of the layout byte: magic, version, then the params.
    const LAYOUT_AT: usize = 8 + TrsParams::ENCODED_LEN;

    /// A snapshot an older build wrote for a hash-table buffer carries
    /// layout byte 0 and the same entries: it restores to the same lookups.
    /// Any other byte is still refused.
    #[test]
    fn a_hash_layout_snapshot_restores_and_an_unknown_layout_is_refused() {
        let mut tree = sample_tree(30_000);
        let mut bytes = tree.snapshot_bytes().unwrap();
        assert_eq!(bytes[LAYOUT_AT], SORTED_LAYOUT);
        bytes[LAYOUT_AT] = HASH_LAYOUT;
        let restored = TrsTree::restore_from(bytes.as_slice()).unwrap();
        assert_stats_match(&tree, &restored);
        assert!(tree.stats().outliers > 0, "the sample buffers its spikes");
        for i in 0..100 {
            let m = -10.0 + i as f64 * 0.2;
            let (a, b) = (tree.lookup(m, m + 0.3), restored.lookup(m, m + 0.3));
            assert_eq!((a.ranges, a.tids), (b.ranges, b.tids), "lookup diverged at m={m}");
        }
        bytes[LAYOUT_AT] = 2;
        assert!(matches!(
            TrsTree::restore_from(bytes.as_slice()),
            Err(PersistError::Corrupt("bad buffer kind"))
        ));
    }

    #[test]
    fn restored_tree_supports_maintenance() {
        let mut tree = sample_tree(10_000);
        let bytes = tree.snapshot_bytes().unwrap();
        let mut restored = TrsTree::restore_from(bytes.as_slice()).unwrap();
        restored.insert(0.0, 9.0e9, Tid(777_777));
        assert!(restored.lookup_point(0.0).tids.contains(&Tid(777_777)));
        assert!(restored.delete(0.0, Tid(777_777)));
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(matches!(
            TrsTree::restore_from(&b"NOPE"[..]),
            Err(PersistError::BadMagic) | Err(PersistError::Io(_))
        ));
        let mut tree = sample_tree(1_000);
        let mut bytes = tree.snapshot_bytes().unwrap();
        // Bad version.
        bytes[4] = 0xFF;
        assert!(matches!(
            TrsTree::restore_from(bytes.as_slice()),
            Err(PersistError::UnsupportedVersion(_))
        ));
        // Truncation.
        let bytes = tree.snapshot_bytes().unwrap();
        assert!(TrsTree::restore_from(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hermit-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.trst");
        let mut tree = sample_tree(8_000);
        write_file_atomic(&path, &tree.snapshot_bytes().unwrap(), None).unwrap();
        let restored = TrsTree::restore(&path).unwrap();
        assert_stats_match(&tree, &restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tree with a pending split candidate: a linear tree flooded with
    /// off-model tuples at one spot.
    fn tree_with_queued_split() -> TrsTree {
        let pairs: Vec<(f64, f64, Tid)> =
            (0..5_000).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        let mut tree = TrsTree::build(TrsParams::default(), (0.0, 4_999.0), pairs);
        for i in 0..2_000u64 {
            tree.insert(2_500.0, -1.0e9, Tid(1_000_000 + i));
        }
        assert!(tree.reorg_queue_len() > 0, "flood must queue a split candidate");
        tree
    }

    #[test]
    fn snapshot_roundtrip_preserves_reorg_queue() {
        let mut tree = tree_with_queued_split();
        let bytes = tree.snapshot_bytes().unwrap();
        // snapshot_to compacted the tree, remapping the queue in place; the
        // serialized queue must match it.
        let expected = tree.reorg_queue_len();
        assert!(expected > 0);
        let restored = TrsTree::restore_from(bytes.as_slice()).unwrap();
        assert_eq!(restored.reorg_queue_len(), expected, "queue lost across checkpoint");
        // The restored candidates are live: draining them reorganizes the
        // flooded leaf and shrinks the outlier buffers.
        let outliers_before = restored.stats().outliers;
        let fresh: Vec<(f64, f64, Tid)> =
            (0..5_000).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        let online = crate::ConcurrentTrsTree::new(restored);
        let grafted = online.reorganize_pass(&crate::VecPairSource(fresh), 16);
        assert!(grafted >= 1, "restored candidate must drive a split");
        let mut restored = online.into_inner();
        restored.compact();
        assert!(restored.stats().outliers < outliers_before);
        restored.check_invariants().unwrap();
    }

    #[test]
    fn compact_remaps_queued_candidates() {
        // Force garbage + id churn, then compact.
        let fresh: Vec<(f64, f64, Tid)> =
            (0..5_000).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
        let online = crate::ConcurrentTrsTree::new(tree_with_queued_split());
        online.reorganize_first_level_subtree(0, &crate::VecPairSource(fresh));
        let mut tree = online.into_inner();
        tree.compact();
        // Every surviving candidate must point at a node whose role matches.
        while let Some(cand) = tree.next_reorg_candidate() {
            assert!((cand.node as usize) < tree.arena.len(), "candidate id out of arena");
        }
    }

    #[test]
    fn v1_snapshot_rederives_queue_from_counters() {
        let mut tree = tree_with_queued_split();
        let bytes = tree.snapshot_bytes().unwrap();
        // Rewrite as a v1 snapshot: patch the version field and drop the
        // trailing queue section (4-byte length + 5 bytes per entry).
        let tail = 4 + 5 * tree.reorg_queue_len();
        let mut v1 = bytes[..bytes.len() - tail].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let restored = TrsTree::restore_from(v1.as_slice()).unwrap();
        assert!(
            restored.reorg_queue_len() > 0,
            "v1 restore must re-derive candidates from leaf counters"
        );
    }

    #[test]
    fn truncated_checkpoint_file_is_rejected_not_half_parsed() {
        let dir = std::env::temp_dir().join(format!("hermit-torn-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.trst");
        let mut tree = sample_tree(8_000);
        write_file_atomic(&path, &tree.snapshot_bytes().unwrap(), None).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // A crash mid-write tears the snapshot at an arbitrary byte; every
        // truncation point must produce a typed error, never a tree built
        // from a partial parse.
        let bytes = std::fs::read(&path).unwrap();
        for cut in [1u64, 4, 8, full / 4, full / 2, full - 1] {
            let torn = dir.join("torn.trst");
            std::fs::write(&torn, &bytes[..(full - cut) as usize]).unwrap();
            assert!(
                TrsTree::restore(&torn).is_err(),
                "snapshot torn {cut} bytes short must not restore"
            );
        }
        // A leftover temp sibling from a torn *later* checkpoint does not
        // shadow the committed snapshot.
        std::fs::write(path.with_extension("tmp"), &bytes[..full as usize / 3]).unwrap();
        let restored = TrsTree::restore(&path).unwrap();
        assert_stats_match(&tree, &restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_small() {
        // The point of §6: checkpointing a TRS-Tree is cheap because the
        // structure is succinct. 30k tuples → a snapshot in the KBs.
        let mut tree = sample_tree(30_000);
        let bytes = tree.snapshot_bytes().unwrap();
        assert!(bytes.len() < 64 * 1024, "snapshot should be tiny, got {} bytes", bytes.len());
    }
}
