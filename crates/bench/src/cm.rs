//! **Correlation Maps** (Kimura et al., VLDB 2009) — the prior
//! correlation-exploiting access method the Hermit paper compares against
//! in Appendix C/E (Figs. 27–30).
//!
//! A Correlation Map (CM) buckets both the *target* column and the *host*
//! column into fixed-width buckets and stores, for every target bucket, the
//! set of host buckets containing at least one co-occurring tuple. A query
//! on the target column maps its predicate to the covered target buckets,
//! unions their host-bucket sets, and probes the host index with the
//! resulting host value ranges.
//!
//! Faithful to the original design (and to the paper's critique):
//!
//! * CM has **no outlier handling** — a single noisy tuple permanently
//!   widens its target bucket's host set, so sparsely-scattered noise
//!   degrades lookups badly (the effect Figs. 27/29 demonstrate);
//! * bucket granularity is **fixed up front** (the original system sizes
//!   buckets with an offline tuning advisor; the benchmark sweeps the
//!   granularities instead);
//! * maintenance is insert-only in the fast path — deletes would require
//!   re-scanning the bucket to prove no other tuple keeps the mapping
//!   alive, so [`CorrelationMap::rebuild`] is the supported shrink path.

use hermit_storage::Tid;

/// Bucket-granularity parameters for a Correlation Map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmParams {
    /// Width of each target-column bucket, in value units (the paper's
    /// "CM-X" label: bucket size X on the target column).
    pub target_bucket_size: f64,
    /// Width of each host-column bucket, in value units.
    pub host_bucket_size: f64,
}

impl CmParams {
    /// Construct with both widths; must be positive.
    pub fn new(target_bucket_size: f64, host_bucket_size: f64) -> Self {
        assert!(target_bucket_size > 0.0, "target bucket size must be positive");
        assert!(host_bucket_size > 0.0, "host bucket size must be positive");
        CmParams { target_bucket_size, host_bucket_size }
    }
}

/// A Correlation Map from a target column to a host column.
#[derive(Debug, Clone)]
pub struct CorrelationMap {
    params: CmParams,
    t_min: f64,
    h_min: f64,
    /// `buckets[tb]` = sorted host-bucket ids with at least one tuple whose
    /// target value falls in target bucket `tb`.
    buckets: Vec<Vec<u32>>,
}

impl CorrelationMap {
    /// Build from `(target, host, tid)` pairs over the given column ranges
    /// (tids are not stored — CM maps buckets, not tuples; the signature
    /// matches the TRS-Tree builder so benchmarks can swap structures).
    pub fn build(
        params: CmParams,
        target_range: (f64, f64),
        host_range: (f64, f64),
        pairs: &[(f64, f64, Tid)],
    ) -> Self {
        let t_buckets = Self::bucket_count(target_range, params.target_bucket_size);
        let mut cm = CorrelationMap {
            params,
            t_min: target_range.0,
            h_min: host_range.0,
            buckets: vec![Vec::new(); t_buckets],
        };
        for (m, n, _) in pairs {
            cm.insert(*m, *n);
        }
        cm
    }

    fn bucket_count(range: (f64, f64), size: f64) -> usize {
        (((range.1 - range.0) / size).floor() as usize) + 1
    }

    #[inline]
    fn target_bucket(&self, m: f64) -> usize {
        let idx = ((m - self.t_min) / self.params.target_bucket_size).floor();
        (idx as isize).clamp(0, self.buckets.len() as isize - 1) as usize
    }

    #[inline]
    fn host_bucket(&self, n: f64) -> u32 {
        let idx = ((n - self.h_min) / self.params.host_bucket_size).floor();
        idx.max(0.0) as u32
    }

    /// Value range `[lo, hi)` covered by a host bucket id.
    #[inline]
    fn host_bucket_range(&self, hb: u32) -> (f64, f64) {
        let lo = self.h_min + hb as f64 * self.params.host_bucket_size;
        (lo, lo + self.params.host_bucket_size)
    }

    /// Register a tuple. O(log b) per call (sorted insert into the target
    /// bucket's host set).
    pub fn insert(&mut self, m: f64, n: f64) {
        let tb = self.target_bucket(m);
        let hb = self.host_bucket(n);
        let set = &mut self.buckets[tb];
        if let Err(pos) = set.binary_search(&hb) {
            set.insert(pos, hb);
        }
    }

    /// Translate a target-range predicate into host value ranges
    /// (merged/unioned, ready for a host-index probe).
    pub fn lookup(&self, lb: f64, ub: f64) -> Vec<(f64, f64)> {
        if lb > ub || self.buckets.is_empty() {
            return Vec::new();
        }
        let first = self.target_bucket(lb);
        let last = self.target_bucket(ub);
        // Union of host bucket ids across covered target buckets.
        let mut host_ids: Vec<u32> = Vec::new();
        for tb in first..=last {
            host_ids.extend_from_slice(&self.buckets[tb]);
        }
        host_ids.sort_unstable();
        host_ids.dedup();
        // Coalesce adjacent bucket ids into contiguous value ranges.
        let mut out: Vec<(f64, f64)> = Vec::new();
        for hb in host_ids {
            let (lo, hi) = self.host_bucket_range(hb);
            match out.last_mut() {
                Some(last) if lo <= last.1 => last.1 = hi,
                _ => out.push((lo, hi)),
            }
        }
        out
    }

    /// Point-query variant of [`lookup`](Self::lookup).
    pub fn lookup_point(&self, m: f64) -> Vec<(f64, f64)> {
        self.lookup(m, m)
    }

    /// Rebuild from scratch (the supported path after heavy deletion; see
    /// module docs).
    pub fn rebuild(&mut self, pairs: &[(f64, f64, Tid)]) {
        for b in &mut self.buckets {
            b.clear();
        }
        for (m, n, _) in pairs {
            self.insert(*m, *n);
        }
    }

    /// Number of target buckets.
    pub fn target_bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total `(target bucket → host bucket)` mappings stored.
    pub fn mapping_count(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Heap bytes held by the map — the number Figs. 28/30 report for CM.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.buckets.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.buckets.iter().map(|b| b.capacity() * 4).sum::<usize>()
    }
}
