//! Online structure reorganization trace (§7.7, Fig. 23).
//!
//! The paper builds a TRS-Tree on a small table, floods it with inserts
//! (10 K → 20 M tuples; scaled here), then triggers partial structure
//! reorganization repeatedly — reorganizing two first-level subtrees per
//! tick with the default fanout of 8 — while tracing range-lookup
//! throughput and memory. Expected shape: throughput stays roughly stable
//! through the reorganizations while memory drops stepwise as outlier
//! buffers are folded back into models.

use crate::harness::{self, measure_ops_with, Scale};
use hermit_storage::Tid;
use hermit_trs::{ConcurrentTrsTree, TrsParams, TrsTree, VecPairSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Fig. 23: lookup-throughput and memory trace across partial
/// reorganizations.
pub fn fig23_reorg_trace(scale: Scale) {
    harness::section("fig23", "Throughput and memory during structure reorganization (Sigmoid)");
    let initial = scale.tuples(10_000) / 10;
    let total = scale.tuples(1_000_000);
    let domain = (0.0, total as f64);
    let sigmoid = |c: f64| {
        let mid = total as f64 / 2.0;
        let s = total as f64 / 20.0;
        1.0e6 / (1.0 + (-(c - mid) / s).exp())
    };

    // Initial build on a small prefix — the tree's models are fitted for
    // the initial distribution.
    let mut rng = StdRng::seed_from_u64(0xF1623);
    // The flood follows a *shifted* regime: off the initial model (so the
    // inserts accumulate in outlier buffers, as in the paper's 10K -> 20M
    // flood), but perfectly modelable once reorganization refits — which
    // is where the paper's memory drop comes from.
    let shifted = |c: f64| sigmoid(c) * 1.2 + 50_000.0;
    let initial_pairs: Vec<_> = (0..initial)
        .map(|i| {
            let c = rng.gen_range(0.0..total as f64);
            (c, sigmoid(c), Tid(i as u64))
        })
        .collect();
    let mut tree = TrsTree::build(TrsParams::default(), domain, initial_pairs.clone());

    // Flood with the remaining tuples through the maintenance path.
    let mut all_pairs = initial_pairs;
    for i in initial..total {
        let c = rng.gen_range(0.0..total as f64);
        let n = if rng.gen_bool(0.01) { rng.gen_range(0.0..2.0e6) } else { shifted(c) };
        let p = (c, n, Tid(i as u64));
        tree.insert(p.0, p.1, p.2);
        all_pairs.push(p);
    }
    let source = VecPairSource(all_pairs);
    // From here on the tree is served and reorganized online, through the
    // same Appendix-B driver the database's maintenance worker uses.
    let tree = ConcurrentTrsTree::new(tree);

    // Trace: alternate measurement ticks and partial reorganizations of
    // two first-level subtrees per tick (1/4 of the structure at fanout 8).
    let mut query_rng = StdRng::seed_from_u64(0xF1624);
    let sel_width = total as f64 * 0.0001;
    let mut subtree = 0usize;
    for tick in 0..12 {
        let ops = measure_ops_with(Duration::from_millis(150), 10, 100_000, |_| {
            let lb = query_rng.gen_range(0.0..total as f64 - sel_width);
            let r = tree.lookup(lb, lb + sel_width);
            std::hint::black_box(r.ranges.len() + r.tids.len());
        });
        let memory = tree.compacted_memory_bytes();
        harness::row(&[
            ("tick", tick.to_string()),
            ("lookup", harness::fmt_ops(ops)),
            ("memory", harness::fmt_mb(memory)),
            ("leaves", tree.stats().leaves.to_string()),
        ]);
        // Reorganize two first-level subtrees (or queued candidates when
        // the root is still a single leaf).
        if tick >= 2 && tick % 2 == 0 {
            let did = tree.reorganize_first_level_subtree(subtree, &source)
                && tree.reorganize_first_level_subtree(subtree + 1, &source);
            if !did {
                tree.reorganize_pass(&source, 4);
            }
            subtree = (subtree + 2) % 8;
        }
    }
}
