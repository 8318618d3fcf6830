//! Online structure reorganization (§4.4 / Appendix B / §7.7): a workload
//! whose data distribution shifts at runtime, with a background-style
//! reorganization pass restoring index quality while lookups and inserts
//! keep flowing.
//!
//! ```text
//! cargo run --release --example online_reorg
//! ```

use hermit::storage::Tid;
use hermit::trs::{ConcurrentTrsTree, PairSource, TrsParams, TrsTree};
use parking_lot::Mutex;
use std::sync::Arc;

/// Base table stand-in that concurrent writers append to *before* touching
/// the index, as a real executor would.
struct SharedTable(Mutex<Vec<(f64, f64, Tid)>>);

impl PairSource for SharedTable {
    fn scan_range(&self, lb: f64, ub: f64) -> hermit::storage::Result<Vec<(f64, f64, Tid)>> {
        Ok(self.0.lock().iter().filter(|(m, _, _)| *m >= lb && *m <= ub).copied().collect())
    }
}

fn main() {
    // Regime 1: host = 2·target. Build the index on it.
    let n = 200_000usize;
    let pairs: Vec<(f64, f64, Tid)> =
        (0..n).map(|i| (i as f64, 2.0 * i as f64, Tid(i as u64))).collect();
    let table = Arc::new(SharedTable(Mutex::new(pairs.clone())));
    let tree = Arc::new(ConcurrentTrsTree::new(TrsTree::build(
        TrsParams::default(),
        (0.0, n as f64),
        pairs,
    )));
    let s = tree.stats();
    println!(
        "initial tree: {} leaves, {} outliers, {:.1} KB",
        s.leaves,
        s.outliers,
        s.memory_bytes as f64 / 1024.0
    );

    // Regime 2: a third of the domain shifts to host = 5·target + 1000.
    // Every insert in that region misses the old model and lands in
    // outlier buffers.
    println!("\n-- distribution shift: [60k, 130k] now follows 5·m + 1000 --");
    {
        let mut t = table.0.lock();
        for p in t.iter_mut() {
            if p.0 >= 60_000.0 && p.0 <= 130_000.0 {
                p.1 = 5.0 * p.0 + 1_000.0;
            }
        }
    }
    for (m, nv, tid) in table.scan_range(60_000.0, 130_000.0).expect("an in-memory scan") {
        tree.insert(m, nv, tid);
    }
    let s = tree.stats();
    println!(
        "after shift: {} outliers buffered, {:.1} KB",
        s.outliers,
        s.memory_bytes as f64 / 1024.0
    );

    // Background reorganization with concurrent readers and writers
    // (Appendix B's flag + side-buffer protocol).
    crossbeam::thread::scope(|scope| {
        {
            let tree = Arc::clone(&tree);
            let table = Arc::clone(&table);
            scope.spawn(move |_| {
                let mut passes = 0;
                while passes < 16 {
                    let processed = tree.reorganize_pass(table.as_ref(), 8);
                    passes += 1;
                    if processed == 0 {
                        break;
                    }
                }
            });
        }
        // A reader hammering the shifted region the whole time.
        {
            let tree = Arc::clone(&tree);
            scope.spawn(move |_| {
                for i in 0..20_000 {
                    let m = 60_000.0 + (i % 70_000) as f64;
                    let r = tree.lookup_point(m);
                    std::hint::black_box(r.ranges.len());
                }
            });
        }
        // A writer appending fresh rows under the new regime.
        {
            let tree = Arc::clone(&tree);
            let table = Arc::clone(&table);
            scope.spawn(move |_| {
                for i in 0..10_000u64 {
                    let m = 60_000.0 + (i % 70_000) as f64 + 0.5;
                    let nv = 5.0 * m + 1_000.0;
                    table.0.lock().push((m, nv, Tid(1_000_000 + i)));
                    tree.insert(m, nv, Tid(1_000_000 + i));
                }
            });
        }
    })
    .unwrap();

    let memory = tree.compacted_memory_bytes();
    let s = tree.stats();
    println!(
        "after {} reorganization passes: {} leaves, {} outliers, {:.1} KB",
        tree.reorg_passes(),
        s.leaves,
        s.outliers,
        memory as f64 / 1024.0
    );

    // Correctness spot-check under the new regime.
    let probe = 100_000.0;
    let truth = 5.0 * probe + 1_000.0;
    let r = tree.lookup_point(probe);
    let covered = r.ranges.iter().any(|(lo, hi)| truth >= *lo && truth <= *hi)
        || r.tids.contains(&Tid(100_000));
    println!("lookup m={probe}: true host value {truth} covered = {covered}");
    assert!(covered);
}
