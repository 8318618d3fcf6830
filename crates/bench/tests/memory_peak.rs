//! What a restart costs in memory, read from the kernel's resident-set
//! peak: a baseline B+-tree's bulk load peaks at about the tree it builds,
//! not the tree plus its sorted input, and a reopened paged database's
//! primary index costs under a byte a row.
//!
//! One test in a binary of its own: `VmHWM` is per process, so another
//! test's allocations running beside it would count. Linux only; the test
//! passes without checking anything where `/proc/self/clear_refs` is
//! missing.

use hermit_bench::harness::{proc_status_bytes, reset_peak_rss};
use hermit_core::{Database, DurabilityConfig};
use hermit_storage::{ColumnDef, Schema, Value};

const ROWS: i64 = 600_000;

#[test]
fn index_builds_peak_at_what_the_indexes_hold() {
    let dir = std::env::temp_dir().join(format!("hermit-memory-peak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host")]);
    let config = DurabilityConfig { wal_sync_every: usize::MAX, ..Default::default() };
    let mut db = Database::create_durable(schema, 0, &dir, &config).unwrap();
    for pk in 0..ROWS {
        // Hosts in a scattered order, so the sort has work to do.
        let host = (pk * 7_919 % ROWS) as f64;
        db.insert(&[Value::Int(pk), Value::Float(host)]).unwrap();
    }
    if !reset_peak_rss() {
        eprintln!("no /proc/self/clear_refs: the peak cannot be measured here");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let before = proc_status_bytes("VmHWM:").expect("VmHWM");
    db.create_baseline_index(1, true).unwrap();
    let growth = proc_status_bytes("VmHWM:").expect("VmHWM") - before;
    let tree = db.index(1).expect("the host tree").memory_bytes() as u64;
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    eprintln!("build peak +{:.1} MiB for a {:.1} MiB tree", mib(growth), mib(tree));
    assert!(
        growth as f64 <= 1.15 * tree as f64,
        "the build peaked {:.1} MiB above its start for a {:.1} MiB tree",
        mib(growth),
        mib(tree)
    );
    db.checkpoint(&dir).unwrap();
    drop(db);

    let back = Database::open(&dir, &config).unwrap();
    assert_eq!(back.len(), ROWS as usize);
    let primary = back.primary().memory_bytes();
    eprintln!("primary index after open: {primary} B for {ROWS} rows");
    assert!(primary < ROWS as usize, "the primary index holds {primary} B for {ROWS} rows");
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}
