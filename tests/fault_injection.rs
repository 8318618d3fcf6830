//! Fault-injection behaviors through the full `Database` stack.
//!
//! Two contracts:
//!
//! * **Mangled WAL**: whatever bytes a crash (or a corrupting device)
//!   leaves in the log, `Database::open` either recovers a valid state or
//!   fails with a typed error — it never panics and never applies garbage
//!   (proptest over seed-deterministic corruption schedules).
//! * **Seeded fault plans are replayable**: the same `u64` seed produces
//!   the same injected-fault schedule through the same workload, so any
//!   failure found by a seeded run can be handed around as one number.
//! * **An unreadable page is not a deleted row**: while heap reads fail,
//!   every access path — the composite box routes included — reports an
//!   error instead of a shorter answer; once the device heals the exact
//!   rows come back and no buffer-pool frame has gone missing. A
//!   reorganization that cannot read the heap installs nothing.

use hermit::core::recovery::{DurabilityConfig, WAL_FILE};
use hermit::core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase, IDLE_SLEEP};
use hermit::core::{Database, PlanKind, Query, RangePredicate};
use hermit::fault::{mangle_file, FaultPlan, FaultRates, FaultyPageStore};
use hermit::server::{ClientError, ErrorCode, HermitClient, HermitServer, ServerConfig};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A maintenance worker whose rebuild scans cannot read the heap backs
/// off: each sweep that leaves the queue as it was doubles its sleep, so in
/// a fixed window it runs far fewer sweeps than one per `IDLE_SLEEP`. Once
/// the heap reads again it drains the queue.
#[test]
fn a_worker_facing_an_unreadable_heap_backs_off_and_drains_once_healed() {
    const FRAMES: usize = 4;
    let store = Arc::new(FaultyPageStore::new(Arc::new(SimulatedPageStore::new())));
    let pool = Arc::new(BufferPool::new(Arc::<FaultyPageStore>::clone(&store), FRAMES));
    let mut db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
    for i in 0..4_000i64 {
        db.insert(&row(i, i as f64)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    for j in 0..2_000i64 {
        db.insert(&[Value::Int(4_000 + j), Value::Float(-1.0e9), Value::Float(j as f64)]).unwrap();
    }
    let shared = SharedDatabase::new(db);
    assert!(shared.reorg_queue_len() > 0, "the flood must queue a split");

    store.set_fail_reads(true);
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let window = Duration::from_millis(400);
    std::thread::sleep(window);
    let sweeps = worker.stats().sweeps.load(Ordering::Relaxed);
    let unthrottled = (window.as_millis() / IDLE_SLEEP.as_millis()) as u64;
    assert!(shared.reorg_queue_len() > 0, "nothing can be done on an unreadable heap");
    assert!(
        (1..=unthrottled / 8).contains(&sweeps),
        "{sweeps} sweeps in {window:?}: a stalled worker must back off (one per IDLE_SLEEP \
         would be {unthrottled})"
    );

    store.set_fail_reads(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.reorg_queue_len() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_, candidates) = worker.stop();
    assert_eq!(shared.reorg_queue_len(), 0, "the healed heap lets the worker drain the queue");
    assert!(candidates > 0);
}

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

fn row(pk: i64, m: f64) -> Vec<Value> {
    vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermit-fi-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable directory with a checkpointed base state plus WAL-committed
/// post-checkpoint DML — the WAL actually carries records worth corrupting.
fn build_durable(dir: &std::path::Path) {
    let config = DurabilityConfig::default();
    let mut db = Database::create_durable(schema(), 0, dir, &config).unwrap();
    for i in 0..60i64 {
        db.insert(&row(i, 10.0 + i as f64)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db.checkpoint(dir).unwrap();
    for i in 0..40i64 {
        db.insert(&row(100 + i, 200.0 + i as f64)).unwrap();
    }
    for pk in (0..20i64).step_by(3) {
        db.delete_by_pk(pk).unwrap();
    }
    db.wal_commit().unwrap();
    drop(db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mangled WAL must recover (possibly to a prefix of the history)
    /// or fail with a typed error — never panic. When recovery succeeds,
    /// the recovered state must be internally consistent: a full scan
    /// works and no primary key appears twice.
    #[test]
    fn mangled_wal_recovers_or_fails_typed_never_panics(seed in 0u64..1u64 << 48) {
        let dir = fresh_dir(&format!("mangle-{seed}"));
        build_durable(&dir);
        mangle_file(&dir.join(WAL_FILE), seed).unwrap();

        // A typed error is an acceptable outcome for arbitrary corruption;
        // reaching past the call at all proves no panic.
        if let Ok(db) = Database::open(&dir, &DurabilityConfig::default()) {
            let r = db.execute(&Query::filter(RangePredicate::range(0, -1.0e15, 1.0e15)));
            let mut pks = std::collections::HashSet::new();
            for &loc in &r.rows {
                let row = db.heap().get(loc).unwrap();
                prop_assert!(
                    pks.insert(row[0].as_i64()),
                    "duplicate pk {:?} after mangled-WAL recovery (seed {seed})",
                    row[0]
                );
            }
            prop_assert_eq!(r.rows.len(), db.len(), "scan disagrees with len()");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The same seed must produce the same fault schedule through the same
/// workload: identical injected-fault counts, identical per-op outcomes,
/// identical surviving rows.
#[test]
fn seeded_fault_plan_replays_identically() {
    let run = |seed: u64| {
        // Append-only inserts only reach the device on eviction, so the
        // op count is modest — a generous rate keeps the schedule dense.
        let rates = FaultRates { eio: 0.2, ..FaultRates::NONE };
        let store = Arc::new(FaultyPageStore::with_plan(
            Arc::new(SimulatedPageStore::new()),
            FaultPlan::seeded(seed, rates),
        ));
        // A 2-frame pool forces evictions (and so store reads/writes) from
        // early on; an all-in-pool workload would never reach the device.
        let pool = Arc::new(BufferPool::new(Arc::<FaultyPageStore>::clone(&store), 2));
        let db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
        let mut outcomes = Vec::new();
        for i in 0..2_000i64 {
            outcomes.push(db.insert(&row(i, i as f64)).is_ok());
        }
        (outcomes, db.len(), store.injected())
    };
    let (outcomes_a, len_a, injected_a) = run(42);
    let (outcomes_b, len_b, injected_b) = run(42);
    assert_eq!(outcomes_a, outcomes_b, "same seed must give the same per-op outcomes");
    assert_eq!(len_a, len_b);
    assert_eq!(injected_a, injected_b);
    assert!(injected_a > 0, "a 20% EIO rate over dozens of page ops must fire at least once");

    let (outcomes_c, _, _) = run(43);
    assert_ne!(outcomes_a, outcomes_c, "different seeds should explore different schedules");
}

/// Poisoned heap reads must surface as errors on every access path — the
/// executor's batched validation, the legacy per-row tail, the seq scan,
/// the materializer, and the server's response — never as missing rows.
#[test]
fn unreadable_pages_are_errors_not_deleted_rows() {
    const ROWS: i64 = 4_000; // ≈ 14 heap pages of 27-byte records
    const FRAMES: usize = 4;
    let store = Arc::new(FaultyPageStore::new(Arc::new(SimulatedPageStore::new())));
    let pool = Arc::new(BufferPool::new_sharded(Arc::<FaultyPageStore>::clone(&store), FRAMES, 2));
    let mut db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
    for i in 0..ROWS {
        // Scatter targets over the heap so a range touches many pages.
        db.insert(&row(i, ((i * 7) % ROWS) as f64)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    pool.flush().unwrap();

    let indexed = Query::new().range(2, 100.0, 699.0);
    let scanned = Query::new().range(0, 100.0, 699.0); // pk is unindexed: seq scan
    let projected = Query::new().range(2, 100.0, 699.0).select([0, 2]);
    let healthy = db.execute(&indexed);
    assert_eq!((healthy.rows.len(), healthy.unreadable), (600, 0));
    let want_rows: Vec<Vec<Value>> =
        db.fetch_rows(&healthy.rows, None).0.into_iter().flatten().collect();
    assert_eq!(want_rows.len(), 600);

    let shared = SharedDatabase::new(db);
    let server =
        HermitServer::start(shared.clone(), None, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = HermitClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.query(&indexed).unwrap(), want_rows);

    // --- Poisoned: 4 frames cannot hold a 600-row answer's pages, so every
    // path has to go to the (failing) store.
    store.set_fail_reads(true);
    let db = shared.db();
    let poisoned = db.execute(&indexed);
    assert!(poisoned.unreadable > 0, "validation must notice the failed page loads");
    assert!(poisoned.rows.len() < 600);
    assert_eq!(poisoned.unresolved, 0, "an unreadable page is not an unresolved (deleted) row");
    assert!(db.lookup_range(RangePredicate::range(2, 100.0, 699.0), None).unreadable > 0);
    assert!(db.execute(&scanned).unreadable > 0, "the seq scan must not skip unreadable pages");
    assert!(db.fetch_rows(&healthy.rows, None).1 > 0);
    // The single pass that validates and writes the rows out: the block it
    // leaves is partial, `unreadable` says so, and the server sends the
    // typed error in its place — never the rows it did manage to read.
    let partial = db.execute(&projected);
    assert!(partial.unreadable > 0 && partial.unresolved == 0);
    assert!(partial.projected.is_some_and(|block| block.len() == partial.rows.len()));
    assert!(partial.rows.len() < 600);
    for q in [&indexed, &scanned, &projected] {
        match client.query(q) {
            Err(ClientError::Server { code: ErrorCode::Storage, .. }) => {}
            other => panic!("poisoned reads must answer ErrorCode::Storage, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    let read_errors: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("hermit_pool_read_errors "))
        .expect("hermit_pool_read_errors exported")
        .parse()
        .unwrap();
    assert!(read_errors > 0);
    assert!(stats.contains("\nhermit_store_reads "), "{stats}");
    assert!(stats.contains("\nhermit_store_writes "), "{stats}");

    // --- Healed: the exact rows again, in the same order, over the wire
    // and in process.
    store.set_fail_reads(false);
    let healed = db.execute(&indexed);
    assert_eq!((healed.rows.clone(), healed.unreadable), (healthy.rows.clone(), 0));
    assert_eq!(db.execute(&scanned).rows.len(), 600);
    assert_eq!(client.query(&indexed).unwrap(), want_rows);
    let want_cut: Vec<Vec<Value>> = want_rows.iter().map(|r| vec![r[0], r[2]]).collect();
    assert_eq!(client.query(&projected).unwrap(), want_cut);

    // No frame leaked: every failed load handed its frame back, so the
    // quiescent pool still accounts for its whole capacity.
    let table = db.heap();
    let (resident, free) = table.pool().frame_counts();
    assert_eq!(resident + free, FRAMES);

    // --- Poisoned with the pool full: seven rows on seven pages (host is
    // indexed exactly, and consecutive targets sit 1 143 rows apart), so
    // each cold candidate is alone on its page and its miss reads the
    // record through. A failed read-through takes no frame and evicts
    // nothing — a failed load would have evicted a victim and freed its
    // frame — and it is an unreadable page all the same. (The healthy
    // answer comes from the big one: running this query first would teach
    // the doorkeeper its pages, and their next miss would be admitted.)
    let scattered = Query::new().range(1, 200.0, 212.0);
    let host_in = |r: &&Vec<Value>| r[1].as_f64().is_some_and(|h| (200.0..=212.0).contains(&h));
    let want_scattered: Vec<Vec<Value>> = want_rows.iter().filter(host_in).cloned().collect();
    assert_eq!(want_scattered.len(), 7);
    assert_eq!(pool.frame_counts(), (FRAMES, 0), "the pool is full");
    let (evictions, read_errors) = (pool.stats().evictions(), pool.stats().read_errors());
    store.set_fail_reads(true);
    let poisoned = db.execute(&scattered);
    assert!(poisoned.unreadable > 0, "the failed read-throughs must be reported");
    assert_eq!(poisoned.unresolved, 0, "an unreadable page is not a deleted row");
    assert!(poisoned.rows.len() < 7);
    match client.query(&scattered) {
        Err(ClientError::Server { code: ErrorCode::Storage, .. }) => {}
        other => panic!("poisoned read-throughs must answer ErrorCode::Storage, got {other:?}"),
    }
    assert!(pool.stats().read_errors() > read_errors);
    assert_eq!(pool.stats().evictions(), evictions, "no load was attempted");
    assert_eq!(pool.frame_counts(), (FRAMES, 0), "no frame taken or leaked");
    store.set_fail_reads(false);
    assert_eq!(client.query(&scattered).unwrap(), want_scattered);
    assert!(pool.stats().read_through() > 0);
    client.shutdown().unwrap();
    server.wait();
}

/// The composite box routes validate at the base table too. A page that
/// cannot be read there used to come back as `unresolved` (the value
/// conjunct) or as a false positive (the leading conjunct) — an I/O error
/// turned into a shorter answer. It is `unreadable`, as on every route, and
/// the candidates cost one page visit per page, not one per conjunct.
#[test]
fn composite_routes_report_unreadable_pages_not_shorter_answers() {
    const ROWS: i64 = 4_000;
    const FRAMES: usize = 4;
    let store = Arc::new(FaultyPageStore::new(Arc::new(SimulatedPageStore::new())));
    let pool = Arc::new(BufferPool::new_sharded(Arc::<FaultyPageStore>::clone(&store), FRAMES, 2));
    let mut db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
    for i in 0..ROWS {
        db.insert(&row(i, ((i * 7) % ROWS) as f64)).unwrap();
    }
    // Composite indexes over the paged heap: (pk, target) directly, then —
    // at the same key — target -> host through the (pk, host) companion.
    db.create_composite_baseline(0, 1).unwrap();
    let key = db.create_composite_baseline(0, 2).unwrap();
    pool.flush().unwrap();

    let leading = RangePredicate::range(0, 0.0, ROWS as f64);
    let value = RangePredicate::range(2, 100.0, 699.0);
    let check = |db: &Database, idx: &str| {
        let healthy = db.lookup_box(key, leading, value);
        assert_eq!((healthy.rows.len(), healthy.unreadable, healthy.unresolved), (600, 0, 0));
        let candidates = healthy.rows.len() + healthy.false_positives;

        let before = pool.stats().hits() + pool.stats().misses();
        db.lookup_box(key, leading, value);
        let visits = pool.stats().hits() + pool.stats().misses() - before;
        let mut pages: Vec<u32> = healthy.rows.iter().map(|loc| loc.block).collect();
        pages.dedup(); // rows come back in heap order
        assert!(visits <= candidates as u64, "index {idx}: at most one visit per candidate");
        assert!(visits >= pages.len() as u64, "index {idx}: every page with a match visited");

        store.set_fail_reads(true);
        let poisoned = db.lookup_box(key, leading, value);
        store.set_fail_reads(false);
        assert!(poisoned.unreadable > 0, "index {idx}: the failed loads must be reported");
        assert_eq!(poisoned.unresolved, 0, "index {idx}: an unreadable page is not a deleted row");
        // Every candidate is a match, a false positive, or on an unreadable
        // page — and each unreadable page hides at least one candidate.
        assert!(
            poisoned.rows.len() + poisoned.false_positives + poisoned.unreadable <= candidates,
            "index {idx}: an unreadable page holds candidates, never an extra count"
        );
        assert!(poisoned.rows.len() + poisoned.false_positives < candidates, "index {idx}");
        assert!(poisoned.false_positives <= healthy.false_positives, "index {idx}");

        let healed = db.lookup_box(key, leading, value);
        assert_eq!((healed.rows, healed.unreadable), (healthy.rows, 0));
    };
    check(&db, "direct");
    assert_eq!(db.create_composite_hermit(0, 2, 1).unwrap(), key);
    check(&db, "hermit");
}

/// A reorganization whose rebuild scan cannot read the heap installs
/// nothing: a subtree built from a partial scan would lose the tuples the
/// scan missed, and queries would answer short with `unreadable` 0 — the
/// lost tuples are no longer candidates at all. The candidate stays queued
/// until the heap reads again.
#[test]
fn a_reorganization_that_cannot_read_the_heap_keeps_its_subtree() {
    const FRAMES: usize = 4;
    let store = Arc::new(FaultyPageStore::new(Arc::new(SimulatedPageStore::new())));
    let pool = Arc::new(BufferPool::new(Arc::<FaultyPageStore>::clone(&store), FRAMES));
    let mut db = Database::new_paged(PagedTable::new(schema(), Arc::clone(&pool)), 0);
    for i in 0..4_000i64 {
        db.insert(&row(i, i as f64)).unwrap(); // host = 2 · target
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    for j in 0..2_000i64 {
        // Off the model: buffered as outliers, which queues a split.
        db.insert(&[Value::Int(4_000 + j), Value::Float(-1.0e9), Value::Float(j as f64)]).unwrap();
    }
    let point = Query::new().point(2, 1_234.0);
    assert_eq!(db.plan(&point).kind(), PlanKind::Hermit);
    let answer = |db: &Database| {
        let r = db.execute(&point);
        (r.rows.len(), r.unreadable)
    };
    assert_eq!(answer(&db), (2, 0), "the on-model row and its off-model twin");

    let shared = SharedDatabase::new(db);
    let queued = shared.reorg_queue_len();
    assert!(queued > 0, "the flood must queue a split");
    store.set_fail_reads(true);
    let rebuilt = shared.maintenance_pass(64);
    store.set_fail_reads(false);
    assert_eq!(answer(shared.db()), (2, 0), "the pass must not drop the subtree's tuples");
    assert_eq!(rebuilt, 0, "nothing rebuilt from an unreadable heap");
    assert_eq!(shared.reorg_queue_len(), queued, "the candidate waits for a later pass");

    // The healed heap serves the same candidate.
    assert!(shared.maintenance_pass(64) > 0);
    assert_eq!(answer(shared.db()), (2, 0));
}
