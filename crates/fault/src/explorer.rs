//! Crash-schedule explorer: crash at *every* durability I/O site, recover,
//! and compare query-for-query against a clean oracle.
//!
//! The durability suite's hand-picked crash cases ("kill mid-WAL-append")
//! check a handful of schedules; this module enumerates them. Every
//! durability-relevant I/O in `hermit_storage` (page write, page fsync,
//! WAL append/commit/reset, atomic catalog/snapshot writes) passes a
//! [`fault_point`](hermit_storage::fault_point) hook; the explorer
//!
//! 1. runs a **canonical workload** (inserts, deletes, index builds —
//!    single-column and composite — checkpoints, committed and aborted multi-statement transactions)
//!    once with a counting hook to learn the site schedule, and checks that
//!    each [`Site`] it passes is one source location and that it passes
//!    every site but the two only a reopen reaches;
//! 2. re-runs it once per chosen site *i*, snapshotting the durability
//!    directory the instant site *i* is reached — the `kill -9` image:
//!    everything `write(2)` produced is on "disk", everything buffered in
//!    user space is lost;
//! 3. recovers each snapshot via [`Database::open`] and checks the result
//!    against a **statement-prefix oracle**.
//!
//! The workload runs with `wal_sync_every = 1`, so every DML statement is
//! WAL-durable the moment it returns. A crash during statement *j* must
//! therefore recover to exactly `states[j]` (statement in flight lost) or
//! `states[j + 1]` (statement's WAL record reached the device) — nothing
//! else is legal. The matched state is then re-checked query-for-query: a
//! scratch in-memory database holding those rows (no secondary indexes —
//! it answers by scan) must agree with the recovered database (which
//! exercises its real Hermit/baseline plans) on every query shape.
//!
//! Snapshots happen *before* the instrumented I/O executes, so page and
//! WAL writes are atomic in this model. Sub-write tearing is covered
//! separately: a checkpoint page write torn by a
//! [`FaultyPageStore`](crate::FaultyPageStore) torn-write plan by the
//! durability suite's `torn_checkpoint_page_is_reported_at_open`, a torn
//! log by its `torn_wal_tail_recovers_to_last_complete_record` and the
//! fault-injection suite's WAL mangler proptest.

use hermit_core::recovery::{DurabilityConfig, CATALOG_FILE};
use hermit_core::{Database, IndexKey, Query, QueryResult, RangePredicate};
use hermit_storage::{ColumnDef, FaultAction, Schema, Site, TidScheme, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The sites only a reopen passes — a log's torn tail truncated, the page
/// file trimmed to the catalog's watermark. The canonical workload creates
/// its database and never reopens it, so it reaches every site but these;
/// `hermit_storage`'s fault tests reach them.
const REOPEN_ONLY: [Site; 2] = [Site::WalReopen, Site::PageTrim];

/// One site whose recovery failed the oracle check.
#[derive(Debug)]
pub struct SiteFailure {
    /// Global site index in the canonical schedule.
    pub site: usize,
    /// The site (`wal.append`, `page.write`, …).
    pub name: Site,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// Result of a [`explore`] run.
#[derive(Debug)]
pub struct ExplorerReport {
    /// Total crash sites the canonical workload passes through.
    pub total_sites: usize,
    /// Per-site-name occurrence counts across the schedule.
    pub site_names: BTreeMap<Site, usize>,
    /// Site indices actually explored (all of them, or a strided sample
    /// when a budget is set).
    pub explored: Vec<usize>,
    /// Sites whose recovery diverged from the oracle. Empty = pass.
    pub failures: Vec<SiteFailure>,
}

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

/// One DML operation inside a [`Stmt::Txn`] statement.
#[derive(Debug, Clone)]
enum TxnOp {
    /// `insert_txn` of `[pk, host, target]`.
    Insert(i64, f64, f64),
    /// `delete_by_pk_txn`.
    Delete(i64),
}

/// One statement of the canonical workload.
#[derive(Debug, Clone)]
enum Stmt {
    /// `Database::create_durable` (statement 0; no logical rows).
    Create,
    /// Insert `[pk, host, target]`.
    Insert(i64, f64, f64),
    /// Delete by primary key.
    Delete(i64),
    /// Build the baseline index on `host`, or with `Some(pk column)` the
    /// composite one on `(pk, host)`.
    Baseline(Option<usize>),
    /// Build the Hermit index `target → host` through the baseline at the
    /// same leading column: `None`, or `Some(pk column)` for the composite
    /// index on `(pk, target)`.
    Hermit(Option<usize>),
    /// Explicit WAL commit.
    Commit,
    /// Full checkpoint.
    Checkpoint,
    /// A point query on the host index that must find exactly one row, on
    /// a page the one-frame pool does not hold. The buffer pool reads the
    /// record through (`page.read_range`) unless the page holds a
    /// tombstone, and loads the page (`page.read`) if it does. Changes
    /// nothing.
    ColdRead(f64),
    /// A whole multi-statement transaction — begin, the ops, then commit
    /// (`commit: true`) or rollback (`commit: false`). Modeled as ONE
    /// workload statement because that is exactly the atomicity contract:
    /// a crash anywhere inside it must recover either the full pre-state
    /// (loser rolled back) or, once the `wal.txn_commit` record is down,
    /// the full post-state — never a partial transaction.
    Txn {
        /// The transaction's DML, in order.
        ops: Vec<TxnOp>,
        /// Commit (true) or roll back (false) at the end.
        commit: bool,
    },
}

/// The canonical DML + DDL + checkpoint workload: two checkpoint cycles,
/// inserts (some off-model outliers), deletes, and index builds — every
/// durability code path, ~90 statements, a few hundred I/O sites.
fn statements() -> Vec<Stmt> {
    let mut s = vec![Stmt::Create];
    for i in 0..40i64 {
        let m = (10 + i) as f64;
        s.push(Stmt::Insert(i, 2.0 * m, m));
    }
    s.push(Stmt::Baseline(None));
    s.push(Stmt::Hermit(None));
    s.push(Stmt::Baseline(Some(0)));
    s.push(Stmt::Hermit(Some(0)));
    s.push(Stmt::Checkpoint);
    for i in 0..20i64 {
        let m = (60 + i) as f64;
        s.push(Stmt::Insert(100 + i, 2.0 * m, m));
    }
    for i in 0..3i64 {
        // Off-model host: lands in the TRS outlier buffers.
        s.push(Stmt::Insert(200 + i, 9.0e8, 150.0 + i as f64));
    }
    for pk in (0..40i64).step_by(5) {
        s.push(Stmt::Delete(pk));
    }
    s.push(Stmt::Checkpoint);
    for i in 0..12i64 {
        let m = (90 + i) as f64;
        s.push(Stmt::Insert(300 + i, 2.0 * m, m));
    }
    for pk in 100..104i64 {
        s.push(Stmt::Delete(pk));
    }
    // Committed transaction: inserts and deferred deletes land atomically
    // (crash inside it must yield all-or-nothing).
    s.push(Stmt::Txn {
        ops: vec![
            TxnOp::Insert(400, 240.0, 120.0),
            TxnOp::Insert(401, 242.0, 121.0),
            TxnOp::Delete(301),
            TxnOp::Delete(1),
        ],
        commit: true,
    });
    // Aborted transaction (with an off-model outlier insert and a
    // delete-of-own-insert): must leave no trace at any crash site.
    s.push(Stmt::Txn {
        ops: vec![
            TxnOp::Insert(500, 9.0e8, 170.0),
            TxnOp::Delete(302),
            TxnOp::Insert(501, 250.0, 125.0),
            TxnOp::Delete(501),
            TxnOp::Delete(2),
        ],
        commit: false,
    });
    // A second committed transaction right at the tail, so `wal.txn_commit`
    // is also exercised as the final durable record before the drop-flush.
    s.push(Stmt::Txn { ops: vec![TxnOp::Insert(402, 244.0, 122.0)], commit: true });
    // A transaction that overflows the first heap page: allocating the
    // second steals the first from the one-frame pool while the transaction
    // is open (`wal.barrier`). Then one row of each page, alone: the first
    // page holds tombstones and is loaded back, which pushes the second
    // out; the second holds none, and its row is read through.
    let ops = (0..240i64)
        .map(|i| {
            let m = (600 + i) as f64;
            TxnOp::Insert(1_000 + i, 2.0 * m, m)
        })
        .collect();
    s.push(Stmt::Txn { ops, commit: true });
    s.push(Stmt::ColdRead(2.0 * 13.0)); // pk 3, first page
    s.push(Stmt::ColdRead(2.0 * 839.0)); // pk 1 239, second page
    s.push(Stmt::Commit);
    s
}

type RowMap = BTreeMap<i64, Vec<Value>>;

fn apply_logical(state: &mut RowMap, stmt: &Stmt) {
    match stmt {
        Stmt::Insert(pk, host, target) => {
            state.insert(*pk, vec![Value::Int(*pk), Value::Float(*host), Value::Float(*target)]);
        }
        Stmt::Delete(pk) => {
            state.remove(pk);
        }
        // A committed transaction applies all of its ops; an aborted one
        // applies nothing — atomicity is the oracle.
        Stmt::Txn { ops, commit: true } => {
            for op in ops {
                match op {
                    TxnOp::Insert(pk, host, target) => {
                        state.insert(
                            *pk,
                            vec![Value::Int(*pk), Value::Float(*host), Value::Float(*target)],
                        );
                    }
                    TxnOp::Delete(pk) => {
                        state.remove(pk);
                    }
                }
            }
        }
        _ => {}
    }
}

/// Query shapes the oracle enumerates: Hermit route + point (incl. an
/// outlier), baseline range, seq scan, multi-conjunct, a `(pk, target)`
/// box, wide fallback.
/// Deliberately no `limit`: limited results are order-dependent and two
/// correct databases may legally pick different subsets.
fn queries() -> Vec<Query> {
    vec![
        Query::filter(RangePredicate::range(2, 12.0, 35.0)),
        Query::filter(RangePredicate::point(2, 150.0)),
        Query::filter(RangePredicate::range(1, 40.0, 160.0)),
        Query::filter(RangePredicate::range(0, 5.0, 305.0)),
        Query::new().range(2, 0.0, 95.0).range(1, 30.0, 190.0),
        Query::new().range(0, 5.0, 305.0).range(2, 12.0, 130.0),
        Query::filter(RangePredicate::range(2, 0.0, 1.0e9)),
    ]
}

/// The box the recovered composite Hermit index is held to, forced
/// through [`Database::lookup_box`]: `(leading, target)` conjuncts.
fn composite_box() -> (RangePredicate, RangePredicate) {
    (RangePredicate::range(0, 0.0, 1.0e6), RangePredicate::range(2, 12.0, 200.0))
}

fn rows_of(db: &Database, q: &Query) -> Vec<Vec<Value>> {
    sorted_rows(db, &db.execute(q))
}

/// A result's rows, by pk.
fn sorted_rows(db: &Database, result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> =
        result.rows.iter().map(|&loc| db.heap().get(loc).unwrap()).collect();
    rows.sort_by_key(|r| r[0].as_i64());
    rows
}

/// Snapshot the durable state of a database directory — what `kill -9`
/// leaves behind.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

struct HookState {
    count: usize,
    names: Vec<Site>,
    /// Where each site's fault point was passed (counting pass only).
    locations: BTreeMap<Site, BTreeSet<&'static Location<'static>>>,
    record_names: bool,
    crash_at: Option<usize>,
    source: PathBuf,
    snapshot_to: Option<PathBuf>,
    snapped: bool,
}

/// Run the canonical workload in `dir` with the hook installed. Returns
/// `(stmt_starts, drop_start, total)`: the site index each statement began
/// at, the index where the end-of-run drop-flush began, and the grand
/// total. Crash passes stop executing statements once the snapshot is
/// taken (the schedule prefix up to the crash site is identical by
/// construction, and nothing after it matters).
fn run_workload(
    dir: &Path,
    config: &DurabilityConfig,
    state: &Rc<RefCell<HookState>>,
) -> (Vec<usize>, usize, usize) {
    let hook_state = Rc::clone(state);
    let _guard = hermit_storage::install_fault_hook(move |site, at| {
        let mut s = hook_state.borrow_mut();
        let i = s.count;
        s.count += 1;
        if s.record_names {
            s.names.push(site);
            s.locations.entry(site).or_default().insert(at);
        }
        if s.crash_at == Some(i) {
            let to = s.snapshot_to.clone().expect("crash passes set a snapshot path");
            copy_dir(&s.source, &to);
            s.snapped = true;
        }
        FaultAction::Continue
    });

    let stmts = statements();
    let mut starts = Vec::with_capacity(stmts.len());
    starts.push(state.borrow().count);
    let mut db = Database::create_durable(schema(), 0, dir, config).expect("create_durable");
    for stmt in &stmts[1..] {
        if state.borrow().snapped {
            // Pad the remaining boundaries so the vector stays aligned
            // (only the counting pass consumes them, and it never snaps).
            while starts.len() < stmts.len() {
                starts.push(state.borrow().count);
            }
            break;
        }
        starts.push(state.borrow().count);
        match stmt {
            Stmt::Create => unreachable!("Create is statement 0"),
            Stmt::Insert(pk, host, target) => {
                db.insert(&[Value::Int(*pk), Value::Float(*host), Value::Float(*target)])
                    .expect("insert");
            }
            Stmt::Delete(pk) => {
                db.delete_by_pk(*pk).expect("delete");
            }
            Stmt::Baseline(None) => {
                db.create_baseline_index(1, true).expect("baseline index");
            }
            Stmt::Baseline(Some(leading)) => {
                db.create_composite_baseline(*leading, 1).expect("composite baseline index");
            }
            Stmt::Hermit(None) => {
                db.create_hermit_index(2, 1).expect("hermit index");
            }
            Stmt::Hermit(Some(leading)) => {
                db.create_composite_hermit(*leading, 2, 1).expect("composite hermit index");
            }
            Stmt::Commit => {
                db.wal_commit().expect("wal commit");
            }
            Stmt::Checkpoint => {
                db.checkpoint(dir).expect("checkpoint");
            }
            Stmt::ColdRead(host) => {
                let found = db.execute(&Query::filter(RangePredicate::point(1, *host)));
                assert_eq!((found.rows.len(), found.unreadable), (1, 0), "cold read");
            }
            Stmt::Txn { ops, commit } => {
                let t = db.begin().expect("begin");
                for op in ops {
                    match op {
                        TxnOp::Insert(pk, host, target) => {
                            db.insert_txn(
                                t,
                                &[Value::Int(*pk), Value::Float(*host), Value::Float(*target)],
                            )
                            .expect("txn insert");
                        }
                        TxnOp::Delete(pk) => {
                            db.delete_by_pk_txn(t, *pk).expect("txn delete");
                        }
                    }
                }
                if *commit {
                    db.commit(t).expect("txn commit");
                } else {
                    db.rollback(t).expect("txn rollback");
                }
            }
        }
    }
    while starts.len() < stmts.len() {
        starts.push(state.borrow().count);
    }
    let drop_start = state.borrow().count;
    drop(db); // drop-flush I/O is part of the schedule
    let total = state.borrow().count;
    (starts, drop_start, total)
}

/// Recover `snapshot` and verify it against the statement-prefix window
/// `states[lo] ..= states[hi]`.
fn verify_snapshot(
    snapshot: &Path,
    config: &DurabilityConfig,
    states: &[RowMap],
    lo: usize,
    hi: usize,
) -> Result<(), String> {
    let recovered = match Database::open(snapshot, config) {
        Ok(db) => db,
        Err(e) => {
            if snapshot.join(CATALOG_FILE).exists() {
                return Err(format!("open failed with a catalog present: {e}"));
            }
            // Crash before the very first catalog landed: there is no
            // database to recover, and a typed failure is the contract.
            return Ok(());
        }
    };

    // Which legal statement prefix did recovery land on?
    let mut got: RowMap = BTreeMap::new();
    for row in rows_of(&recovered, &Query::filter(RangePredicate::range(0, -1.0e15, 1.0e15))) {
        let pk = row[0].as_i64().ok_or("recovered row with non-int pk")?;
        if got.insert(pk, row).is_some() {
            return Err(format!("recovered two live rows for pk {pk}"));
        }
    }
    if recovered.len() != got.len() {
        return Err(format!(
            "len() = {} but the full scan returned {} rows",
            recovered.len(),
            got.len()
        ));
    }
    let Some(k) = (lo..=hi).find(|&k| states[k] == got) else {
        return Err(format!(
            "recovered {} rows matching no statement prefix in [{lo}, {hi}] \
             (prefix sizes {:?})",
            got.len(),
            (lo..=hi).map(|k| states[k].len()).collect::<Vec<_>>(),
        ));
    };

    // Query-for-query oracle: a clean in-memory database holding the same
    // rows (scan-only — no secondary indexes) must agree with the
    // recovered database's real plans on every shape.
    let oracle = Database::new(schema(), 0, TidScheme::Physical);
    for row in states[k].values() {
        oracle.insert(row).map_err(|e| format!("oracle insert: {e}"))?;
    }
    for q in queries() {
        let want = rows_of(&oracle, &q);
        let got = rows_of(&recovered, &q);
        if want != got {
            return Err(format!(
                "query {q:?} diverged at prefix {k}: oracle {} rows, recovered {} rows",
                want.len(),
                got.len()
            ));
        }
    }
    // Once a checkpoint has catalogued the composite Hermit index, its
    // forced box route answers like the scan.
    let key = IndexKey::composite(0, 2);
    if recovered.index_at(key).is_some() {
        let (leading, value) = composite_box();
        let want = rows_of(&oracle, &Query::filter(leading).and(value));
        let got = sorted_rows(&recovered, &recovered.lookup_box(key, leading, value));
        if want != got {
            return Err(format!(
                "composite box diverged at prefix {k}: oracle {} rows, recovered {} rows",
                want.len(),
                got.len()
            ));
        }
    }
    Ok(())
}

/// Run the crash-schedule explorer under `root` (created fresh, removed on
/// success). `budget` bounds how many sites are explored: `None` explores
/// every site, `Some(n)` explores an evenly-strided sample of `n`.
pub fn explore(root: &Path, budget: Option<usize>) -> ExplorerReport {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create explorer root");
    // One frame: the workload's second heap page pushes the first out.
    let config = DurabilityConfig { wal_sync_every: 1, pool_pages: 1, pool_shards: 1 };

    // Pass 1: count the sites and learn each statement's site window.
    let work = root.join("count");
    let state = Rc::new(RefCell::new(HookState {
        count: 0,
        names: Vec::new(),
        locations: BTreeMap::new(),
        record_names: true,
        crash_at: None,
        source: work.clone(),
        snapshot_to: None,
        snapped: false,
    }));
    let (starts, drop_start, total) = run_workload(&work, &config, &state);
    let names = std::mem::take(&mut state.borrow_mut().names);
    let mut site_names: BTreeMap<Site, usize> = BTreeMap::new();
    for &n in &names {
        *site_names.entry(n).or_insert(0) += 1;
    }
    // A schedule ordinal names one call site, and the workload reaches the
    // whole matrix but the reopen path.
    for (site, at) in &state.borrow().locations {
        assert!(at.len() == 1, "fault site {site} is passed at {} places: {at:?}", at.len());
    }
    let unreached: Vec<Site> = Site::ALL
        .iter()
        .copied()
        .filter(|site| !site_names.contains_key(site) && !REOPEN_ONLY.contains(site))
        .collect();
    assert!(unreached.is_empty(), "the canonical workload never reached {unreached:?}");

    // Logical statement-prefix states.
    let stmts = statements();
    let mut states: Vec<RowMap> = vec![BTreeMap::new()];
    for stmt in &stmts {
        let mut next = states.last().unwrap().clone();
        apply_logical(&mut next, stmt);
        states.push(next);
    }
    let last = stmts.len();
    // A crash at site i during statement j (or the final drop-flush) may
    // recover the pre- or post-statement prefix, nothing else.
    let window = |site: usize| -> (usize, usize) {
        if site >= drop_start {
            (last, last)
        } else {
            let j = starts.partition_point(|&s| s <= site) - 1;
            (j, j + 1)
        }
    };

    let explored: Vec<usize> = match budget {
        Some(n) if n < total => {
            let mut picked: Vec<usize> = (0..n).map(|j| j * total / n).collect();
            picked.dedup();
            picked
        }
        _ => (0..total).collect(),
    };

    // Pass 2: crash at each chosen site, recover, verify.
    let mut failures = Vec::new();
    for &site in &explored {
        let run_dir = root.join(format!("run-{site}"));
        let snap_dir = root.join(format!("snap-{site}"));
        let state = Rc::new(RefCell::new(HookState {
            count: 0,
            names: Vec::new(),
            locations: BTreeMap::new(),
            record_names: false,
            crash_at: Some(site),
            source: run_dir.clone(),
            snapshot_to: Some(snap_dir.clone()),
            snapped: false,
        }));
        run_workload(&run_dir, &config, &state);
        let name = names[site];
        if !state.borrow().snapped {
            failures.push(SiteFailure {
                site,
                name,
                detail: "schedule diverged: crash site never reached".to_string(),
            });
        } else {
            let (lo, hi) = window(site);
            if let Err(detail) = verify_snapshot(&snap_dir, &config, &states, lo, hi) {
                failures.push(SiteFailure { site, name, detail });
            }
        }
        let _ = std::fs::remove_dir_all(&run_dir);
        let _ = std::fs::remove_dir_all(&snap_dir);
    }

    if failures.is_empty() {
        let _ = std::fs::remove_dir_all(root);
    }
    ExplorerReport { total_sites: total, site_names, explored, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counting pass alone (a budget of 0: no crash snapshots, one
    /// workload execution). `explore` itself asserts that each site the
    /// schedule passes is one source location and that the workload
    /// reaches every [`Site`] but [`REOPEN_ONLY`]; this checks the report
    /// agrees.
    #[test]
    fn crash_matrix_reconciles_with_the_explorer() {
        let root = std::env::temp_dir().join(format!("hermit-matrix-{}", std::process::id()));
        let report = explore(&root, Some(0));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let reached: Vec<Site> = report.site_names.keys().copied().collect();
        let expected: Vec<Site> =
            Site::ALL.iter().copied().filter(|site| !REOPEN_ONLY.contains(site)).collect();
        assert_eq!(reached, expected);
        assert_eq!(report.site_names.values().sum::<usize>(), report.total_sites);
    }
}
