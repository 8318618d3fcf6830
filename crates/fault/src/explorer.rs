//! Crash-schedule explorer: crash at *every* durability I/O site, recover,
//! and compare query-for-query against the reference model.
//!
//! Every durability-relevant I/O in `hermit_storage` (page write, page
//! fsync, WAL append/commit/reset, atomic catalog/snapshot writes) passes a
//! [`fault_point`](hermit_storage::fault_point), which consults the fault
//! hook the database was given in its `DurabilityConfig`. The explorer
//!
//! 1. runs a **canonical workload** (inserts, deletes, single-column and
//!    composite index builds, checkpoints, committed and aborted
//!    transactions) once with a counting hook to learn the site schedule,
//!    checking that each [`Site`] it passes is one source location and that
//!    it passes every site but the two only a reopen reaches. Each statement
//!    runs through a [`Mirror`], and the [`Model`] after each is kept;
//! 2. re-runs it once per chosen site *i*, snapshotting the durability
//!    directory the instant site *i* is reached — the `kill -9` image:
//!    everything `write(2)` produced is on "disk", everything buffered in
//!    user space is lost;
//! 3. recovers each snapshot via [`Database::open`]. With `wal_sync_every
//!    = 1` every DML statement is durable when it returns, so a crash during
//!    statement *j* must recover to the model before it or after it —
//!    nothing else — and then answer every query shape (its real plans,
//!    scalar and batched) and the forced composite box like that model.
//!
//! Snapshots happen *before* the instrumented I/O executes, so page and
//! WAL writes are atomic here. Sub-write tearing is covered separately: a
//! checkpoint page write torn by the hook's
//! [`Torn`](hermit_storage::FaultAction::Torn) action by the durability
//! suite's `torn_checkpoint_page_is_reported_at_open`, a torn log by its
//! `torn_wal_tail_recovers_to_last_complete_record` and the
//! fault-injection suite's WAL mangler proptest.

use crate::model::{Mirror, Model};
use hermit_core::recovery::{DurabilityConfig, CATALOG_FILE};
use hermit_core::{Database, IndexKey, Query, RangePredicate};
use hermit_storage::{ColumnDef, FaultAction, FaultHook, Schema, Site, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The sites only a reopen passes — a log's torn tail truncated, the page
/// file trimmed to the catalog's watermark. The canonical workload creates
/// its database and never reopens it, so it reaches every site but these;
/// `hermit_storage`'s fault tests reach them.
const REOPEN_ONLY: [Site; 2] = [Site::WalReopen, Site::PageTrim];

/// One site whose recovery disagreed with the model.
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
    /// Sites whose recovery diverged from the model. Empty = pass.
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

/// The row `[pk, host, target]`.
fn row(pk: i64, host: f64, target: f64) -> Vec<Value> {
    vec![Value::Int(pk), Value::Float(host), Value::Float(target)]
}

/// Query shapes the model checks: Hermit route + point (incl. an outlier),
/// baseline range, seq scan, multi-conjunct, a `(pk, target)` box, wide
/// fallback, and a projection under a limit.
fn queries() -> Vec<Query> {
    vec![
        Query::filter(RangePredicate::range(2, 12.0, 35.0)),
        Query::filter(RangePredicate::point(2, 150.0)),
        Query::filter(RangePredicate::range(1, 40.0, 160.0)),
        Query::filter(RangePredicate::range(0, 5.0, 305.0)),
        Query::new().range(2, 0.0, 95.0).range(1, 30.0, 190.0),
        Query::new().range(0, 5.0, 305.0).range(2, 12.0, 130.0),
        Query::filter(RangePredicate::range(2, 0.0, 1.0e9)),
        Query::filter(RangePredicate::range(2, 12.0, 130.0)).select([0, 2]).limit(7),
    ]
}

/// Snapshot the durable state of a database directory — what `kill -9`
/// leaves behind.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[derive(Default)]
struct HookState {
    count: usize,
    /// The counting pass: each site passed, and where its fault point is.
    names: Vec<Site>,
    locations: BTreeMap<Site, BTreeSet<&'static Location<'static>>>,
    /// A crash pass: the site to snapshot the directory at, and where to.
    crash: Option<(usize, PathBuf)>,
    snapped: bool,
}

/// The site index each statement began at, the index where the end-of-run
/// drop-flush began, the grand total, and the model before each statement.
type Schedule = (Vec<usize>, usize, usize, Vec<Model>);

/// Run the canonical workload in `dir` on a database given the hook, each
/// statement through a [`Mirror`]. Crash passes stop executing statements
/// once the snapshot is taken (the schedule prefix up to the crash site is
/// identical by construction, and nothing after it matters); only the
/// counting pass's schedule is used.
fn run_workload(dir: &Path, config: &DurabilityConfig, state: &Arc<Mutex<HookState>>) -> Schedule {
    let (hook_state, source) = (Arc::clone(state), dir.to_path_buf());
    let hook = FaultHook::new(move |call| {
        let mut s = hook_state.lock();
        let i = s.count;
        s.count += 1;
        match s.crash.clone() {
            None => {
                s.names.push(call.site);
                s.locations.entry(call.site).or_default().insert(call.at);
            }
            Some((at, to)) if at == i => {
                copy_dir(&source, &to);
                s.snapped = true;
            }
            Some(_) => {}
        }
        FaultAction::Continue
    });

    let stmts = statements();
    let mut starts = vec![state.lock().count];
    let config = DurabilityConfig { fault_hook: Some(hook), ..config.clone() };
    let mut db = Database::create_durable(schema(), 0, dir, &config).expect("create_durable");
    let mut model = Model::new(0);
    let mut states = vec![model.clone(); 2];
    for stmt in &stmts[1..] {
        if state.lock().snapped {
            break;
        }
        starts.push(state.lock().count);
        let mut mirror = Mirror::new(&db, &mut model);
        match stmt {
            Stmt::Create => unreachable!("Create is statement 0"),
            Stmt::Insert(pk, host, target) => {
                mirror.insert(&row(*pk, *host, *target)).expect("insert")
            }
            Stmt::Delete(pk) => mirror.delete(*pk).expect("delete"),
            Stmt::Baseline(None) => db.create_baseline_index(1, true).expect("baseline index"),
            Stmt::Baseline(Some(leading)) => {
                db.create_composite_baseline(*leading, 1).expect("composite baseline index");
            }
            Stmt::Hermit(None) => db.create_hermit_index(2, 1).expect("hermit index"),
            Stmt::Hermit(Some(leading)) => {
                db.create_composite_hermit(*leading, 2, 1).expect("composite hermit index");
            }
            Stmt::Commit => db.wal_commit().expect("wal commit"),
            Stmt::Checkpoint => db.checkpoint(dir).expect("checkpoint"),
            Stmt::ColdRead(host) => {
                let found = db.execute(&Query::filter(RangePredicate::point(1, *host)));
                assert_eq!((found.rows.len(), found.unreadable), (1, 0), "cold read");
            }
            Stmt::Txn { ops, commit } => {
                let t = mirror.begin();
                for op in ops {
                    match op {
                        TxnOp::Insert(pk, host, target) => {
                            mirror.insert_txn(t, &row(*pk, *host, *target))
                        }
                        TxnOp::Delete(pk) => mirror.delete_txn(t, *pk),
                    }
                    .expect("txn statement");
                }
                if *commit {
                    mirror.commit(t)
                } else {
                    mirror.rollback(t)
                }
            }
        }
        states.push(model.clone());
    }
    let drop_start = state.lock().count;
    drop(db); // drop-flush I/O is part of the schedule
    let total = state.lock().count;
    (starts, drop_start, total, states)
}

/// Recover `snapshot` and verify it against the statement-prefix window
/// `states[lo] ..= states[hi]`.
fn verify_snapshot(
    snapshot: &Path,
    config: &DurabilityConfig,
    states: &[Model],
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

    // Which legal statement prefix did recovery land on? The one whose
    // model the full scan (and the row count) agrees with.
    let everything = [Query::filter(RangePredicate::range(0, -1.0e15, 1.0e15))];
    let Some(k) = (lo..=hi).find(|&k| states[k].verify(&recovered, &everything, None).is_ok())
    else {
        return Err(format!(
            "recovered {} rows matching no statement prefix in [{lo}, {hi}] \
             (prefix sizes {:?})",
            recovered.len(),
            (lo..=hi).map(|k| states[k].rows().len()).collect::<Vec<_>>(),
        ));
    };

    // Every shape through the recovered database's real plans, and — once a
    // checkpoint has catalogued the composite Hermit index — its forced box
    // route on `(pk, target)`.
    let key = IndexKey::composite(0, 2);
    let (leading, value) =
        (RangePredicate::range(0, 0.0, 1.0e6), RangePredicate::range(2, 12.0, 200.0));
    states[k]
        .verify(&recovered, &queries(), None)
        .and_then(|()| match recovered.index_at(key) {
            Some(_) => states[k].verify_box(&recovered, key, leading, value),
            None => Ok(()),
        })
        .map_err(|e| format!("prefix {k}: {e}"))
}

/// Run the crash-schedule explorer under `root` (created fresh, removed on
/// success). `budget` bounds how many sites are explored: `None` explores
/// every site, `Some(n)` explores an evenly-strided sample of `n`.
pub fn explore(root: &Path, budget: Option<usize>) -> ExplorerReport {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create explorer root");
    // One frame: the workload's second heap page pushes the first out.
    let config =
        DurabilityConfig { wal_sync_every: 1, pool_pages: 1, pool_shards: 1, fault_hook: None };

    // Pass 1: count the sites and learn each statement's site window.
    let work = root.join("count");
    let state = Arc::new(Mutex::new(HookState::default()));
    let (starts, drop_start, total, states) = run_workload(&work, &config, &state);
    let names = std::mem::take(&mut state.lock().names);
    let mut site_names: BTreeMap<Site, usize> = BTreeMap::new();
    for &n in &names {
        *site_names.entry(n).or_insert(0) += 1;
    }
    // A schedule ordinal names one call site, and the workload reaches the
    // whole matrix but the reopen path.
    for (site, at) in &state.lock().locations {
        assert!(at.len() == 1, "fault site {site} is passed at {} places: {at:?}", at.len());
    }
    let unreached: Vec<Site> = Site::ALL
        .iter()
        .copied()
        .filter(|site| !site_names.contains_key(site) && !REOPEN_ONLY.contains(site))
        .collect();
    assert!(unreached.is_empty(), "the canonical workload never reached {unreached:?}");

    let last = statements().len();
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
        let crash = Some((site, snap_dir.clone()));
        let state = Arc::new(Mutex::new(HookState { crash, ..HookState::default() }));
        run_workload(&run_dir, &config, &state);
        let name = names[site];
        if !state.lock().snapped {
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
