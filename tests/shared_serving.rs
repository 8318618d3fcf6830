//! Stress suite for the concurrent serving layer (`hermit_core::shared`).
//!
//! Readers, writers, and the §4.4 background reorganization worker hammer
//! one [`SharedDatabase`] simultaneously; afterwards the survivors are
//! compared query-for-query against the reference model
//! (`hermit_fault::model`) of the same statements. Every plan kind is
//! exercised (Hermit route, baseline index range scan, composite box scan on
//! the in-memory substrate, seq scan), on both tuple schemes and both
//! storage substrates. On the in-memory substrate the worker also
//! reorganizes a composite Hermit tree while the writers insert, and its box
//! route is held to the model afterwards.
//!
//! The workload is deterministic *in its final state*: each writer owns a
//! disjoint pk range for inserts and a disjoint slice of the seed rows for
//! deletes, so whatever the interleaving, the model can replay the writes
//! one writer after the other.

use hermit::core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
use hermit::core::{BatchOptions, Database, IndexKey, Query, RangePredicate, SecondaryIndex};
use hermit::fault::{Mirror, Model};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use std::sync::Arc;

const SEED_ROWS: i64 = 10_000;
const WRITERS: i64 = 4;
const INSERTS_PER_WRITER: i64 = 1_000;
const DELETES_PER_WRITER: i64 = 500;
const READERS: usize = 2;
const READER_QUERIES: usize = 120;
/// pk base for writer-inserted rows, far above every seed pk.
const INSERT_BASE: i64 = 1_000_000;
/// Key of the composite Hermit index on `(pk, target)`, routed through the
/// `(pk, host)` baseline.
const COMPOSITE_HERMIT: IndexKey = IndexKey::composite(0, 2);

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// The one deterministic row shape: everything derives from the pk.
fn row_for(pk: i64) -> Vec<Value> {
    let m = (pk % 50_000) as f64 + if pk >= INSERT_BASE { 0.25 } else { 0.0 };
    // Every 17th row is an outlier (host off the 2·m model).
    let host = if pk % 17 == 0 { -5.0e7 } else { 2.0 * m };
    vec![Value::Int(pk), Value::Float(host), Value::Float(m), Value::Float(10.0 * m)]
}

/// pks deleted by writer `w` (a disjoint slice of the seed rows).
fn deleted_pks(w: i64) -> impl Iterator<Item = i64> {
    (w * DELETES_PER_WRITER)..((w + 1) * DELETES_PER_WRITER)
}

/// pks inserted by writer `w` (a disjoint range above the seeds).
fn inserted_pks(w: i64) -> impl Iterator<Item = i64> {
    (INSERT_BASE + w * INSERTS_PER_WRITER)..(INSERT_BASE + (w + 1) * INSERTS_PER_WRITER)
}

enum Substrate {
    Mem,
    Paged,
}

/// Build an indexed database over the seed rows, and the model of them.
fn build_db(substrate: &Substrate, scheme: TidScheme, with_composite: bool) -> (Database, Model) {
    let mut db = match substrate {
        Substrate::Mem => Database::new(schema(), 0, scheme),
        Substrate::Paged => {
            let store = Arc::new(SimulatedPageStore::new());
            // Hot sharded pool: the stress is about latches, not misses.
            let pool = Arc::new(BufferPool::new_sharded(store, 4_096, 8));
            Database::new_paged(PagedTable::new(schema(), pool), 0)
        }
    };
    let mut model = Model::new(0);
    let mut m = Mirror::new(&db, &mut model);
    for pk in 0..SEED_ROWS {
        m.insert(&row_for(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    if with_composite {
        db.create_composite_baseline(0, 3).unwrap();
        db.create_composite_baseline(0, 1).unwrap();
        // A split trigger below the 1-in-17 outlier share: every buffered
        // insert queues work, so the worker reorganizes this tree while
        // the writers run.
        db.set_trs_params(TrsParams { split_trigger_ratio: 0.05, ..TrsParams::default() });
        assert_eq!(db.create_composite_hermit(0, 2, 1).unwrap(), COMPOSITE_HERMIT);
    }
    (db, model)
}

/// The query panel: one query per plan kind the database supports.
fn query_panel(with_composite: bool) -> Vec<Query> {
    let mut panel = vec![
        // Hermit route on the target column.
        Query::new().range(2, 1_200.0, 1_450.0),
        // Point probe through the Hermit route (seed pk 2500 stays alive:
        // the writers only delete seed pks below 2000).
        Query::new().point(2, 2_500.0),
        // Baseline index range scan on the host column.
        Query::new().range(1, 4_000.0, 4_500.0),
        // Hermit route + residual conjunct validated at the base table.
        Query::new().range(2, 2_000.0, 3_000.0).range(3, 21_000.0, 24_000.0),
        // Unindexed column: the seq-scan fallback.
        Query::new().range(3, 55_000.0, 56_000.0),
    ];
    if with_composite {
        // Composite (pk, target) box through the composite Hermit index.
        panel.push(Query::new().range(0, 3_000.0, 6_000.0).range(2, 3_100.0, 5_900.0));
        // Composite (pk, other) baseline box scan.
        panel.push(Query::new().range(0, 3_000.0, 6_000.0).range(3, 31_000.0, 59_000.0));
    }
    panel
}

/// Run the mixed readers/writers/worker stress over one configuration and
/// compare the quiesced database against the model.
fn run_stress(substrate: Substrate, scheme: TidScheme) {
    let with_composite = matches!(substrate, Substrate::Mem);
    let (db, mut model) = build_db(&substrate, scheme, with_composite);
    let shared = SharedDatabase::new(db);
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let panel = query_panel(with_composite);

    crossbeam::thread::scope(|s| {
        for w in 0..WRITERS {
            let shared = shared.clone();
            s.spawn(move |_| {
                let mut deletes = deleted_pks(w);
                for (i, pk) in inserted_pks(w).enumerate() {
                    shared.insert(&row_for(pk)).unwrap();
                    // Interleave deletes of this writer's seed slice.
                    if i % 2 == 0 {
                        if let Some(del) = deletes.next() {
                            shared.delete_by_pk(del).unwrap();
                        }
                    }
                }
                for del in deletes {
                    shared.delete_by_pk(del).unwrap();
                }
            });
        }
        for r in 0..READERS {
            let shared = shared.clone();
            let panel = &panel;
            s.spawn(move |_| {
                for i in 0..READER_QUERIES {
                    let q = &panel[(i + r) % panel.len()];
                    // Results under churn are a consistent snapshot of each
                    // structure at probe time; validation guarantees no
                    // false positives, so executing must never panic, alone
                    // or in a batch.
                    let _ = shared.execute(q);
                    if i % 16 == 0 {
                        let _ = shared.execute_batch(panel, &BatchOptions::default());
                    }
                }
            });
        }
    })
    .unwrap();

    // Quiesce: writers joined; give the worker a bounded window to drain
    // whatever is still queued, then stop it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while shared.reorg_queue_len() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let (sweeps, _) = worker.stop();
    assert!(sweeps > 0, "worker must have run");
    assert_eq!(shared.reorg_queue_len(), 0, "worker failed to drain the reorg queue in time");

    // The model replays the writers one after the other.
    for w in 0..WRITERS {
        for pk in inserted_pks(w) {
            model.insert(&row_for(pk)).unwrap();
        }
        for pk in deleted_pks(w) {
            model.delete(pk).unwrap();
        }
    }

    if with_composite {
        // The composite Hermit tree took the writers' inserts and deletes
        // while the worker reorganized it: its forced box route must give
        // the model's rows, deleted seeds and new inserts alike.
        let Some(SecondaryIndex::Hermit { trs, .. }) = shared.index_at(COMPOSITE_HERMIT) else {
            panic!("composite Hermit index missing")
        };
        assert!(trs.reorg_passes() > 0, "the worker must have reorganized the composite tree");
        let (leading, value) = (
            RangePredicate::range(0, 0.0, 2.0 * INSERT_BASE as f64),
            RangePredicate::range(2, 500.0, 3_500.0),
        );
        let spanned = model.answer(&Query::filter(leading).and(value), None).len();
        assert!(spanned > 3_000, "the box spans seeds and inserts: {spanned}");
        model.verify_box(&shared, COMPOSITE_HERMIT, leading, value).unwrap();
    }

    // Every panel query selects something and agrees with the model,
    // executed alone and as one batch; so does the Hermit route over every
    // row, which must have no false negatives across reorganizations.
    for q in &panel {
        assert!(!model.answer(q, None).is_empty(), "panel query {q:?} must select something");
    }
    model.check(&shared, &[panel, vec![Query::new().range(2, 0.0, 60_000.0)]].concat());
}

#[test]
fn stress_mem_logical() {
    run_stress(Substrate::Mem, TidScheme::Logical);
}

#[test]
fn stress_mem_physical() {
    run_stress(Substrate::Mem, TidScheme::Physical);
}

#[test]
fn stress_paged_physical() {
    // The paged substrate is physical-pointer only, like PostgreSQL.
    run_stress(Substrate::Paged, TidScheme::Physical);
}

/// Regression: `Database::outlier_share` is documented as *buffered
/// outliers over the tuples the index accounts for* (model-covered +
/// buffered). It used to divide by the table's total row count instead,
/// which silently deflates the ratio whenever the table holds rows the
/// index never saw — e.g. NULL target cells — and that in turn starves
/// the maintenance scheduling built on top of it.
#[test]
fn outlier_share_denominator_is_index_covered_not_table_len() {
    let nullable_schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float_null("target"),
    ]);
    let mut db = Database::new(nullable_schema, 0, TidScheme::Physical);
    // 800 perfectly on-model rows: host = 2·target.
    for pk in 0..800i64 {
        let m = pk as f64;
        db.insert(&[Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    let shared = SharedDatabase::new(db);
    assert_eq!(shared.outlier_share(2), Some(0.0), "linear build keeps no outliers");

    // 200 buffered outliers: host far off the model.
    for i in 0..200i64 {
        let m = (i % 800) as f64;
        shared.insert(&[Value::Int(10_000 + i), Value::Float(-1.0e9), Value::Float(m)]).unwrap();
    }
    // 500 rows the index never sees (NULL target): table rows, not index
    // tuples — they must not dilute the denominator.
    for i in 0..500i64 {
        shared.insert(&[Value::Int(20_000 + i), Value::Float(1.0), Value::Null]).unwrap();
    }
    assert_eq!(shared.len(), 1_500);
    let share = shared.outlier_share(2).unwrap();
    let want = 200.0 / 1_000.0; // outliers / (modeled + buffered)
    assert!(
        (share - want).abs() < 1e-9,
        "share must be {want} (not 200/1500 = {:.4}), got {share}",
        200.0 / 1_500.0
    );

    // Deleting buffered rows shrinks both sides of the ratio.
    for pk in 10_000..10_100i64 {
        shared.delete_by_pk(pk).unwrap();
    }
    let share = shared.outlier_share(2).unwrap();
    let want = 100.0 / 900.0;
    assert!((share - want).abs() < 1e-9, "after deletes share must be {want}, got {share}");

    // Unindexed / baseline columns still report nothing.
    assert_eq!(shared.outlier_share(1), None);
    assert_eq!(shared.outlier_share(0), None);
}

/// Sustained outlier-heavy churn: with the worker running, outlier share
/// must end up strictly below an identical run without the worker, and
/// background passes must actually have happened.
#[test]
fn churn_with_worker_shrinks_outlier_share() {
    let run = |with_worker: bool| -> (f64, u64, u64) {
        let shared = SharedDatabase::new(build_db(&Substrate::Mem, TidScheme::Physical, false).0);
        let worker = with_worker
            .then(|| MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default()));
        // Regime change under load: vacate [2000, 6000), then refill the
        // region with a different (locally linear) correlation. Every new
        // row is an outlier under the stale model; reorganization refits.
        crossbeam::thread::scope(|s| {
            s.spawn(|_| {
                for pk in 2_000..6_000i64 {
                    shared.delete_by_pk(pk).unwrap();
                }
                for i in 0..8_000i64 {
                    let m = 2_000.0 + i as f64 * 0.5;
                    shared
                        .insert(&[
                            Value::Int(2 * INSERT_BASE + i),
                            Value::Float(9.0 * m + 77.0),
                            Value::Float(m),
                            Value::Float(10.0 * m),
                        ])
                        .unwrap();
                }
            });
        })
        .unwrap();
        let sweeps = match worker {
            // Joins the thread, so no background pass is still in flight.
            Some(w) => w.stop().0,
            None => 0,
        };
        if with_worker {
            // Deterministic end state: catch up on whatever the worker had
            // not reached yet (scheduling-dependent) with synchronous
            // passes. `reorg_passes` counts these too, so `passes > 0`
            // holds whenever candidates were ever queued.
            let mut rounds = 0;
            while shared.maintenance_pass(64) > 0 && rounds < 100 {
                rounds += 1;
            }
            assert_eq!(shared.reorg_queue_len(), 0, "drain must converge");
        }
        (shared.outlier_share(2).unwrap(), shared.reorg_passes(), sweeps)
    };

    let (without_worker, passes_idle, _) = run(false);
    let (with_worker, passes_active, sweeps) = run(true);
    assert_eq!(passes_idle, 0);
    assert!(sweeps > 0, "the background worker must have swept");
    assert!(passes_active > 0, "reorganization passes must have executed");
    assert!(
        with_worker < without_worker / 2.0,
        "worker must shrink outlier share under churn: {without_worker} -> {with_worker}"
    );
}
