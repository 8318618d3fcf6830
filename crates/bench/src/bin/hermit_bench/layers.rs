//! The traced run: replay a fixed number of the workload's requests on one
//! thread against a data directory no load has touched, recording spans in
//! the driver around public calls into each layer, then run fixed-size probes
//! of the write-side structures on stand-alone instances.
//!
//! # Lanes
//!
//! Each request is executed exactly once, down one of these lanes, chosen in
//! rotation per request class so every lane sees the same mix:
//!
//! * **wire** — `server.roundtrip`: through an in-process `HermitServer` on
//!   loopback, the whole serving path.
//! * **engine** — the same request done by hand: `server.encode_req →
//!   server.decode_req → core.plan → core.execute` for reads, the matching
//!   `core.insert / core.delete / txn.begin / core.insert_txn / core.commit`
//!   for writes, then `server.encode_resp → server.decode_resp`.
//! * **stages** (reads only) — the executor's pipeline stage by stage through
//!   public index and heap calls: `trs.lookup → btree.host_probe →
//!   btree.primary_resolve → storage.heap_fetch`, then the response codec.
//!
//! One lane per request, not all three on the same request, because the lanes
//! share one buffer pool: whichever ran first would take the page misses and
//! the others would be measured warm, moving the cost of `read-cold` to the
//! wrong layer. Rotation also keeps pool counters equal to the stream's own.
//! Differences between lanes (`server.self_us`, `core.execute_self_us`) are
//! therefore differences of per-class means over interleaved thirds of one
//! stream, weighted back by the stream's class mix.

use crate::gen::{self, Class, Dataset, Mix, Op, OpStream, CONNS, HOST, TARGET};
use crate::load::{self, Sent};
use crate::report::Metric;
use crate::run::{perform, Settings, Spec};
use crate::serve::in_process;
use crate::trace::{Span, Tracer};
use hermit_btree::BPlusTree;
use hermit_core::{BatchOptions, Database, PlanKind, Query, SecondaryIndex, SharedDatabase};
use hermit_server::{HermitClient, Request, Response};
use hermit_storage::wal::{WalRecord, WalWriter};
use hermit_storage::{F64Key, Tid, Value};
use hermit_trs::{TrsParams, TrsTree};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Size of each stand-alone probe.
const PROBE_OPS: usize = 2_000;
/// `fsync`s the WAL probe times.
const PROBE_FSYNCS: usize = 50;
/// Queries per `execute_batch` call, and per pass of the snapshot probe.
const BATCH: usize = 64;

/// See the module docs.
#[derive(Clone, Copy)]
enum Lane {
    Wire,
    Engine,
    Stages,
}

const READ_LANES: [Lane; 3] = [Lane::Wire, Lane::Engine, Lane::Stages];
const WRITE_LANES: [Lane; 2] = [Lane::Wire, Lane::Engine];

/// Counts gathered beside the spans.
#[derive(Default)]
struct Counts {
    reads_engine: u64,
    rows: u64,
    false_positives: u64,
    unresolved: u64,
    hermit_plans: u64,
    reads_stages: u64,
    trs_ranges: u64,
    trs_outliers: u64,
    probe_tids: u64,
    response_bytes: u64,
}

/// Replay `spec` on `dir` and probe the layers; writes `trace.jsonl` to `out_dir`.
pub fn traced_run(
    spec: &Spec,
    settings: &Settings,
    dir: &Path,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let layout = spec.layout(settings);
    let mix = spec.mix(settings);
    let data = Dataset::generate(settings.seed, layout);
    let ops = (spec.trace_ops / settings.shrink).max(200);
    let mut m = Vec::new();

    let opened = Instant::now();
    let server = in_process(dir, spec.wal_sync_every, false)?;
    m.push(Metric::new("core.open_s", opened.elapsed().as_secs_f64(), 1));
    let shared = server.db().clone();
    let mut clients: Vec<HermitClient> = (0..CONNS)
        .map(|_| HermitClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;

    // ---- the replay -----------------------------------------------------
    let mut tracer = Tracer::new(true);
    let mut classes = Vec::with_capacity(ops);
    let mut counts = Counts::default();
    let pool_before = shared.pool_counters().unwrap_or_default();
    {
        let mut streams: Vec<OpStream> =
            (0..CONNS).map(|c| OpStream::new(settings.seed, layout, c, mix)).collect();
        let mut seen = [0usize; 3];
        // Per connection: lane of the write unit in progress, its engine-lane txn.
        let mut unit_lane = [Lane::Wire; CONNS];
        let mut engine_txn = [None; CONNS];
        for i in 0..ops {
            let conn = i % CONNS;
            let was_in_txn = streams[conn].in_txn();
            let op = streams[conn].next_op();
            let class = op.class();
            let lane = match class {
                Class::Write if was_in_txn => unit_lane[conn],
                Class::Write => WRITE_LANES[seen[class as usize] % WRITE_LANES.len()],
                _ => READ_LANES[seen[class as usize] % READ_LANES.len()],
            };
            if !was_in_txn {
                seen[class as usize] += 1;
                unit_lane[conn] = lane;
            }
            classes.push(class);
            tracer.request(i as u32);
            let live = streams[conn].live();
            tracer.span("request", |t| match lane {
                Lane::Wire => wire(t, &mut clients[conn], &data, live, &op),
                Lane::Engine => engine(t, &shared, &data, &op, &mut engine_txn[conn], &mut counts),
                Lane::Stages => stages(t, shared.db(), &op, &mut counts),
            })?;
        }
        // Close what the cut left open so the probes and the checkpoint can run.
        for (conn, stream) in streams.iter_mut().enumerate() {
            while stream.in_txn() {
                let op = stream.next_op();
                match unit_lane[conn] {
                    Lane::Wire => {
                        wire(&mut Tracer::new(false), &mut clients[conn], &data, stream.live(), &op)
                    }
                    _ => {
                        let t = &mut Tracer::new(false);
                        engine(
                            t,
                            &shared,
                            &data,
                            &op,
                            &mut engine_txn[conn],
                            &mut Counts::default(),
                        )
                    }
                }?;
            }
        }
    }
    let pool_after = shared.pool_counters().unwrap_or_default();
    let txn_counters = shared.txn_counters();
    span_metrics(&mut m, tracer.spans(), &classes, &counts);
    let (hits, misses) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    m.push(Metric::new("storage.pool_hit_share", ratio(hits, hits + misses, 1.0), hits + misses));
    m.push(Metric::new("storage.pool_misses_per_op", misses as f64 / ops as f64, ops as u64));
    m.push(Metric::new("storage.pool_evictions", (pool_after.2 - pool_before.2) as f64, 1));
    m.push(Metric::new("txn.commits", txn_counters.commits as f64, 1));
    m.push(Metric::new("txn.aborts", txn_counters.aborts as f64, 1));
    m.push(Metric::new("txn.conflicts", txn_counters.conflicts as f64, 1));

    // ---- probes on the live engine ---------------------------------------
    // Read-only requests of the workload's own shape, so the probes exist on
    // every workload.
    let probe_mix = mix.reads_only();
    let mut probe_stream = OpStream::new(settings.seed ^ 0x9B0B, layout, 0, probe_mix);
    let probe_ops: Vec<Op> = (0..PROBE_OPS / 4).map(|_| probe_stream.next_op()).collect();
    let queries: Vec<Query> = probe_ops.iter().take(BATCH).filter_map(Op::query).collect();

    let t = Instant::now();
    let passes = 8;
    for _ in 0..passes {
        std::hint::black_box(shared.execute_batch(&queries, &BatchOptions::default()));
    }
    let per_query = t.elapsed().as_secs_f64() * 1e6 / (passes * queries.len()) as f64;
    m.push(Metric::new(
        "core.execute_batch_us_per_query",
        per_query,
        (passes * queries.len()) as u64,
    ));

    snapshot_probe(&mut m, &shared, &data, layout.churn_lo(0), &queries)?;

    let t = Instant::now();
    let empty_txns = 200;
    for _ in 0..empty_txns {
        let txn = shared.begin().map_err(|e| format!("begin: {e}"))?;
        shared.commit(txn).map_err(|e| format!("commit: {e}"))?;
    }
    m.push(Metric::new(
        "txn.begin_commit_us",
        t.elapsed().as_secs_f64() * 1e6 / empty_txns as f64,
        empty_txns,
    ));

    overhead_probe(&mut m, &mut clients[0], &data, &probe_ops)?;

    let t = Instant::now();
    shared.db().checkpoint(dir).map_err(|e| format!("checkpoint: {e}"))?;
    m.push(Metric::new("core.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3, 1));
    if let Some(SecondaryIndex::Baseline(tree)) = shared.db().index(HOST) {
        m.push(Metric::new("btree.mem_bytes", tree.read().memory_bytes() as f64, 1));
    }
    drop(clients);
    server.stop();

    // ---- probes on stand-alone instances ----------------------------------
    standalone_probes(&mut m, &data, mix, settings.seed, out_dir)?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join("trace.jsonl");
    tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(m)
}

fn wire(
    t: &mut Tracer,
    client: &mut HermitClient,
    data: &Dataset,
    live: &BTreeSet<(u32, i64)>,
    op: &Op,
) -> Result<(), String> {
    match t.span("server.roundtrip", |_| perform(client, data, live, load::Request::Op(op))) {
        Sent::Ok => Ok(()),
        other => Err(format!("replay of {op:?} over the wire: {other:?}")),
    }
}

fn wire_request(data: &Dataset, op: &Op) -> Request {
    match *op {
        Op::Insert { pk, target } => Request::Insert(data.row(pk, target).to_vec()),
        Op::Delete { pk, .. } => Request::Delete { pk },
        Op::Begin => Request::Begin,
        Op::Commit => Request::Commit,
        Op::Point { .. } | Op::Range { .. } => Request::Query(op.query().expect("a read")),
    }
}

fn codec_request(t: &mut Tracer, request: &Request, buf: &mut Vec<u8>) -> Result<(), String> {
    t.span("server.encode_req", |_| request.encode(buf));
    let decoded = t.span("server.decode_req", |_| Request::decode(buf));
    decoded.map(drop).map_err(|e| format!("request does not decode: {e}"))
}

fn codec_response(t: &mut Tracer, response: &Response, buf: &mut Vec<u8>) -> Result<usize, String> {
    t.span("server.encode_resp", |_| response.encode(buf));
    let decoded = t.span("server.decode_resp", |_| Response::decode(buf));
    decoded.map(|_| buf.len()).map_err(|e| format!("response does not decode: {e}"))
}

/// The engine lane: codec by hand, the engine through `SharedDatabase`.
fn engine(
    t: &mut Tracer,
    shared: &SharedDatabase,
    data: &Dataset,
    op: &Op,
    txn: &mut Option<u64>,
    counts: &mut Counts,
) -> Result<(), String> {
    let mut buf = Vec::new();
    codec_request(t, &wire_request(data, op), &mut buf)?;
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("replay of {op:?}: {what}: {e}");
    let response = match *op {
        Op::Point { .. } | Op::Range { .. } => {
            let query = op.query().expect("a read");
            let plan = t.span("core.plan", |_| shared.db().plan(&query));
            let result = t.span("core.execute", |_| shared.execute(&query));
            counts.reads_engine += 1;
            counts.rows += result.rows.len() as u64;
            counts.false_positives += result.false_positives as u64;
            counts.unresolved += result.unresolved as u64;
            counts.hermit_plans += u64::from(plan.kind() == PlanKind::Hermit);
            // Materialising and encoding the rows is the stages lane's job.
            return Ok(());
        }
        Op::Insert { pk, target } => {
            let row = data.row(pk, target);
            let tid = match *txn {
                Some(id) => t
                    .span("core.insert_txn", |_| shared.insert_txn(id, &row))
                    .map_err(|e| fail("insert_txn", &e))?,
                None => t
                    .span("core.insert", |_| shared.insert(&row))
                    .map_err(|e| fail("insert", &e))?,
            };
            Response::Inserted { tid: tid.0 }
        }
        Op::Delete { pk, .. } => {
            t.span("core.delete", |_| shared.delete_by_pk(pk)).map_err(|e| fail("delete", &e))?;
            Response::Deleted
        }
        Op::Begin => {
            let id = t.span("txn.begin", |_| shared.begin()).map_err(|e| fail("begin", &e))?;
            *txn = Some(id);
            Response::TxnBegun { txn: id }
        }
        Op::Commit => {
            let id = txn.take().ok_or("commit without begin in the engine lane")?;
            t.span("core.commit", |_| shared.commit(id)).map_err(|e| fail("commit", &e))?;
            Response::Ok
        }
    };
    codec_response(t, &response, &mut buf).map(drop)
}

/// The stages lane: what `core.execute` does for a Hermit route, one public
/// call per stage, ending in the response the server would encode.
fn stages(t: &mut Tracer, db: &Database, op: &Op, counts: &mut Counts) -> Result<(), String> {
    let (lo, hi) = match *op {
        Op::Point { target } => (target as f64, target as f64),
        Op::Range { lo, hi } => (lo as f64, hi as f64),
        _ => return Err(format!("{op:?} has no read stages")),
    };
    let (Some(SecondaryIndex::Hermit { trs, host }), Some(SecondaryIndex::Baseline(host_tree))) =
        (db.index(TARGET), db.index(HOST))
    else {
        return Err("the data directory lacks the Hermit or the host index".into());
    };
    debug_assert_eq!(*host, HOST);
    let approx = t.span("trs.lookup", |_| trs.lookup(lo, hi));
    counts.reads_stages += 1;
    counts.trs_ranges += approx.ranges.len() as u64;
    counts.trs_outliers += approx.tids.len() as u64;
    let tids = t.span("btree.host_probe", |_| {
        let tree = host_tree.read();
        let mut tids: Vec<Tid> = approx.tids.clone();
        for &(a, b) in &approx.ranges {
            tree.for_each_in_range(&F64Key(a), &F64Key(b), |_, tid| tids.push(*tid));
        }
        tids.sort_unstable();
        tids.dedup();
        tids
    });
    counts.probe_tids += tids.len() as u64;
    let locs: Vec<_> = t.span("btree.primary_resolve", |_| {
        tids.iter().filter_map(|&tid| db.resolve(tid)).collect()
    });
    let rows: Vec<Vec<Value>> = t.span("storage.heap_fetch", |_| {
        locs.iter()
            .filter_map(|&loc| db.heap().get(loc).ok())
            .filter(|row| row[TARGET].as_f64().is_some_and(|v| v >= lo && v <= hi))
            .collect()
    });
    let mut buf = Vec::new();
    counts.response_bytes += codec_response(t, &Response::Rows(rows), &mut buf)? as u64 + 8;
    Ok(())
}

/// Turn the replay's spans into per-layer metrics (see the module docs for
/// how lanes are combined).
fn span_metrics(m: &mut Vec<Metric>, spans: &[Span], classes: &[Class], counts: &Counts) {
    // Mean duration (ns) of spans called any of `names`, by request class.
    let means = |names: &[&str]| -> [Option<f64>; 3] {
        let mut sum = [0u64; 3];
        let mut n = [0u64; 3];
        for s in spans.iter().filter(|s| names.contains(&s.name)) {
            let c = classes[s.request_id as usize] as usize;
            sum[c] += s.end_ns - s.start_ns;
            n[c] += 1;
        }
        std::array::from_fn(|c| (n[c] > 0).then(|| sum[c] as f64 / n[c] as f64))
    };
    let mut weight = [0.0f64; 3];
    classes.iter().for_each(|&c| weight[c as usize] += 1.0);
    // Σ weight·value over the classes that have a value, weights renormalised.
    let mixed = |per_class: [Option<f64>; 3]| -> f64 {
        let (mut total, mut w) = (0.0, 0.0);
        for c in 0..3 {
            if let Some(v) = per_class[c] {
                total += weight[c] * v;
                w += weight[c];
            }
        }
        if w > 0.0 {
            total / w
        } else {
            0.0
        }
    };
    let samples = |names: &[&str]| spans.iter().filter(|s| names.contains(&s.name)).count() as u64;
    let minus = |a: [Option<f64>; 3], b: [Option<f64>; 3]| -> [Option<f64>; 3] {
        std::array::from_fn(|c| Some(a[c]? - b[c]?))
    };
    let plus = |a: [Option<f64>; 3], b: [Option<f64>; 3]| -> [Option<f64>; 3] {
        std::array::from_fn(|c| Some(a[c]? + b[c]?))
    };

    let roundtrip = means(&["server.roundtrip"]);
    let engine_spans = [
        "core.execute",
        "core.insert",
        "core.insert_txn",
        "core.delete",
        "txn.begin",
        "core.commit",
    ];
    let engine = means(&engine_spans);
    let execute = means(&["core.execute"]);
    let stage_names =
        ["trs.lookup", "btree.host_probe", "btree.primary_resolve", "storage.heap_fetch"];
    let stage_sum = stage_names.iter().map(|n| means(&[n])).reduce(plus).unwrap_or([None; 3]);
    let point = Class::Point as usize;

    let us = 1e-3;
    m.push(Metric::new(
        "server.roundtrip_us",
        mixed(roundtrip) * us,
        samples(&["server.roundtrip"]),
    ));
    m.push(Metric::new(
        "server.self_us",
        mixed(minus(roundtrip, engine)) * us,
        samples(&engine_spans),
    ));
    let point_share = match (roundtrip[point], engine[point]) {
        (Some(rt), Some(eng)) if rt > 0.0 => (rt - eng) / rt,
        _ => 0.0,
    };
    m.push(Metric::new("server.point_self_share", point_share, samples(&["server.roundtrip"])));
    for (metric, span) in [
        ("server.encode_req_ns", "server.encode_req"),
        ("server.decode_req_ns", "server.decode_req"),
        ("server.encode_resp_ns", "server.encode_resp"),
        ("server.decode_resp_ns", "server.decode_resp"),
        ("core.plan_ns", "core.plan"),
        ("trs.lookup_ns", "trs.lookup"),
        ("btree.host_probe_ns", "btree.host_probe"),
        ("btree.primary_resolve_ns", "btree.primary_resolve"),
        ("storage.heap_fetch_ns", "storage.heap_fetch"),
    ] {
        m.push(Metric::new(metric, mixed(means(&[span])), samples(&[span])));
    }
    m.push(Metric::new("core.execute_us", mixed(execute) * us, samples(&["core.execute"])));
    m.push(Metric::new(
        "core.execute_self_us",
        mixed(minus(execute, stage_sum)) * us,
        samples(&["core.execute"]),
    ));
    for (metric, span) in [
        ("core.insert_us", "core.insert"),
        ("core.insert_txn_us", "core.insert_txn"),
        ("core.delete_us", "core.delete"),
        ("core.commit_us", "core.commit"),
    ] {
        m.push(Metric::new(metric, mixed(means(&[span])) * us, samples(&[span])));
    }

    let c = counts;
    let candidates = c.rows + c.false_positives + c.unresolved;
    m.push(Metric::new("core.rows_per_op", ratio(c.rows, c.reads_engine, 0.0), c.reads_engine));
    m.push(Metric::new("core.candidates_per_row", ratio(candidates, c.rows, 0.0), c.rows));
    m.push(Metric::new(
        "core.false_positive_share",
        ratio(c.false_positives, candidates, 0.0),
        candidates,
    ));
    m.push(Metric::new(
        "core.plan_hermit_share",
        ratio(c.hermit_plans, c.reads_engine, 0.0),
        c.reads_engine,
    ));
    m.push(Metric::new(
        "trs.ranges_per_lookup",
        ratio(c.trs_ranges, c.reads_stages, 0.0),
        c.reads_stages,
    ));
    m.push(Metric::new(
        "trs.outliers_per_lookup",
        ratio(c.trs_outliers, c.reads_stages, 0.0),
        c.reads_stages,
    ));
    m.push(Metric::new(
        "btree.tids_per_probe",
        ratio(c.probe_tids, c.reads_stages, 0.0),
        c.reads_stages,
    ));
    m.push(Metric::new(
        "server.resp_bytes_per_op",
        ratio(c.response_bytes, c.reads_stages, 0.0),
        c.reads_stages,
    ));
}

fn ratio(num: u64, den: u64, when_empty: f64) -> f64 {
    if den == 0 {
        when_empty
    } else {
        num as f64 / den as f64
    }
}

/// `execute_for_txn` beside one open writer ÷ `execute` with none open, on the
/// same queries: what the snapshot filter costs when it is live.
fn snapshot_probe(
    m: &mut Vec<Metric>,
    shared: &SharedDatabase,
    data: &Dataset,
    churn_target: usize,
    queries: &[Query],
) -> Result<(), String> {
    let passes = 8;
    let n = (passes * queries.len()) as u64;
    let time = |run: &dyn Fn(&Query)| {
        let t = Instant::now();
        for _ in 0..passes {
            queries.iter().for_each(run);
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    };
    let plain = time(&|q| drop(std::hint::black_box(shared.execute(q))));
    let writer = shared.begin().map_err(|e| format!("begin: {e}"))?;
    // A pk no stream uses, so the probe cannot collide with the replay.
    let row = data.row(gen::Layout::first_churn_pk(CONNS), churn_target);
    shared.insert_txn(writer, &row).map_err(|e| format!("insert_txn: {e}"))?;
    let reader = shared.begin().map_err(|e| format!("begin: {e}"))?;
    let snapshot = time(&|q| drop(std::hint::black_box(shared.execute_for_txn(q, reader))));
    shared.commit(reader).map_err(|e| format!("commit: {e}"))?;
    shared.commit(writer).map_err(|e| format!("commit: {e}"))?;
    m.push(Metric::new("core.txn_execute_us", snapshot, n));
    m.push(Metric::new(
        "core.snapshot_read_ratio",
        if plain > 0.0 { snapshot / plain } else { 0.0 },
        n,
    ));
    Ok(())
}

/// The same reads over the wire with span recording on and off:
/// `1 − traced ÷ untraced` requests/s is what tracing costs.
fn overhead_probe(
    m: &mut Vec<Metric>,
    client: &mut HermitClient,
    data: &Dataset,
    ops: &[Op],
) -> Result<(), String> {
    let none = BTreeSet::new();
    let mut rate = |enabled: bool| -> Result<f64, String> {
        let mut t = Tracer::new(enabled);
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            t.request(i as u32);
            t.span("request", |t| wire(t, client, data, &none, op))?;
        }
        Ok(ops.len() as f64 / started.elapsed().as_secs_f64())
    };
    rate(false)?; // warm both sides of the socket
    let (untraced, traced) = (rate(false)?, rate(true)?);
    m.push(Metric::new("trace.overhead_share", 1.0 - traced / untraced, 2 * ops.len() as u64));
    Ok(())
}

/// Write-side and structural numbers from instances built from the same
/// generated rows, so nothing is applied to the replayed database twice.
fn standalone_probes(
    m: &mut Vec<Metric>,
    data: &Dataset,
    mix: Mix,
    seed: u64,
    scratch: &Path,
) -> Result<(), String> {
    let mut rng = gen::Rng::new(seed ^ 0x0B5E);
    let layout = data.layout;
    let pairs: Vec<(f64, f64, Tid)> =
        data.loaded_pairs().map(|(t, h, pk)| (t, h, Tid::from_pk(pk))).collect();
    let domain = pairs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(p.0), hi.max(p.0)));
    let mut by_target: Vec<(F64Key, Tid)> = pairs.iter().map(|p| (F64Key(p.0), p.2)).collect();
    by_target.sort_by_key(|e| e.0);

    let t = Instant::now();
    let mut trs = TrsTree::build(TrsParams::default(), domain, pairs);
    m.push(Metric::new("trs.build_s", t.elapsed().as_secs_f64(), 1));
    let stats = trs.stats();
    let mut complete = BPlusTree::bulk_load(by_target);
    m.push(Metric::new("trs.mem_bytes", trs.memory_bytes() as f64, 1));
    m.push(Metric::new(
        "trs.space_ratio",
        trs.memory_bytes() as f64 / complete.memory_bytes() as f64,
        1,
    ));
    m.push(Metric::new("trs.depth", stats.height as f64, 1));
    m.push(Metric::new("trs.leaves", stats.leaves as f64, 1));
    m.push(Metric::new(
        "trs.outlier_share",
        ratio(stats.outliers as u64, stats.covered as u64, 0.0),
        1,
    ));

    let n = PROBE_OPS as u64;
    let per_op_ns = |t: Instant| t.elapsed().as_nanos() as f64 / n as f64;
    let starts: Vec<f64> =
        (0..PROBE_OPS).map(|_| rng.below((layout.rows - mix.range_rows) as u64) as f64).collect();
    let width = (mix.range_rows - 1) as f64;

    let t = Instant::now();
    for &lo in &starts {
        std::hint::black_box(trs.lookup_point(lo));
    }
    m.push(Metric::new("trs.lookup_point_ns", per_op_ns(t), n));

    let t = Instant::now();
    let mut tids = Vec::new();
    for &lo in &starts {
        tids.clear();
        complete.for_each_in_range(&F64Key(lo), &F64Key(lo + width), |_, tid| tids.push(*tid));
        std::hint::black_box(&tids);
    }
    m.push(Metric::new("btree.baseline_range_ns", per_op_ns(t), n));

    // Inserts shaped like the streams': churn-region targets on the model line.
    let churn: Vec<(f64, Tid)> = (0..PROBE_OPS)
        .map(|i| {
            let target = layout.churn_lo(0) + rng.below(layout.churn_span as u64) as usize;
            (target as f64, Tid::from_pk(gen::Layout::first_churn_pk(0) + i as i64))
        })
        .collect();
    let t = Instant::now();
    for &(target, tid) in &churn {
        trs.insert(target, 2.0 * target + 3.0, tid);
    }
    m.push(Metric::new("trs.insert_ns", per_op_ns(t), n));
    let t = Instant::now();
    for &(target, tid) in &churn {
        complete.insert(F64Key(target), tid);
    }
    m.push(Metric::new("btree.insert_ns", per_op_ns(t), n));

    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let wal_path = scratch.join("probe.wal");
    let wal_err = |e: hermit_storage::RecoveryError| format!("wal probe: {e}");
    let mut wal = WalWriter::create(&wal_path, 0).map_err(wal_err)?;
    let records: Vec<WalRecord> = churn
        .iter()
        .map(|&(target, tid)| WalRecord::Insert {
            row: data.row(tid.as_pk(), target as usize).to_vec(),
        })
        .collect();
    let t = Instant::now();
    for record in &records {
        wal.append(record).map_err(wal_err)?;
    }
    m.push(Metric::new("storage.wal_append_ns", per_op_ns(t), n));
    wal.commit().map_err(wal_err)?;
    let t = Instant::now();
    for record in records.iter().take(PROBE_FSYNCS) {
        wal.append(record).map_err(wal_err)?;
        wal.commit().map_err(wal_err)?;
    }
    let per_sync = t.elapsed().as_secs_f64() * 1e6 / PROBE_FSYNCS as f64;
    m.push(Metric::new("storage.wal_fsync_us", per_sync, PROBE_FSYNCS as u64));
    drop(wal);
    let bytes = std::fs::metadata(&wal_path).map_err(|e| format!("wal probe: {e}"))?.len();
    let _ = std::fs::remove_file(&wal_path);
    m.push(Metric::new(
        "storage.wal_bytes_per_row",
        bytes as f64 / (PROBE_OPS + PROBE_FSYNCS) as f64,
        n,
    ));
    Ok(())
}
