//! Loopback integration: a real [`HermitServer`] on an ephemeral port,
//! exercised by real [`HermitClient`]s (and a few raw sockets speaking
//! deliberately damaged `hermit_proto`).
//!
//! Covers the serving loop end to end — queries against the planner,
//! DML through the concurrent write path, a multi-client race checked
//! against the reference model (`hermit_fault::model`) — and every
//! robustness case the wire can throw: mid-frame disconnects, hostile
//! lengths, CRC damage, structural garbage, admission overload, query
//! deadlines, graceful shutdown with a final checkpoint, the per-response
//! row cap, and the memory exporter of a reopened database.

use hermit_core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
use hermit_core::{Database, DurabilityConfig, IndexKey, Query};
use hermit_fault::Model;
use hermit_server::proto::{read_frame, write_frame};
use hermit_server::{
    ClientError, ErrorCode, HermitClient, HermitServer, Request, Response, ServerConfig, MAX_FRAME,
};
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SEED_ROWS: i64 = 1_000;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

/// `host = 2·target`, `target = pk` — disjoint pk regions are disjoint
/// target regions, so each racing client can verify its own slice.
fn row_for(pk: i64) -> Vec<Value> {
    let m = pk as f64;
    vec![Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)]
}

/// Seeded in-memory database with the baseline + Hermit indexes.
fn seeded_db() -> Database {
    let db = Database::new(schema(), 0, TidScheme::Physical);
    for pk in 0..SEED_ROWS {
        db.insert(&row_for(pk)).unwrap();
    }
    let mut db = db;
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db
}

/// Boot a server (no worker) over a fresh seeded database.
fn boot(config: ServerConfig) -> (HermitServer, SharedDatabase) {
    let shared = SharedDatabase::new(seeded_db());
    let server =
        HermitServer::start(shared.clone(), None, config, "127.0.0.1:0").expect("bind ephemeral");
    (server, shared)
}

fn connect(server: &HermitServer) -> HermitClient {
    let client = HermitClient::connect(server.local_addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client
}

/// Sorted pks of a TCP row set (pk is column 0 of the full row shape).
fn tcp_pks(rows: &[Vec<Value>]) -> Vec<i64> {
    let mut pks: Vec<i64> = rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(pk) => pk,
            ref other => panic!("pk column came back as {other:?}"),
        })
        .collect();
    pks.sort_unstable();
    pks
}

#[test]
fn single_session_full_command_set() {
    let (server, _shared) = boot(ServerConfig::default());
    let mut c = connect(&server);

    // Point query through the Hermit route.
    let rows = c.query(&Query::new().point(2, 500.0)).unwrap();
    assert_eq!(rows, vec![vec![Value::Int(500), Value::Float(1_000.0), Value::Float(500.0)]]);

    // Projection + limit survive the wire.
    let rows = c.query(&Query::new().range(2, 10.0, 20.0).select([0]).limit(3)).unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.len() == 1));

    // DML: insert becomes visible, delete removes it.
    c.insert(row_for(7_777)).unwrap();
    assert_eq!(tcp_pks(&c.query(&Query::new().point(2, 7_777.0)).unwrap()), vec![7_777]);
    c.delete(7_777).unwrap();
    assert!(c.query(&Query::new().point(2, 7_777.0)).unwrap().is_empty());

    // Storage errors come back typed, connection stays usable.
    match c.delete(7_777) {
        Err(ClientError::Server { code: ErrorCode::Storage, .. }) => {}
        other => panic!("double delete: {other:?}"),
    }

    // EXPLAIN renders the engine's stable plan text.
    let plan = c.explain(&Query::new().range(2, 100.0, 200.0)).unwrap();
    assert!(plan.contains("Query Plan"), "unexpected EXPLAIN: {plan}");
    assert!(plan.contains("hermit route"), "target-column query must route: {plan}");

    // Checkpoint on an in-memory database is a typed NotDurable error.
    match c.checkpoint() {
        Err(ClientError::Server { code: ErrorCode::NotDurable, .. }) => {}
        other => panic!("checkpoint on mem db: {other:?}"),
    }

    // Stats: the engine + serving counters as stable text.
    let stats = c.stats().unwrap();
    for needle in [
        "hermit_connections_active 1",
        "hermit_rows 1000",
        "hermit_requests_total",
        "hermit_reorg_queue_depth",
        "hermit_outlier_share{column=\"2\"}",
        "hermit_query_count{plan=\"hermit\"}",
        "hermit_query_latency_us{plan=\"hermit\",quantile=\"0.5\"}",
        "hermit_query_latency_bucket{plan=\"hermit\",le=",
    ] {
        assert!(stats.contains(needle), "stats report missing `{needle}`:\n{stats}");
    }

    c.shutdown().unwrap();
    server.wait();
}

/// Four clients race inserts, deletes, and queries over TCP in disjoint
/// pk regions while the §4.4 worker reorganizes underneath; every
/// client's view of its own region stays exact at every step, and the
/// final state matches the reference model of the clients' histories,
/// query for query, in process and over TCP.
#[test]
fn racing_clients_agree_with_oracle() {
    const CLIENTS: i64 = 4;
    const OPS: i64 = 150;
    const BASE: i64 = 100_000;
    const REGION: i64 = 10_000;

    let db = seeded_db();
    let mut model = Model::of(&db);
    let shared = SharedDatabase::new(db);
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let server =
        HermitServer::start(shared.clone(), Some(worker), ServerConfig::default(), "127.0.0.1:0")
            .expect("bind");

    let survivors = crossbeam::thread::scope(|s| {
        let mut clients = Vec::new();
        for t in 0..CLIENTS {
            let server = &server;
            clients.push(s.spawn(move |_| {
                let mut c = connect(server);
                let base = BASE + t * REGION;
                let mut live: Vec<i64> = Vec::new();
                for i in 0..OPS {
                    let pk = base + i;
                    c.insert(row_for(pk)).unwrap();
                    live.push(pk);
                    // Periodically delete the oldest survivor and verify
                    // the whole region through the server.
                    if i % 5 == 4 {
                        let gone = live.remove(0);
                        c.delete(gone).unwrap();
                    }
                    if i % 10 == 9 {
                        let q = Query::new()
                            .range(2, base as f64 - 0.5, (base + REGION) as f64 - 0.5);
                        let got = tcp_pks(&c.query(&q).unwrap());
                        let missing: Vec<i64> =
                            live.iter().filter(|pk| !got.contains(pk)).copied().collect();
                        let extra: Vec<i64> =
                            got.iter().filter(|pk| !live.contains(pk)).copied().collect();
                        assert_eq!(
                            got, live,
                            "client {t} region diverged at op {i}: missing {missing:?}, extra {extra:?}"
                        );
                    }
                }
                live
            }));
        }
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect::<Vec<i64>>()
    })
    .unwrap();

    // Quiesced: the database holds the seed rows and each client's
    // survivors, for every region and the full table, in process and over
    // TCP.
    for pk in survivors {
        model.insert(&row_for(pk)).unwrap();
    }
    let mut panel: Vec<Query> = (0..CLIENTS)
        .map(|t| {
            let base = BASE + t * REGION;
            Query::new().range(2, base as f64 - 0.5, (base + REGION) as f64 - 0.5)
        })
        .collect();
    panel.push(Query::new().range(2, -1.0, (BASE + CLIENTS * REGION) as f64));
    model.check(&shared, &panel);
    let mut c = connect(&server);
    for q in &panel {
        let want: Vec<i64> = model.answer(q, None).into_iter().map(|(pk, _)| pk).collect();
        assert_eq!(tcp_pks(&c.query(q).unwrap()), want, "{q:?}");
    }

    c.shutdown().unwrap();
    server.wait();
}

/// A peer that dies mid-frame must not panic, hang, or poison the
/// server — the torn request is simply never applied.
#[test]
fn midframe_disconnect_is_harmless() {
    let (server, shared) = boot(ServerConfig::default());
    let before = shared.len();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // Declare a 100-byte insert, deliver 10, vanish.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        raw.write_all(&[0x02; 10]).unwrap();
        raw.flush().unwrap();
    } // dropped: RST/FIN mid-frame
      // The server keeps serving new clients, and nothing was applied.
    let mut c = connect(&server);
    assert_eq!(c.query(&Query::new().point(2, 1.0)).unwrap().len(), 1);
    assert_eq!(shared.len(), before, "a torn frame must not mutate the database");
    c.shutdown().unwrap();
    server.wait();
}

/// A hostile declared length gets one typed Protocol error, then the
/// connection closes — and the 4 GiB buffer is never allocated.
#[test]
fn oversized_frame_is_rejected_with_protocol_error() {
    let (server, _shared) = boot(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&(u32::MAX).to_le_bytes()).unwrap();
    raw.write_all(&0u32.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let payload = read_frame(&mut raw).unwrap().expect("one error frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::Protocol, message } => {
            assert!(message.contains("max"), "message should name the limit: {message}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
    assert!(read_frame(&mut raw).unwrap().is_none(), "connection must be closed after the error");
    server.stop();
}

/// A CRC-damaged frame cannot be resynchronized: one typed error, close.
#[test]
fn crc_mismatch_is_rejected_with_protocol_error() {
    let (server, _shared) = boot(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut payload = Vec::new();
    Request::Stats.encode(&mut payload);
    raw.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&0xBAD0_C0DEu32.to_le_bytes()).unwrap(); // wrong CRC
    raw.write_all(&payload).unwrap();
    raw.flush().unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("one error frame");
    assert!(matches!(
        Response::decode(&resp).unwrap(),
        Response::Error { code: ErrorCode::Protocol, .. }
    ));
    assert!(read_frame(&mut raw).unwrap().is_none());
    server.stop();
}

/// Structural garbage inside a *valid* frame is answerable: the stream
/// is still in sync, so the server reports BadRequest and keeps serving
/// the same connection.
#[test]
fn malformed_payload_keeps_the_connection_usable() {
    let (server, _shared) = boot(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, &[0x7F, 1, 2, 3]).unwrap(); // unknown tag, valid CRC
    let resp = read_frame(&mut raw).unwrap().expect("BadRequest frame");
    assert!(matches!(
        Response::decode(&resp).unwrap(),
        Response::Error { code: ErrorCode::BadRequest, .. }
    ));
    // Same socket, now a well-formed request: it must still be served.
    let mut scratch = Vec::new();
    hermit_server::proto::send_request(&mut raw, &Request::Stats, &mut scratch).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("stats frame");
    assert!(matches!(Response::decode(&resp).unwrap(), Response::Stats(_)));
    server.stop();
}

/// The MAX_FRAME constant is visible to clients so they can size
/// requests; a request-side frame at exactly the cap round-trips.
#[test]
fn admission_limit_rejects_with_capacity() {
    let (server, _shared) = boot(ServerConfig { max_connections: 1, ..Default::default() });
    // First client occupies the only slot (a served request proves it).
    let mut first = connect(&server);
    first.stats().unwrap();
    // Second connection gets one unsolicited Capacity error, then close.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = read_frame(&mut raw).unwrap().expect("capacity frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::Capacity, message } => {
            assert!(message.contains("max_connections=1"), "{message}");
        }
        other => panic!("expected Capacity, got {other:?}"),
    }
    assert!(read_frame(&mut raw).unwrap().is_none());
    // The admitted client is unaffected; freeing its slot readmits.
    first.stats().unwrap();
    drop(first);
    std::thread::sleep(Duration::from_millis(50));
    let mut third = connect(&server);
    third.stats().unwrap();
    assert!(server.metrics().connections_rejected.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    server.stop();
}

/// With a zero deadline every query "finishes late": the result is
/// discarded, the client sees DeadlineExceeded, and the counter moves.
/// DML and Stats are not queries and keep working.
#[test]
fn zero_deadline_reports_deadline_exceeded() {
    let (server, _shared) =
        boot(ServerConfig { query_deadline: Some(Duration::ZERO), ..Default::default() });
    let mut c = connect(&server);
    match c.query(&Query::new().point(2, 1.0)) {
        Err(ClientError::Server { code: ErrorCode::DeadlineExceeded, message }) => {
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    c.insert(row_for(50_000)).unwrap(); // DML is unaffected
    let stats = c.stats().unwrap();
    assert!(
        stats.contains("hermit_query_deadline_exceeded 1"),
        "counter must record the discard:\n{stats}"
    );
    // The latency histogram still recorded the (completed) execution.
    assert!(stats.contains("hermit_query_count{plan=\"hermit\"} 1"), "{stats}");
    server.stop();
}

/// Requests arriving while the server drains get a typed ShuttingDown
/// error instead of a hang or a bare close.
#[test]
fn drain_reports_shutting_down_to_late_requests() {
    let (server, _shared) =
        boot(ServerConfig { drain_timeout: Duration::from_secs(5), ..Default::default() });
    let mut bystander = connect(&server);
    bystander.stats().unwrap(); // admitted and idle
    let mut closer = connect(&server);
    closer.shutdown().unwrap(); // ack received ⇒ stop flag is being raised
    std::thread::sleep(Duration::from_millis(200));
    match bystander.stats() {
        Err(ClientError::Server { code: ErrorCode::ShuttingDown, .. }) => {}
        // The drain may already have force-closed the socket under us.
        Err(ClientError::Proto(_)) => {}
        other => panic!("late request during drain: {other:?}"),
    }
    let addr = server.local_addr();
    server.wait();
    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

/// A client connected but idle between requests does not hold a stop up:
/// the drain closes its connection and waits only for requests in flight.
#[test]
fn stop_does_not_wait_for_an_idle_client() {
    let (server, _shared) = boot(ServerConfig::default());
    let mut idle = connect(&server);
    idle.stats().unwrap(); // admitted, then idle at a frame boundary
    let start = Instant::now();
    server.stop();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "stop waited {took:?} for an idle client");
    assert!(idle.stats().is_err(), "the idle connection is closed");
}

/// Durable serving end to end: rows inserted over TCP survive a
/// graceful shutdown (drain → worker stop → final checkpoint) and come
/// back through the ordinary recovery path — with nothing left in the
/// WAL to replay.
#[test]
fn graceful_shutdown_checkpoints_durable_state() {
    let dir = std::env::temp_dir().join(format!("hermit-server-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig { wal_sync_every: 1, ..Default::default() };

    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    let shared = SharedDatabase::new(db);
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let server =
        HermitServer::start(shared, Some(worker), ServerConfig::default(), "127.0.0.1:0").unwrap();

    let mut c = connect(&server);
    for pk in 0..50 {
        c.insert(row_for(pk)).unwrap();
    }
    c.delete(49).unwrap();
    // A live checkpoint mid-traffic must succeed on a durable database.
    c.checkpoint().unwrap();
    for pk in 50..60 {
        c.insert(row_for(pk)).unwrap();
    }
    // The exporter's log accounting, at `wal_sync_every` 1: an fsync per
    // auto-commit statement and per commit, none inside a transaction.
    let wal_stat = |stats: &str, name: &str| -> u64 {
        let line = stats.lines().find_map(|l| l.strip_prefix(name)).expect(name);
        line.trim().parse().unwrap()
    };
    let before = c.stats().unwrap();
    c.begin().unwrap();
    c.insert(row_for(100)).unwrap();
    c.insert(row_for(101)).unwrap();
    c.rollback().unwrap();
    c.insert(row_for(60)).unwrap();
    c.delete(60).unwrap();
    let after = c.stats().unwrap();
    let delta = |name| wal_stat(&after, name) - wal_stat(&before, name);
    assert_eq!(delta("hermit_wal_records "), 6, "begin + 2 inserts + abort, insert, delete");
    assert_eq!(delta("hermit_wal_fsyncs "), 2, "only the two auto-commit statements fsync");
    assert_eq!(delta("hermit_wal_commit_waits "), 2, "and each waited once, alone");
    assert_eq!(
        wal_stat(&after, "hermit_wal_barrier_fsyncs "),
        0,
        "pages left behind a durable log"
    );
    c.shutdown().unwrap();
    server.wait();

    // Reopen: recovery sees the final checkpoint; the WAL holds nothing.
    let reopened = Database::open(&dir, &config).unwrap();
    let mut model = Model::new(0);
    for pk in (0..49).chain(50..60) {
        model.insert(&row_for(pk)).unwrap();
    }
    model.check(&reopened, &[Query::new().range(2, -0.5, 59.5), Query::new().point(2, 49.0)]);
    assert_eq!(reopened.wal_depth(), Some(0), "clean stop leaves nothing unreplayed");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-response row cap is the frame's, for the answer's own row
/// width: 8 000 rows of one cell fit one frame, 8 000 rows of 16 cells do
/// not (7 181 do), and the connection stays usable after the refusal.
#[test]
fn the_row_cap_follows_the_row_width() {
    const ROWS: i64 = 8_000;
    let columns = std::iter::once(ColumnDef::int("pk"))
        .chain((1..16).map(|c| ColumnDef::float(format!("c{c}"))))
        .collect();
    let db = Database::new(Schema::new(columns), 0, TidScheme::Physical);
    for pk in 0..ROWS {
        let row: Vec<Value> = std::iter::once(Value::Int(pk))
            .chain((1..16).map(|c| Value::Float((pk * c) as f64)))
            .collect();
        db.insert(&row).unwrap();
    }
    let server =
        HermitServer::start(SharedDatabase::new(db), None, ServerConfig::default(), "127.0.0.1:0")
            .unwrap();
    let mut c = connect(&server);
    let every_row = Query::new().range(1, -1.0, 1.0e12);
    let pks = c.query(&every_row.clone().select([0])).unwrap();
    assert_eq!(tcp_pks(&pks), (0..ROWS).collect::<Vec<_>>());
    match c.query(&every_row.clone()) {
        Err(ClientError::Server { code: ErrorCode::BadRequest, message }) => {
            assert!(message.contains("cap of 7181"), "{message}");
        }
        other => panic!("a 16-cell answer of {ROWS} rows must not fit a frame: {other:?}"),
    }
    assert_eq!(c.query(&every_row.limit(7_181)).unwrap().len(), 7_181);
    server.stop();
}

/// A reopened database's primary keys sit in one run, which the next
/// insert extends, and a key re-inserted into the run's range is an
/// outlier; the exporter shows both, and the memory of every structure,
/// the primary's at under 1 B per key.
#[test]
fn a_reopened_server_reports_memory_by_structure() {
    let dir = std::env::temp_dir().join(format!("hermit-server-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::default();
    let mut db = Database::create_durable(schema(), 0, &dir, &config).unwrap();
    for pk in 0..SEED_ROWS {
        db.insert(&row_for(pk)).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db.checkpoint(&dir).unwrap();
    drop(db);

    let server = HermitServer::start(
        SharedDatabase::new(Database::open(&dir, &config).unwrap()),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = connect(&server);
    c.insert(row_for(SEED_ROWS)).unwrap();
    c.delete(0).unwrap();
    c.insert(row_for(0)).unwrap();
    let stats = c.stats().unwrap();
    let metric = |name: &str| -> usize {
        let line = stats.lines().find_map(|l| l.strip_prefix(name)).expect(name);
        line.trim().parse().unwrap()
    };
    assert_eq!(metric("hermit_primary_keys{tier=\"run\"}"), SEED_ROWS as usize);
    assert_eq!(metric("hermit_primary_keys{tier=\"outlier\"}"), 1);
    let primary = metric("hermit_memory_bytes{part=\"primary\"}");
    assert_eq!(primary, server.db().primary().memory_bytes());
    assert!(primary <= SEED_ROWS as usize + 256, "{primary} B for {SEED_ROWS} keys");
    assert!(metric("hermit_memory_bytes{part=\"baseline\",column=\"1\"}") > 0);
    assert!(metric("hermit_memory_bytes{part=\"hermit\",column=\"2\"}") > 0);
    assert!(metric("hermit_memory_bytes{part=\"pool\"}") > 0);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Composite indexes are exported beside single-column ones: their
/// `hermit_memory_bytes` and `hermit_outlier_share` lines carry a `leading`
/// label, and every line reads what the engine reports for that index.
#[test]
fn composite_indexes_appear_in_stats() {
    let mut db = seeded_db();
    db.create_composite_baseline(0, 1).unwrap();
    let composite = db.create_composite_hermit(0, 2, 1).unwrap();
    let server =
        HermitServer::start(SharedDatabase::new(db), None, ServerConfig::default(), "127.0.0.1:0")
            .unwrap();
    let mut c = connect(&server);
    // Off-model rows land in both Hermit trees' outlier buffers.
    for pk in SEED_ROWS..SEED_ROWS + 20 {
        c.insert(vec![Value::Int(pk), Value::Float(1.0e9), Value::Float(pk as f64)]).unwrap();
    }
    let stats = c.stats().unwrap();
    let value = |name: &str| -> &str {
        let line = stats.lines().find_map(|l| l.strip_prefix(name)).expect(name);
        line.trim()
    };
    let engine = server.db().db();
    let bytes = |key| engine.index_at(key).unwrap().memory_bytes().to_string();
    let share = |key| match engine.index_at(key).unwrap() {
        hermit_core::SecondaryIndex::Hermit { trs, .. } => {
            format!("{:.6}", trs.stats().outlier_share())
        }
        _ => panic!("not a Hermit index"),
    };
    let single = IndexKey::single(2);
    assert_eq!(
        value("hermit_memory_bytes{part=\"baseline\",column=\"1\"} "),
        bytes(IndexKey::single(1))
    );
    assert_eq!(value("hermit_memory_bytes{part=\"hermit\",column=\"2\"} "), bytes(single));
    assert_eq!(
        value("hermit_memory_bytes{part=\"baseline\",leading=\"0\",column=\"1\"} "),
        bytes(IndexKey::composite(0, 1))
    );
    assert_eq!(
        value("hermit_memory_bytes{part=\"hermit\",leading=\"0\",column=\"2\"} "),
        bytes(composite)
    );
    assert_eq!(value("hermit_outlier_share{column=\"2\"} "), share(single));
    let composite_share = value("hermit_outlier_share{leading=\"0\",column=\"2\"} ");
    assert_eq!(composite_share, share(composite));
    assert!(composite_share.parse::<f64>().unwrap() > 0.0, "the off-model rows are buffered");
    assert_eq!(stats.matches("hermit_outlier_share").count(), 2, "one line per Hermit index");
    c.shutdown().unwrap();
    server.wait();
}

/// `MAX_FRAME` is part of the public contract both sides size against.
#[test]
fn max_frame_is_exported_and_sane() {
    let max = MAX_FRAME;
    assert!((1 << 16..=1 << 24).contains(&max));
}
