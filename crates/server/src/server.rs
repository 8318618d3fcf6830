//! The serving loop: a thread-per-connection TCP front end over
//! [`SharedDatabase`].
//!
//! This is the paper's deployment story given a network surface. The
//! architecture of §3 puts Hermit inside an RDBMS that serves concurrent
//! traffic; [`hermit_core::shared`] made the engine servable from many
//! threads, and this module makes it reachable from other *processes*:
//!
//! * an accept loop blocked in [`std::net::TcpListener::accept`] (an idle
//!   server sleeps; a stop wakes it with one loopback connect),
//!   admission-bounded by
//!   [`ServerConfig::max_connections`] (a connection over the limit gets a
//!   typed [`ErrorCode::Capacity`] response, never a silent hang);
//! * one thread per connection running request frames through the engine —
//!   queries via the cost-based planner (plan once, execute, record the
//!   latency under the plan's [`PlanKind`](hermit_core::PlanKind) histogram), DML via the same
//!   concurrent write path every in-process thread uses. A query's rows are
//!   written by the executor's validate stage, as cell images, from the copy
//!   of each row it validated ([`hermit_core::RowBlock`]); the `Rows` frame is
//!   built from that block, so the handler never goes back to the heap and
//!   never boxes a row. Requests are read through one buffered reader per
//!   connection into a reused payload buffer, and every response leaves in
//!   one `write` on a `TCP_NODELAY` socket;
//! * a per-query deadline ([`ServerConfig::query_deadline`]): the engine
//!   has no mid-plan cancellation points, so the deadline is enforced at
//!   completion — an over-deadline result is discarded and reported as
//!   [`ErrorCode::DeadlineExceeded`], bounding what a client may *observe*
//!   rather than what the server may *spend* (the honest contract for a
//!   cooperative executor);
//! * graceful shutdown (a [`Request::Shutdown`] frame or
//!   [`HermitServer::stop`]): stop admitting, drain in-flight connections
//!   (late requests get [`ErrorCode::ShuttingDown`]), force-close laggards
//!   after [`ServerConfig::drain_timeout`], stop the §4.4
//!   [`MaintenanceWorker`], and take a final checkpoint on durable
//!   databases so a clean stop never needs WAL replay.
//!
//! The `Stats` request renders every observability counter the engine
//! keeps — buffer-pool hits/misses, memory by structure and the primary
//! index's keys per tier, reorganization passes / queue depth /
//! outlier share, WAL tail depth, transaction counters
//! (begins/commits/aborts/conflicts + the active gauge), worker sweeps,
//! admission counters, and
//! the per-plan-kind latency histograms — as a stable `name value` text
//! dump (one metric per line, Prometheus-style labels), so a scrape is one
//! round-trip with no extra dependency.

use crate::proto::{
    max_rows_per_frame, read_frame_into, send_response, send_rows, ErrorCode, ProtoError, Request,
    Response,
};
use hermit_core::shared::{MaintenanceWorker, SharedDatabase};
use hermit_core::{CoreError, PlanLatencies, Query, RowBlock, SecondaryIndex};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the serving front end.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission bound: connections at or above this are rejected with
    /// [`ErrorCode::Capacity`] after one response frame.
    pub max_connections: usize,
    /// Per-query completion deadline; `None` disables the check. Enforced
    /// at completion (see the module docs), and also used as the socket
    /// read timeout granularity during shutdown drain.
    pub query_deadline: Option<Duration>,
    /// How long shutdown waits for in-flight connections to finish before
    /// force-closing their sockets.
    pub drain_timeout: Duration,
    /// Per-connection idle read timeout: a connection that sends no frame
    /// for this long is reaped — counted in
    /// [`ServerMetrics::connections_reaped`], answered (best-effort) with
    /// [`ErrorCode::IdleTimeout`], and closed — so a stalled or silent
    /// client cannot pin a connection slot forever. `None` disables
    /// reaping.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            query_deadline: Some(Duration::from_secs(5)),
            drain_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Cumulative serving-layer counters (engine counters live on the engine;
/// these are the ones only the front end can know).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted and served.
    pub connections_accepted: AtomicU64,
    /// Connections rejected by the admission bound.
    pub connections_rejected: AtomicU64,
    /// Connections currently being served.
    pub connections_active: AtomicU64,
    /// Idle connections reaped by the per-connection read timeout.
    pub connections_reaped: AtomicU64,
    /// Request frames successfully decoded and dispatched.
    pub requests: AtomicU64,
    /// Requests answered with [`Response::Error`] (any code).
    pub errors: AtomicU64,
    /// Queries discarded for finishing past the deadline.
    pub deadline_exceeded: AtomicU64,
    /// Per-plan-kind query latency histograms.
    pub query_latency: PlanLatencies,
}

struct Inner {
    db: SharedDatabase,
    config: ServerConfig,
    metrics: ServerMetrics,
    stop: AtomicBool,
    /// Where [`request_stop`](Inner::request_stop) connects to wake the
    /// accept loop: the listener's address, loopback if it is unspecified.
    wake_addr: SocketAddr,
    /// Live connection sockets by id, so shutdown can force-close readers
    /// blocked in `read_frame`.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    worker: Mutex<Option<MaintenanceWorker>>,
}

/// A running server: accept thread + per-connection threads.
///
/// Constructed with [`start`](Self::start); lives until a client sends
/// [`Request::Shutdown`] or the owner calls [`stop`](Self::stop) /
/// [`wait`](Self::wait). Dropping without either also shuts down.
pub struct HermitServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl HermitServer {
    /// Bind `addr` (use port 0 for an ephemeral port; see
    /// [`local_addr`](Self::local_addr)) and start serving `db`. The
    /// maintenance worker, when supplied, is owned by the server and
    /// stopped as part of graceful shutdown.
    pub fn start(
        db: SharedDatabase,
        worker: Option<MaintenanceWorker>,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<HermitServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut wake_addr = local;
        if local.ip().is_unspecified() {
            wake_addr.set_ip(match local {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let inner = Arc::new(Inner {
            db,
            config,
            metrics: ServerMetrics::default(),
            stop: AtomicBool::new(false),
            wake_addr,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            worker: Mutex::new(worker),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("hermit-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(HermitServer { inner, addr: local, accept: Some(accept) })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving-layer counters (live; shared with the threads).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.inner.metrics
    }

    /// The shared database handle the server serves.
    pub fn db(&self) -> &SharedDatabase {
        &self.inner.db
    }

    /// True once shutdown has been requested (by a client or the owner).
    pub fn is_stopping(&self) -> bool {
        self.inner.stop.load(Ordering::Acquire)
    }

    /// Request graceful shutdown and block until the drain (connections,
    /// worker, final checkpoint) completes.
    pub fn stop(mut self) {
        self.inner.request_stop();
        self.join_accept();
    }

    /// Block until a client-initiated [`Request::Shutdown`] completes the
    /// drain (the server binary's main thread parks here).
    pub fn wait(mut self) {
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(handle) = self.accept.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicking accept thread has printed its panic; the drain it skipped cannot be redone here"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for HermitServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.inner.request_stop();
            self.join_accept();
        }
    }
}

impl Inner {
    /// Raise the stop flag and wake the accept loop out of `accept` with one
    /// loopback connect, which the loop drops unadmitted.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "refused once the listener is gone, i.e. once the loop has exited"
        )]
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }
}

/// Accept until the stop flag is up, then drain. The listener blocks, so an
/// idle server sleeps here; whoever raises the flag connects once to wake
/// it, and that connection (like any other arriving after the flag) is
/// closed without being admitted or counted.
fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => admit(&inner, stream),
            // Out of descriptors and the like: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    drop(listener);
    drain(&inner);
}

fn admit(inner: &Arc<Inner>, stream: TcpStream) {
    let metrics = &inner.metrics;
    let active = metrics.connections_active.load(Ordering::Acquire);
    if active >= inner.config.max_connections as u64 {
        metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
        // One typed response, then close: the client learns *why* instead
        // of seeing a bare RST.
        let message = format!("server at max_connections={}", inner.config.max_connections);
        send_goodbye(
            &stream,
            &Response::Error { code: ErrorCode::Capacity, message },
            &mut Vec::new(),
        );
        return;
    }
    metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
    metrics.connections_active.fetch_add(1, Ordering::Relaxed);
    let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        inner.conns.lock().insert(id, clone);
    }
    let conn_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new().name(format!("hermit-conn-{id}")).spawn(move || {
        serve_connection(&conn_inner, &stream);
        conn_inner.conns.lock().remove(&id);
        conn_inner.metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
    });
    if spawned.is_err() {
        // No thread: the stream went down with the closure. Undo the
        // admission, or the slot and the drain's clone would leak.
        inner.conns.lock().remove(&id);
        metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Best-effort typed goodbye, then close both directions: a dead peer won't
/// read it, a live one learns why it was cut.
fn send_goodbye(stream: &TcpStream, response: &Response, scratch: &mut Vec<u8>) {
    #[expect(clippy::let_underscore_must_use, reason = "the connection is closed either way")]
    let _ = send_response(&mut &*stream, response, scratch);
    #[expect(clippy::let_underscore_must_use, reason = "the peer may already be gone")]
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's request loop plus transaction cleanup: whatever way the
/// loop exits — clean disconnect, torn frame, idle reap, drain, shutdown —
/// a transaction still open on the connection is rolled back before the
/// connection is accounted closed, so a dropped client leaves no trace and
/// the final-checkpoint path never sees a stranded open transaction.
fn serve_connection(inner: &Arc<Inner>, stream: &TcpStream) {
    let mut txn: Option<u64> = None;
    serve_requests(inner, stream, &mut txn);
    if let Some(t) = txn {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the client is gone, so there is no one to report to; an already-closed txn id is the benign race here"
        )]
        let _ = inner.db.rollback(t);
    }
}

/// The request loop proper; `txn` is the connection's implicit open
/// transaction (see the protocol docs in [`crate::proto`]).
fn serve_requests(inner: &Arc<Inner>, stream: &TcpStream, txn: &mut Option<u64>) {
    // Idle reaping: a read that exceeds the configured timeout surfaces as
    // `ProtoError::TimedOut` below.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a socket that refuses a timeout is served without idle reaping"
    )]
    let _ = stream.set_read_timeout(inner.config.read_timeout);
    // A response is one `write` of a whole frame: nothing for Nagle to wait for.
    #[expect(clippy::let_underscore_must_use, reason = "Nagle costs latency, not correctness")]
    let _ = stream.set_nodelay(true);
    // One buffered reader, one request buffer and one response buffer for
    // the life of the connection.
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut payload = Vec::new();
    let mut scratch = Vec::new();
    loop {
        match read_frame_into(&mut reader, &mut payload) {
            Ok(true) => {}
            // Clean disconnect at a frame boundary.
            Ok(false) => return,
            // Mid-frame disconnect: nothing was applied for the torn
            // request (decode never ran), nothing to answer — close.
            Err(ProtoError::Truncated) => return,
            // The stream can't be resynchronized: answer once, then close.
            Err(e @ (ProtoError::Oversized { .. } | ProtoError::CrcMismatch)) => {
                inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let response =
                    Response::Error { code: ErrorCode::Protocol, message: e.to_string() };
                send_goodbye(stream, &response, &mut scratch);
                return;
            }
            // Idle past the read timeout: reap the connection so a stalled
            // client cannot pin a slot.
            Err(ProtoError::TimedOut) => {
                inner.metrics.connections_reaped.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "connection idle past the {:?} read timeout",
                    inner.config.read_timeout.unwrap_or_default()
                );
                send_goodbye(
                    stream,
                    &Response::Error { code: ErrorCode::IdleTimeout, message },
                    &mut scratch,
                );
                return;
            }
            Err(ProtoError::Malformed(_)) | Err(ProtoError::Io(_)) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing was valid (length + CRC), so the stream is still
                // in sync: answer the bad message and keep serving.
                inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                if send_response(&mut writer, &resp, &mut scratch).is_err() {
                    return;
                }
                continue;
            }
        };
        inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
        if inner.stop.load(Ordering::Acquire) && request != Request::Shutdown {
            inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            };
            #[expect(clippy::let_underscore_must_use, reason = "the connection closes either way")]
            let _ = send_response(&mut writer, &resp, &mut scratch);
            return;
        }
        let shutdown = request == Request::Shutdown;
        let sent = match handle_request(inner, request, txn) {
            Reply::Rows(block) => send_rows(&mut writer, &block, &mut scratch),
            Reply::Message(response) => {
                if matches!(response, Response::Error { .. }) {
                    inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                }
                send_response(&mut writer, &response, &mut scratch)
            }
        };
        if sent.is_err() {
            return;
        }
        if shutdown {
            // Raise the flag after the ack is on the wire; the woken accept
            // loop runs the drain.
            inner.request_stop();
            return;
        }
    }
}

/// Map a core-layer failure to the wire's stable error codes: write
/// conflicts are [`ErrorCode::Conflict`] (retryable — first-writer-wins
/// losers should back off and retry), unknown-transaction is a client
/// protocol misuse ([`ErrorCode::BadRequest`]), the rest keep their
/// existing classes.
fn core_error(e: CoreError) -> Response {
    let code = match &e {
        CoreError::Storage(hermit_storage::StorageError::WriteConflict { .. }) => {
            ErrorCode::Conflict
        }
        CoreError::UnknownTxn { .. } => ErrorCode::BadRequest,
        CoreError::NotDurable { .. } => ErrorCode::NotDurable,
        _ => ErrorCode::Storage,
    };
    Response::Error { code, message: e.to_string() }
}

/// Map a storage-layer failure from the auto-commit DML path (a
/// [`hermit_storage::StorageError::WriteConflict`] means the statement lost
/// to an open transaction's lock).
fn storage_error(e: hermit_storage::StorageError) -> Response {
    let code = match &e {
        hermit_storage::StorageError::WriteConflict { .. } => ErrorCode::Conflict,
        _ => ErrorCode::Storage,
    };
    Response::Error { code, message: e.to_string() }
}

/// What a request handler hands the connection loop to put on the wire: a
/// query's rows stay the block of cell images validation wrote, every other
/// answer is a [`Response`] value.
enum Reply {
    Rows(RowBlock),
    Message(Response),
}

fn handle_request(inner: &Arc<Inner>, request: Request, txn: &mut Option<u64>) -> Reply {
    let db = &inner.db;
    Reply::Message(match request {
        Request::Query(query) => {
            return match run_query(inner, query, *txn) {
                Ok(block) => Reply::Rows(block),
                Err(error) => Reply::Message(error),
            }
        }
        Request::Insert(row) => match *txn {
            Some(t) => match db.insert_txn(t, &row) {
                Ok(tid) => Response::Inserted { tid: tid.0 },
                Err(e) => core_error(e),
            },
            None => match db.insert(&row) {
                Ok(tid) => Response::Inserted { tid: tid.0 },
                Err(e) => storage_error(e),
            },
        },
        Request::Delete { pk } => match *txn {
            Some(t) => match db.delete_by_pk_txn(t, pk) {
                Ok(()) => Response::Deleted,
                Err(e) => core_error(e),
            },
            None => match db.delete_by_pk(pk) {
                Ok(()) => Response::Deleted,
                Err(e) => storage_error(e),
            },
        },
        Request::Begin if txn.is_some() => Response::Error {
            code: ErrorCode::BadRequest,
            message: "a transaction is already open on this connection".into(),
        },
        Request::Begin => match db.begin() {
            Ok(t) => {
                *txn = Some(t);
                Response::TxnBegun { txn: t }
            }
            Err(e) => core_error(e),
        },
        Request::Commit => match txn.take() {
            None => Response::Error {
                code: ErrorCode::BadRequest,
                message: "no open transaction on this connection".into(),
            },
            Some(t) => match db.commit(t) {
                Ok(()) => Response::Ok,
                Err(e) => {
                    // A failed commit leaves the transaction open with a
                    // sound undo list (see hermit_core::txn) — keep it on
                    // the connection so rollback / disconnect cleans up.
                    if !matches!(e, CoreError::UnknownTxn { .. }) {
                        *txn = Some(t);
                    }
                    core_error(e)
                }
            },
        },
        Request::Rollback => match txn.take() {
            None => Response::Error {
                code: ErrorCode::BadRequest,
                message: "no open transaction on this connection".into(),
            },
            // Rollback always completes in memory; a WAL failure logging
            // the abort record is reported but the transaction is closed.
            Some(t) => match db.rollback(t) {
                Ok(()) => Response::Ok,
                Err(e) => core_error(e),
            },
        },
        Request::Explain(query) => Response::Explain(db.db().plan(&query).to_string()),
        Request::Checkpoint => match db.checkpoint() {
            Ok(()) => Response::Ok,
            Err(e @ CoreError::NotDurable { .. }) => {
                Response::Error { code: ErrorCode::NotDurable, message: e.to_string() }
            }
            Err(e) => Response::Error { code: ErrorCode::Storage, message: e.to_string() },
        },
        Request::Stats => Response::Stats(render_stats(inner)),
        Request::Shutdown => Response::Ok,
    })
}

/// Plan and execute one query; the rows come back as the executor wrote
/// them during validation, or a typed error takes their place.
fn run_query(inner: &Arc<Inner>, query: Query, txn: Option<u64>) -> Result<RowBlock, Response> {
    let db = &inner.db;
    // The wire contract answers a query without `select` with whole rows:
    // that is a projection of every column, and planning it as one is what
    // has validation write the rows out.
    let query = match query.projection() {
        Some(_) => query,
        None => {
            let width = db.db().heap().schema().width();
            query.select(0..width)
        }
    };
    // Planned once: the plan executed is the plan whose kind is recorded.
    let plan = db.db().plan(&query);
    let kind = plan.kind();
    let t0 = Instant::now();
    let result = match txn {
        Some(t) => db.db().execute_plan_for_txn(&plan, t),
        None => db.db().execute_plan(&plan),
    };
    let elapsed = t0.elapsed();
    inner.metrics.query_latency.record(kind, elapsed);
    if let Some(deadline) = inner.config.query_deadline {
        if elapsed > deadline {
            inner.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: format!(
                    "query finished in {:?}, past the {:?} deadline; result discarded",
                    elapsed, deadline
                ),
            });
        }
    }
    // A heap page that could not be read is not a deleted row: the block
    // may be missing matches, so it is an error, never a partial answer.
    if result.unreadable > 0 {
        return Err(Response::Error {
            code: ErrorCode::Storage,
            message: format!(
                "{} heap page(s) could not be read; result discarded",
                result.unreadable
            ),
        });
    }
    // No block only when an index was dropped under the plan: no rows.
    let block = result.projected.unwrap_or_default();
    // The cap is the frame's, for this answer's row width.
    let cap = max_rows_per_frame(block.cells_per_row());
    if block.len() > cap {
        return Err(Response::Error {
            code: ErrorCode::BadRequest,
            message: format!(
                "result of {} rows exceeds the per-response cap of {cap}; add a limit \
                 or a projection",
                block.len(),
            ),
        });
    }
    Ok(block)
}

/// Append one formatted line of the stats report to `out`.
fn line(out: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    #[expect(clippy::let_underscore_must_use, reason = "writing into a `String` cannot fail")]
    let _ = out.write_fmt(args);
    out.push('\n');
}

/// Render every engine + serving counter as a stable text report: one
/// `name value` per line, Prometheus-style `{label="..."}` selectors for
/// per-column and per-plan metrics. Asserted by the test suite — treat the
/// line format as an API.
fn render_stats(inner: &Arc<Inner>) -> String {
    let mut out = String::with_capacity(1024);
    let m = &inner.metrics;
    let db = inner.db.db();

    line(
        &mut out,
        format_args!("hermit_connections_active {}", m.connections_active.load(Ordering::Relaxed)),
    );
    line(
        &mut out,
        format_args!(
            "hermit_connections_accepted {}",
            m.connections_accepted.load(Ordering::Relaxed)
        ),
    );
    line(
        &mut out,
        format_args!(
            "hermit_connections_rejected {}",
            m.connections_rejected.load(Ordering::Relaxed)
        ),
    );
    line(
        &mut out,
        format_args!("hermit_connections_reaped {}", m.connections_reaped.load(Ordering::Relaxed)),
    );
    line(&mut out, format_args!("hermit_requests_total {}", m.requests.load(Ordering::Relaxed)));
    line(&mut out, format_args!("hermit_request_errors {}", m.errors.load(Ordering::Relaxed)));
    line(
        &mut out,
        format_args!(
            "hermit_query_deadline_exceeded {}",
            m.deadline_exceeded.load(Ordering::Relaxed)
        ),
    );

    line(&mut out, format_args!("hermit_rows {}", db.len()));
    // Memory by structure: with the binary and the connection buffers,
    // these parts are the server's resident set.
    line(&mut out, format_args!("hermit_memory_bytes{{part=\"pool\"}} {}", db.pool_bytes()));
    let (primary_bytes, (run_keys, outlier_keys)) = {
        let primary = db.primary();
        (primary.memory_bytes(), primary.tier_lens())
    };
    line(&mut out, format_args!("hermit_memory_bytes{{part=\"primary\"}} {primary_bytes}"));
    for col in db.indexed_columns() {
        if let Some(index) = db.index(col) {
            let part = if index.is_hermit() { "hermit" } else { "baseline" };
            let bytes = index.memory_bytes();
            line(
                &mut out,
                format_args!("hermit_memory_bytes{{part=\"{part}\",column=\"{col}\"}} {bytes}"),
            );
        }
    }
    line(&mut out, format_args!("hermit_primary_keys{{tier=\"run\"}} {run_keys}"));
    line(&mut out, format_args!("hermit_primary_keys{{tier=\"outlier\"}} {outlier_keys}"));
    if let Some((hits, misses, evictions)) = db.pool_counters() {
        line(&mut out, format_args!("hermit_pool_hits {hits}"));
        line(&mut out, format_args!("hermit_pool_misses {misses}"));
        line(&mut out, format_args!("hermit_pool_evictions {evictions}"));
        let total = hits + misses;
        let rate = if total == 0 { 1.0 } else { hits as f64 / total as f64 };
        line(&mut out, format_args!("hermit_pool_hit_rate {rate:.6}"));
    }
    let io = db.pool_io_counters();
    line(&mut out, format_args!("hermit_pool_read_errors {}", io.read_errors));
    // Misses that read one record and installed nothing; they are counted
    // in hermit_pool_misses too.
    line(&mut out, format_args!("hermit_pool_read_through {}", io.read_through));
    // Racing loads of one page, and re-reads of an image that went stale in
    // flight, make store reads >= pool misses legal.
    line(&mut out, format_args!("hermit_store_reads {}", io.store_reads));
    line(&mut out, format_args!("hermit_store_writes {}", io.store_writes));
    if let Some(depth) = db.wal_depth() {
        line(&mut out, format_args!("hermit_wal_uncommitted {depth}"));
    }
    if let Some(tail) = db.wal_tail() {
        line(&mut out, format_args!("hermit_wal_records {}", tail.records()));
        line(&mut out, format_args!("hermit_wal_fsyncs {}", tail.fsyncs()));
        // Commit points that waited for an fsync; over `hermit_wal_fsyncs`
        // it is the mean cohort one fsync served.
        line(&mut out, format_args!("hermit_wal_commit_waits {}", tail.commit_waits()));
        line(&mut out, format_args!("hermit_wal_barrier_fsyncs {}", tail.barrier_fsyncs()));
    }

    let txn = db.txn_counters();
    line(&mut out, format_args!("hermit_txn_begins {}", txn.begins));
    line(&mut out, format_args!("hermit_txn_commits {}", txn.commits));
    line(&mut out, format_args!("hermit_txn_aborts {}", txn.aborts));
    line(&mut out, format_args!("hermit_txn_conflicts {}", txn.conflicts));
    line(&mut out, format_args!("hermit_txn_active {}", txn.active));

    line(&mut out, format_args!("hermit_reorg_passes {}", inner.db.reorg_passes()));
    line(&mut out, format_args!("hermit_reorg_queue_depth {}", inner.db.reorg_queue_len()));
    for col in db.indexed_columns() {
        if matches!(db.index(col), Some(SecondaryIndex::Hermit { .. })) {
            if let Some(share) = inner.db.outlier_share(col) {
                line(&mut out, format_args!("hermit_outlier_share{{column=\"{col}\"}} {share:.6}"));
            }
        }
    }
    if let Some(worker) = inner.worker.lock().as_ref() {
        let stats = worker.stats();
        line(
            &mut out,
            format_args!("hermit_worker_sweeps {}", stats.sweeps.load(Ordering::Relaxed)),
        );
        line(
            &mut out,
            format_args!("hermit_worker_candidates {}", stats.candidates.load(Ordering::Relaxed)),
        );
    }

    for (kind, hist) in m.query_latency.iter() {
        let plan = kind.key();
        line(&mut out, format_args!("hermit_query_count{{plan=\"{plan}\"}} {}", hist.count()));
        if hist.count() == 0 {
            continue;
        }
        line(
            &mut out,
            format_args!(
                "hermit_query_latency_us{{plan=\"{plan}\",quantile=\"0.5\"}} {}",
                hist.quantile_us(0.5)
            ),
        );
        line(
            &mut out,
            format_args!(
                "hermit_query_latency_us{{plan=\"{plan}\",quantile=\"0.99\"}} {}",
                hist.quantile_us(0.99)
            ),
        );
        line(
            &mut out,
            format_args!("hermit_query_latency_us_mean{{plan=\"{plan}\"}} {:.1}", hist.mean_us()),
        );
        for (le, cum) in hist.cumulative() {
            let le = if le == u64::MAX { "+Inf".to_string() } else { le.to_string() };
            line(
                &mut out,
                format_args!("hermit_query_latency_bucket{{plan=\"{plan}\",le=\"{le}\"}} {cum}"),
            );
        }
    }
    out
}

/// Stop admitting, drain, force-close laggards, stop the worker, and take
/// the final checkpoint. Runs on the accept thread after its loop exits.
fn drain(inner: &Arc<Inner>) {
    let deadline = Instant::now() + inner.config.drain_timeout;
    while inner.metrics.connections_active.load(Ordering::Acquire) > 0 && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    // Force-close whatever is still blocked in a read.
    for (_, stream) in inner.conns.lock().drain() {
        #[expect(clippy::let_underscore_must_use, reason = "the peer may already be gone")]
        let _ = stream.shutdown(Shutdown::Both);
    }
    let force_deadline = Instant::now() + Duration::from_secs(1);
    while inner.metrics.connections_active.load(Ordering::Acquire) > 0
        && Instant::now() < force_deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    if let Some(worker) = inner.worker.lock().take() {
        worker.stop();
    }
    // A clean stop leaves nothing for WAL replay. In-memory databases have
    // nothing to checkpoint; every other failure is already recorded in the
    // WAL and survives through ordinary recovery, so best-effort is right.
    match inner.db.checkpoint() {
        Ok(()) | Err(CoreError::NotDurable { .. }) => {}
        Err(e) => eprintln!("hermit-server: final checkpoint failed: {e}"),
    }
}
