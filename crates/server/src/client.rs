//! Blocking client for the `hermit_proto` wire protocol.
//!
//! One [`HermitClient`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/response — no pipelining), which
//! is exactly the shape `hermit-cli`, the loopback test suite, and the
//! bench harness need. Server-reported failures come back as
//! [`ClientError::Server`] with the typed [`ErrorCode`], protocol damage as
//! [`ClientError::Proto`].
//!
//! ## Timeouts and retry
//!
//! [`ClientConfig`] bounds every blocking syscall (connect / read / write
//! timeouts) and, when [`retries`](ClientConfig::retries) is nonzero, makes
//! the *idempotent* requests — [`query`](HermitClient::query),
//! [`explain`](HermitClient::explain), [`stats`](HermitClient::stats) —
//! transparently survive transient failures: on a
//! [`Retryable`](crate::proto::FaultClass::Retryable) error (disconnect,
//! timeout, [`ErrorCode::Capacity`], [`ErrorCode::IdleTimeout`]) the client
//! sleeps a jittered exponential backoff, reconnects, and reissues the
//! request. Mutating requests (insert / delete / checkpoint / shutdown)
//! are **never** retried — a torn response leaves their effect unknown, and
//! reissuing could apply it twice; the caller sees the typed error and
//! decides. The backoff jitter is seeded
//! ([`retry_seed`](ClientConfig::retry_seed)) so a failing schedule is
//! replayable.

use crate::proto::{read_frame_into, send_request, ErrorCode, ProtoError, Request, Response};
use hermit_core::Query;
use hermit_storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Knobs for the client's timeout and retry behavior.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection; `None` blocks
    /// indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read; a hung server surfaces as
    /// [`ProtoError::TimedOut`] instead of parking the caller forever.
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
    /// Reissue attempts for idempotent requests after a retryable failure.
    /// `0` (the default) disables retry entirely.
    pub retries: u32,
    /// First backoff delay; doubles per attempt up to
    /// [`backoff_max`](Self::backoff_max).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for backoff jitter, so retry schedules are replayable.
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retries: 0,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
            retry_seed: 0x4845_524d_4954,
        }
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// Stable error category from the wire.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a response kind the request cannot produce.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Convenience alias for client results.
pub type ClientResult<T> = Result<T, ClientError>;

/// One connection to a `hermit-server`.
pub struct HermitClient {
    /// The connection, read through one buffer for its whole life (a
    /// response's header and payload then cost one `read` between them) and
    /// written to directly. Replaced as a whole on reconnect, so bytes
    /// buffered from a dead connection never reach the next one.
    conn: BufReader<TcpStream>,
    peer: SocketAddr,
    config: ClientConfig,
    rng: StdRng,
    retries_done: u64,
    /// The request frame being sent.
    scratch: Vec<u8>,
    /// The response payload being read.
    payload: Vec<u8>,
}

impl HermitClient {
    /// Connect to a serving address with default timeouts and no retry.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<HermitClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeout / retry configuration.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<HermitClient> {
        let mut last_err = None;
        for peer in addr.to_socket_addrs()? {
            match Self::dial(peer, &config) {
                Ok(stream) => {
                    return Ok(HermitClient {
                        conn: BufReader::new(stream),
                        peer,
                        rng: StdRng::seed_from_u64(config.retry_seed),
                        config,
                        retries_done: 0,
                        scratch: Vec::new(),
                        payload: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| std::io::Error::other("address resolved to no socket addresses")))
    }

    fn dial(peer: SocketAddr, config: &ClientConfig) -> std::io::Result<TcpStream> {
        let stream = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&peer, t)?,
            None => TcpStream::connect(peer)?,
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(stream)
    }

    /// Set a read timeout so a hung server cannot park the client forever.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.get_ref().set_read_timeout(timeout)
    }

    /// Retries performed so far across all idempotent requests (0 when
    /// nothing ever failed, or when retry is disabled).
    pub fn retries(&self) -> u64 {
        self.retries_done
    }

    /// Issue one request and read its response frame. No retry — mutating
    /// requests go through here directly.
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        send_request(self.conn.get_mut(), request, &mut self.scratch)?;
        if !read_frame_into(&mut self.conn, &mut self.payload)? {
            return Err(ProtoError::Truncated.into());
        }
        Ok(Response::decode(&self.payload)?)
    }

    /// [`call`](Self::call) wrapped in the retry loop: safe only for
    /// requests whose reissue cannot double-apply an effect.
    fn call_idempotent(&mut self, request: &Request) -> ClientResult<Response> {
        let mut attempt = 0u32;
        loop {
            let result = self.call(request);
            let retryable = match &result {
                Ok(_) => return result,
                Err(ClientError::Proto(e)) => e.is_retryable(),
                Err(ClientError::Server { code, .. }) => code.is_retryable(),
                Err(ClientError::UnexpectedResponse(_)) => false,
            };
            if !retryable || attempt >= self.config.retries {
                return result;
            }
            attempt += 1;
            self.retries_done += 1;
            std::thread::sleep(self.backoff(attempt));
            // Always reconnect before a retry: after a transport error the
            // stream may be desynchronized, and the server closes the
            // socket on Capacity / IdleTimeout anyway. A failed reconnect
            // is fine — the next `call` fails retryably and the loop
            // either tries again or returns that error.
            if let Ok(stream) = Self::dial(self.peer, &self.config) {
                self.conn = BufReader::new(stream);
            }
        }
    }

    /// Jittered exponential backoff: `base * 2^(attempt-1)` capped at
    /// `backoff_max`, then uniformly jittered over `[delay/2, delay)` so
    /// synchronized clients do not stampede the server in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let delay = self
            .config
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.config.backoff_max)
            .max(Duration::from_micros(1));
        let frac: f64 = self.rng.gen_range(0.0..1.0);
        delay / 2 + delay.mul_f64(frac / 2.0)
    }

    fn expect_err(response: Response, what: &'static str) -> ClientError {
        match response {
            Response::Error { code, message } => ClientError::Server { code, message },
            _ => ClientError::UnexpectedResponse(what),
        }
    }

    /// Execute a query; rows are projected columns when the query carries a
    /// `select`, full rows otherwise. Idempotent: retried per
    /// [`ClientConfig::retries`].
    pub fn query(&mut self, query: &Query) -> ClientResult<Vec<Vec<Value>>> {
        match self.call_idempotent(&Request::Query(query.clone()))? {
            Response::Rows(rows) => Ok(rows),
            other => Err(Self::expect_err(other, "Rows")),
        }
    }

    /// Insert one row; returns the raw tid bits.
    pub fn insert(&mut self, row: Vec<Value>) -> ClientResult<u64> {
        match self.call(&Request::Insert(row))? {
            Response::Inserted { tid } => Ok(tid),
            other => Err(Self::expect_err(other, "Inserted")),
        }
    }

    /// Delete a row by primary key.
    pub fn delete(&mut self, pk: i64) -> ClientResult<()> {
        match self.call(&Request::Delete { pk })? {
            Response::Deleted => Ok(()),
            other => Err(Self::expect_err(other, "Deleted")),
        }
    }

    /// EXPLAIN the query's plan (the engine's stable EXPLAIN text).
    /// Idempotent: retried per [`ClientConfig::retries`].
    pub fn explain(&mut self, query: &Query) -> ClientResult<String> {
        match self.call_idempotent(&Request::Explain(query.clone()))? {
            Response::Explain(plan) => Ok(plan),
            other => Err(Self::expect_err(other, "Explain")),
        }
    }

    /// Fetch the server's metrics dump. Idempotent: retried per
    /// [`ClientConfig::retries`].
    pub fn stats(&mut self) -> ClientResult<String> {
        match self.call_idempotent(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(Self::expect_err(other, "Stats")),
        }
    }

    /// Trigger a live checkpoint.
    pub fn checkpoint(&mut self) -> ClientResult<()> {
        match self.call(&Request::Checkpoint)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_err(other, "Ok")),
        }
    }

    /// Request graceful server shutdown; the ack arrives before the drain.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_err(other, "Ok")),
        }
    }

    /// Open a transaction on this connection; subsequent `insert` / `delete`
    /// / `query` calls run inside it until [`commit`](Self::commit) or
    /// [`rollback`](Self::rollback). Never retried: a reissued `Begin`
    /// after a torn response could open a second transaction server-side.
    pub fn begin(&mut self) -> ClientResult<u64> {
        match self.call(&Request::Begin)? {
            Response::TxnBegun { txn } => Ok(txn),
            other => Err(Self::expect_err(other, "TxnBegun")),
        }
    }

    /// Commit this connection's open transaction. Never retried — a torn
    /// response leaves the commit outcome unknown, and the connection is
    /// gone anyway (the server rolls back on disconnect).
    pub fn commit(&mut self) -> ClientResult<()> {
        match self.call(&Request::Commit)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_err(other, "Ok")),
        }
    }

    /// Roll back this connection's open transaction. Never retried.
    pub fn rollback(&mut self) -> ClientResult<()> {
        match self.call(&Request::Rollback)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_err(other, "Ok")),
        }
    }
}
