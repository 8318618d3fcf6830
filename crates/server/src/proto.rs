//! `hermit_proto`: the length-prefixed, CRC-framed binary protocol spoken
//! between `hermit-server` and `hermit-cli`.
//!
//! Pure encode/decode — no sockets in this module, so both sides (and the
//! torn-frame test suite) share one implementation. The framing
//! deliberately mirrors the WAL's ([`hermit_storage::wal`]): a frame is
//!
//! ```text
//! len: u32 LE | crc32: u32 LE (of payload) | payload[len]
//! ```
//!
//! with `len <= MAX_FRAME`. A declared length above [`MAX_FRAME`] is
//! rejected *before* any allocation (a four-byte header must not provoke a
//! 4 GiB buffer), and a CRC mismatch poisons the connection — after a
//! corrupt frame there is no way to resynchronize a byte stream, so the
//! server sends one typed error and closes.
//!
//! A frame is built in one buffer with the header's eight bytes reserved at
//! its front, so sending it is one CRC pass and one `write`; it is read
//! into a payload buffer the connection reuses ([`read_frame_into`]), and
//! both sides read through one buffered reader per connection, so the
//! header and a small payload cost one `read` between them.
//!
//! # Messages
//!
//! | tag  | request                      | tag  | response                   |
//! |------|------------------------------|------|----------------------------|
//! | 0x01 | `Query(Query)`               | 0x81 | `Rows(Vec<Vec<Value>>)`    |
//! | 0x02 | `Insert(Vec<Value>)`         | 0x82 | `Inserted { tid }`         |
//! | 0x03 | `Delete { pk }`              | 0x83 | `Deleted`                  |
//! | 0x04 | `Explain(Query)`             | 0x84 | `Explain(String)`          |
//! | 0x05 | `Checkpoint`                 | 0x85 | `Stats(String)`            |
//! | 0x06 | `Stats`                      | 0x86 | `Ok`                       |
//! | 0x07 | `Shutdown`                   | 0x87 | `Error { code, message }`  |
//! | 0x08 | `Begin`                      | 0x88 | `TxnBegun { txn }`         |
//! | 0x09 | `Commit`                     |      |                            |
//! | 0x0A | `Rollback`                   |      |                            |
//!
//! Transactions are **per-connection implicit**: `Begin` opens one on the
//! connection (at most one at a time), subsequent `Insert`/`Delete`/`Query`
//! requests run inside it, and `Commit`/`Rollback` close it — no
//! transaction id travels on the wire (the returned id is informational,
//! for logs and tests). A connection that drops mid-transaction is rolled
//! back by the server.
//!
//! A cell on the wire is the storage cell image: the nine bytes of
//! [`hermit_storage::encode_cell`] (`0` NULL, `1` i64, `2` f64, body
//! little-endian), the same bytes a heap page and a WAL record hold. That
//! codec lives next to [`Value`] in `hermit_storage` and this module only
//! calls it. It is why a `Rows` payload — `0x81 | count u32 | count ×
//! (width u16 | width × cell)` — can be written straight from a
//! [`RowBlock`], whose cells were copied off the pinned page during
//! validation ([`encode_rows`]); `Response::Rows(..).encode()` produces the
//! same bytes from boxed values. Queries serialize their conjuncts,
//! projection, and limit exactly as the [`hermit_core::Query`] builder
//! holds them.

use hermit_core::{Query, RangePredicate, RowBlock};
use hermit_storage::recovery::crc32;
use hermit_storage::{decode_cell, encode_cell, Value, CELL_BYTES};
use std::io::{Read, Write};

/// Maximum frame payload in bytes. Large enough for a 36 157-row result of
/// 3-column rows ([`max_rows_per_frame`]); small enough that a hostile
/// length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 1 << 20;

/// Typed protocol failure. Everything a malformed peer can provoke lands
/// here — never a panic.
#[derive(Debug)]
pub enum ProtoError {
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// A frame declared a payload longer than [`MAX_FRAME`].
    Oversized {
        /// Length the header declared.
        declared: usize,
    },
    /// Payload bytes do not match the frame's CRC.
    CrcMismatch,
    /// Structurally invalid payload (unknown tag, bad arity, short body).
    Malformed(&'static str),
    /// A read or write hit the socket's configured timeout.
    TimedOut,
    /// Transport failure.
    Io(std::io::Error),
}

/// Coarse failure classification: may a client safely retry after this?
///
/// **Retryable** failures are transport-level — the *bytes* were lost or
/// delayed, and repeating an idempotent request on a fresh connection is
/// sound. **Fatal** failures mean one side produced or observed garbage;
/// retrying would resend the same garbage (or trust a peer that already
/// proved untrustworthy), so the client must surface the error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient transport failure; retry idempotent requests.
    Retryable,
    /// Protocol-level corruption or misuse; do not retry.
    Fatal,
}

impl ProtoError {
    /// Classify this failure (see [`FaultClass`]).
    pub fn class(&self) -> FaultClass {
        match self {
            // The peer vanished or stalled mid-frame: nothing corrupt was
            // exchanged, a fresh connection can safely repeat the request.
            ProtoError::Truncated | ProtoError::TimedOut | ProtoError::Io(_) => {
                FaultClass::Retryable
            }
            // Garbage on the wire or an unframeable message: resending
            // changes nothing.
            ProtoError::Oversized { .. } | ProtoError::CrcMismatch | ProtoError::Malformed(_) => {
                FaultClass::Fatal
            }
        }
    }

    /// `true` if [`class`](Self::class) is [`FaultClass::Retryable`].
    pub fn is_retryable(&self) -> bool {
        self.class() == FaultClass::Retryable
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::Oversized { declared } => {
                write!(f, "frame declares {declared} bytes (max {MAX_FRAME})")
            }
            ProtoError::CrcMismatch => write!(f, "frame payload fails its CRC"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::TimedOut => write!(f, "socket timed out"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ProtoError::Truncated,
            // Both kinds occur for SO_RCVTIMEO expiry, platform-dependent.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtoError::TimedOut,
            _ => ProtoError::Io(e),
        }
    }
}

/// Error category carried by [`Response::Error`]; stable across versions
/// (codes are part of the wire format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request was structurally valid but semantically unserviceable
    /// (bad arity, unknown column, …).
    BadRequest = 1,
    /// The storage engine rejected the statement (duplicate/missing pk, …).
    Storage = 2,
    /// Checkpoint requested on a non-durable database.
    NotDurable = 3,
    /// The query finished after its deadline; the result was discarded.
    DeadlineExceeded = 4,
    /// The server is at `max_connections`; retry later.
    Capacity = 5,
    /// The server is draining for shutdown.
    ShuttingDown = 6,
    /// The peer sent a frame the server cannot trust (CRC/oversize).
    Protocol = 7,
    /// The connection sat idle past the server's read timeout and was
    /// reaped; reconnect and retry.
    IdleTimeout = 8,
    /// A first-writer-wins write conflict: another transaction holds the
    /// pk. Retry the statement (or the whole transaction) after a backoff.
    Conflict = 9,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Storage,
            3 => ErrorCode::NotDurable,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Capacity,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::IdleTimeout,
            9 => ErrorCode::Conflict,
            _ => return None,
        })
    }

    /// Classify a server-reported error (see [`FaultClass`]): only errors
    /// caused by transient server state — a full accept queue, an idle
    /// reap — are worth repeating; semantic rejections are final.
    pub fn class(self) -> FaultClass {
        match self {
            ErrorCode::Capacity | ErrorCode::IdleTimeout | ErrorCode::Conflict => {
                FaultClass::Retryable
            }
            ErrorCode::BadRequest
            | ErrorCode::Storage
            | ErrorCode::NotDurable
            | ErrorCode::DeadlineExceeded
            | ErrorCode::ShuttingDown
            | ErrorCode::Protocol => FaultClass::Fatal,
        }
    }

    /// `true` if [`class`](Self::class) is [`FaultClass::Retryable`].
    pub fn is_retryable(self) -> bool {
        self.class() == FaultClass::Retryable
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a declarative query; respond with [`Response::Rows`].
    Query(Query),
    /// Insert one row; respond with [`Response::Inserted`].
    Insert(Vec<Value>),
    /// Delete by primary key; respond with [`Response::Deleted`].
    Delete {
        /// Primary key of the row to delete.
        pk: i64,
    },
    /// EXPLAIN the query's plan without executing it.
    Explain(Query),
    /// Take a live checkpoint (durable databases only).
    Checkpoint,
    /// Dump the server's metrics as a stable text report.
    Stats,
    /// Gracefully shut the server down (drain, stop worker, checkpoint).
    Shutdown,
    /// Open a transaction on this connection; respond with
    /// [`Response::TxnBegun`]. At most one per connection.
    Begin,
    /// Commit this connection's open transaction.
    Commit,
    /// Roll back this connection's open transaction.
    Rollback,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Materialized qualifying rows (projected columns when the query
    /// carried a `select`, full rows otherwise).
    Rows(Vec<Vec<Value>>),
    /// Insert acknowledged with the new row's tuple identifier.
    Inserted {
        /// Raw tid bits (scheme-dependent, see `hermit_storage::Tid`).
        tid: u64,
    },
    /// Delete acknowledged.
    Deleted,
    /// Rendered EXPLAIN plan.
    Explain(String),
    /// Rendered metrics report.
    Stats(String),
    /// Generic acknowledgement (checkpoint, shutdown, commit, rollback).
    Ok,
    /// Transaction opened; the id is informational (logs, tests) — requests
    /// on this connection route through it implicitly.
    TxnBegun {
        /// Server-assigned transaction id.
        txn: u64,
    },
    /// Typed failure; the connection stays usable unless the code is
    /// [`ErrorCode::Protocol`].
    Error {
        /// Stable error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// payload primitives

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Malformed("length overflow"))?;
        let s = self.buf.get(self.pos..end).ok_or(ProtoError::Malformed("short payload"))?;
        self.pos = end;
        Ok(s)
    }

    /// `take(N)` as a fixed-size array, for the `from_le_bytes` family.
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        self.take(N)?.try_into().map_err(|_| ProtoError::Malformed("short payload"))
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let [b] = self.fixed::<1>()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.fixed()?))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.fixed()?))
    }

    fn cell(&mut self) -> Result<Value, ProtoError> {
        decode_cell(&self.fixed::<CELL_BYTES>()?).map_err(|_| ProtoError::Malformed("bad cell tag"))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("invalid utf-8"))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after message"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        out.extend_from_slice(&encode_cell(v));
    }
}

fn get_row(c: &mut Cursor<'_>) -> Result<Vec<Value>, ProtoError> {
    let width = c.u16()? as usize;
    let mut row = Vec::with_capacity(width);
    for _ in 0..width {
        row.push(c.cell()?);
    }
    Ok(row)
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    out.extend_from_slice(&(q.conjuncts().len() as u16).to_le_bytes());
    for p in q.conjuncts() {
        out.extend_from_slice(&(p.column as u32).to_le_bytes());
        out.extend_from_slice(&p.lb.to_le_bytes());
        out.extend_from_slice(&p.ub.to_le_bytes());
    }
    match q.projection() {
        Some(cols) => {
            out.push(1);
            out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
            for &c in cols {
                out.extend_from_slice(&(c as u32).to_le_bytes());
            }
        }
        None => out.push(0),
    }
    match q.limit_rows() {
        Some(n) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
        None => out.push(0),
    }
}

fn get_query(c: &mut Cursor<'_>) -> Result<Query, ProtoError> {
    let n = c.u16()? as usize;
    let mut q = Query::new();
    for _ in 0..n {
        let column = c.u32()? as usize;
        let lb = c.f64()?;
        let ub = c.f64()?;
        q = q.and(RangePredicate::range(column, lb, ub));
    }
    match c.u8()? {
        0 => {}
        1 => {
            let k = c.u16()? as usize;
            let mut cols = Vec::with_capacity(k);
            for _ in 0..k {
                cols.push(c.u32()? as usize);
            }
            q = q.select(cols);
        }
        _ => return Err(ProtoError::Malformed("bad projection flag")),
    }
    match c.u8()? {
        0 => {}
        1 => q = q.limit(c.u64()? as usize),
        _ => return Err(ProtoError::Malformed("bad limit flag")),
    }
    Ok(q)
}

// ---------------------------------------------------------------------------
// message encode/decode

impl Request {
    /// Serialize into a payload (no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        self.put(out);
    }

    /// Append the payload to `out`.
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Request::Query(q) => {
                out.push(0x01);
                put_query(out, q);
            }
            Request::Insert(row) => {
                out.push(0x02);
                put_row(out, row);
            }
            Request::Delete { pk } => {
                out.push(0x03);
                out.extend_from_slice(&pk.to_le_bytes());
            }
            Request::Explain(q) => {
                out.push(0x04);
                put_query(out, q);
            }
            Request::Checkpoint => out.push(0x05),
            Request::Stats => out.push(0x06),
            Request::Shutdown => out.push(0x07),
            Request::Begin => out.push(0x08),
            Request::Commit => out.push(0x09),
            Request::Rollback => out.push(0x0A),
        }
    }

    /// Parse a payload. Every malformation is a typed [`ProtoError`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            0x01 => Request::Query(get_query(&mut c)?),
            0x02 => Request::Insert(get_row(&mut c)?),
            0x03 => Request::Delete { pk: c.i64()? },
            0x04 => Request::Explain(get_query(&mut c)?),
            0x05 => Request::Checkpoint,
            0x06 => Request::Stats,
            0x07 => Request::Shutdown,
            0x08 => Request::Begin,
            0x09 => Request::Commit,
            0x0A => Request::Rollback,
            _ => return Err(ProtoError::Malformed("unknown request tag")),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a payload (no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        self.put(out);
    }

    /// Append the payload to `out`.
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Response::Rows(rows) => {
                out.push(0x81);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_row(out, row);
                }
            }
            Response::Inserted { tid } => {
                out.push(0x82);
                out.extend_from_slice(&tid.to_le_bytes());
            }
            Response::Deleted => out.push(0x83),
            Response::Explain(s) => {
                out.push(0x84);
                put_string(out, s);
            }
            Response::Stats(s) => {
                out.push(0x85);
                put_string(out, s);
            }
            Response::Ok => out.push(0x86),
            Response::Error { code, message } => {
                out.push(0x87);
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_string(out, message);
            }
            Response::TxnBegun { txn } => {
                out.push(0x88);
                out.extend_from_slice(&txn.to_le_bytes());
            }
        }
    }

    /// Parse a payload. Every malformation is a typed [`ProtoError`].
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            0x81 => {
                let n = c.u32()? as usize;
                // Guard the pre-allocation against a hostile count: each row
                // costs at least 2 bytes on the wire.
                if n > payload.len() / 2 {
                    return Err(ProtoError::Malformed("row count exceeds payload"));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(get_row(&mut c)?);
                }
                Response::Rows(rows)
            }
            0x82 => Response::Inserted { tid: c.u64()? },
            0x83 => Response::Deleted,
            0x84 => Response::Explain(c.string()?),
            0x85 => Response::Stats(c.string()?),
            0x86 => Response::Ok,
            0x87 => {
                let raw = c.u16()?;
                let code =
                    ErrorCode::from_u16(raw).ok_or(ProtoError::Malformed("unknown error code"))?;
                Response::Error { code, message: c.string()? }
            }
            0x88 => Response::TxnBegun { txn: c.u64()? },
            _ => return Err(ProtoError::Malformed("unknown response tag")),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Append the `Rows` payload for `block` to `out` — byte for byte what
/// `Response::Rows(block.to_rows()).encode()` produces, from the cell
/// images the block already holds instead of from decoded values.
pub fn encode_rows(block: &RowBlock, out: &mut Vec<u8>) {
    let width = (block.cells_per_row() as u16).to_le_bytes();
    out.reserve(5 + 2 * block.len() + block.as_bytes().len());
    out.push(0x81);
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    if block.cells_per_row() == 0 {
        // Rows without cells: the block has no bytes to chunk.
        for _ in 0..block.len() {
            out.extend_from_slice(&width);
        }
        return;
    }
    for cells in block.as_bytes().chunks_exact(block.cells_per_row() * CELL_BYTES) {
        out.extend_from_slice(&width);
        out.extend_from_slice(cells);
    }
}

/// Rows of `cells` cells each that one `Rows` frame can carry: the
/// [`encode_rows`] payload is a 5-byte head, then per row a 2-byte width and
/// `CELL_BYTES` per cell, and must fit [`MAX_FRAME`].
pub fn max_rows_per_frame(cells: usize) -> usize {
    (MAX_FRAME - 5) / (2 + cells * CELL_BYTES)
}

// ---------------------------------------------------------------------------
// framing

/// Bytes of frame header: `len u32 | crc32 u32`.
const FRAME_HEADER: usize = 8;

/// Build a frame in `frame` and write it: the header's bytes are reserved
/// at the front, `put` appends the payload behind them, then one pass over
/// the payload for its CRC and one `write` for the lot.
fn send_framed(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ProtoError> {
    frame.clear();
    frame.extend_from_slice(&[0u8; FRAME_HEADER]);
    put(frame);
    let Some((head, payload)) = frame.split_first_chunk_mut::<FRAME_HEADER>() else {
        return Err(ProtoError::Malformed("frame buffer lacks its header"));
    };
    debug_assert!(payload.len() <= MAX_FRAME, "encoder produced an oversized frame");
    let (len, crc) = head.split_at_mut(4);
    len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
    crc.copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Wrap an already-encoded payload in a frame (length + CRC) and write it —
/// for a caller that holds a bare payload. The request and response senders
/// below encode behind the reserved header instead and copy nothing.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    send_framed(w, &mut frame, |f| f.extend_from_slice(payload))
}

/// Read one frame into `payload` (its previous contents are replaced, its
/// allocation reused). Give it a buffered reader that lives as long as the
/// connection: the header and a small payload then cost one `read`.
///
/// * `Ok(true)` — a complete, CRC-valid frame is in `payload`.
/// * `Ok(false)` — the peer closed the stream *at a frame boundary* (the
///   clean-disconnect case; a reader loop exits silently).
/// * `Err(Truncated)` — the stream ended inside a frame (mid-frame
///   disconnect).
/// * `Err(Oversized | CrcMismatch | Io)` — the stream can no longer be
///   trusted; the caller must close it.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, ProtoError> {
    let mut head = [0u8; FRAME_HEADER];
    // Distinguish "closed before any byte" (clean EOF) from "closed inside
    // the header" (truncation): read the first byte separately.
    let (first, rest) = head.split_at_mut(1);
    loop {
        match r.read(first) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(rest)?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    // Before the buffer grows: a four-byte length must not buy a 4 GiB one.
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { declared: len });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    if crc32(payload) != crc {
        return Err(ProtoError::CrcMismatch);
    }
    Ok(true)
}

/// [`read_frame_into`] a fresh buffer: `Ok(None)` is the clean EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Encode + frame a request in `scratch` and write it.
pub fn send_request(
    w: &mut impl Write,
    req: &Request,
    scratch: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    send_framed(w, scratch, |f| req.put(f))
}

/// Encode + frame a response in `scratch` and write it.
pub fn send_response(
    w: &mut impl Write,
    resp: &Response,
    scratch: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    send_framed(w, scratch, |f| resp.put(f))
}

/// Frame a `Rows` response in `scratch` straight from `block`
/// ([`encode_rows`]) and write it.
pub fn send_rows(
    w: &mut impl Write,
    block: &RowBlock,
    scratch: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    send_framed(w, scratch, |f| encode_rows(block, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let req = Request::Query(Query::new().range(2, 1.0, 9.0).select([0, 2]).limit(5));
        let mut buf = Vec::new();
        let mut wire = Vec::new();
        send_request(&mut wire, &req, &mut buf).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap().expect("one frame");
        assert_eq!(Request::decode(&payload).unwrap(), req);
        // And a clean EOF after it.
        let mut rest = &wire[wire.len()..];
        assert!(read_frame(&mut rest).unwrap().is_none());
    }

    #[test]
    fn oversized_header_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(ProtoError::Oversized { declared }) => assert_eq!(declared, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn fault_classification_splits_transport_from_corruption() {
        assert!(ProtoError::Truncated.is_retryable());
        assert!(ProtoError::TimedOut.is_retryable());
        assert!(ProtoError::Io(std::io::Error::other("reset")).is_retryable());
        assert!(!ProtoError::CrcMismatch.is_retryable());
        assert!(!ProtoError::Oversized { declared: 9 }.is_retryable());
        assert!(!ProtoError::Malformed("x").is_retryable());
        assert!(ErrorCode::Capacity.is_retryable());
        assert!(ErrorCode::IdleTimeout.is_retryable());
        assert!(ErrorCode::Conflict.is_retryable());
        assert!(!ErrorCode::Storage.is_retryable());
        assert!(!ErrorCode::ShuttingDown.is_retryable());
    }

    #[test]
    fn txn_messages_roundtrip() {
        for req in [Request::Begin, Request::Commit, Request::Rollback] {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
        let resp = Response::TxnBegun { txn: 42 };
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        assert_eq!(Response::decode(&payload).unwrap(), resp);
        let resp = Response::Error { code: ErrorCode::Conflict, message: "pk 7".into() };
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn idle_timeout_error_code_roundtrips() {
        let resp = Response::Error { code: ErrorCode::IdleTimeout, message: "reaped".into() };
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        assert_eq!(Response::decode(&payload).unwrap(), resp);
        // Socket-timeout io errors map onto the typed variant.
        let e: ProtoError = std::io::Error::from(std::io::ErrorKind::WouldBlock).into();
        assert!(matches!(e, ProtoError::TimedOut));
        let e: ProtoError = std::io::Error::from(std::io::ErrorKind::TimedOut).into();
        assert!(matches!(e, ProtoError::TimedOut));
    }

    #[test]
    fn crc_mismatch_is_typed() {
        let mut buf = Vec::new();
        let mut wire = Vec::new();
        send_request(&mut wire, &Request::Stats, &mut buf).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert!(matches!(read_frame(&mut wire.as_slice()), Err(ProtoError::CrcMismatch)));
    }
}
