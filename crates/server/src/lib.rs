//! # hermit-server
//!
//! The wire-protocol serving front end: everything between a TCP socket
//! and [`hermit_core::SharedDatabase`].
//!
//! PRs 4–5 made the engine concurrently servable and crash-safe, but only
//! for code that links it. This crate is the difference between a library
//! and a *system*: a process boundary, an admission-controlled serving
//! loop, and an exporter for every observability counter the engine keeps.
//! Three layers, each usable alone:
//!
//! * [`proto`] — `hermit_proto`, the length-prefixed CRC-framed binary
//!   protocol. Pure encode/decode, shared by both sides and the torn-frame
//!   tests.
//! * [`server`] — [`HermitServer`]: thread-per-connection serving over
//!   `std::net::TcpListener`, bounded by `max_connections`, with per-query
//!   deadlines, per-plan-kind latency histograms, a `Stats` text exporter,
//!   and graceful shutdown (drain → stop the §4.4 worker → final
//!   checkpoint).
//! * [`client`] — [`HermitClient`]: the blocking request/response client
//!   `hermit-cli` and the bench harness drive.
//!
//! The two binaries (`hermit-server`, `hermit-cli`) are thin argv shells
//! over these layers; see the repository README's "Server & observability"
//! section for the frame layout and a session transcript.
#![warn(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use, clippy::unused_result_ok))]

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod client;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod proto;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod server;

pub use client::{ClientConfig, ClientError, ClientResult, HermitClient};
pub use proto::{ErrorCode, FaultClass, ProtoError, Request, Response, MAX_FRAME};
pub use server::{HermitServer, ServerConfig, ServerMetrics};
