//! The storage substrate: a slotted-page heap behind a buffer pool.
//!
//! §7.8 of the paper integrates Hermit into PostgreSQL and shows that when
//! tuples live on secondary storage, (a) TRS-Tree lookup time is negligible
//! next to host-index and heap accesses, and (b) false-positive validation
//! takes a visible share of query time. Reproducing that regime requires a
//! storage engine where fetching a tuple costs a page access through a
//! buffer pool rather than a pointer dereference. The same heap over an
//! in-memory store, behind a pool that holds the whole table, is the
//! in-memory (DBMS-X) setting of the other experiments.
//!
//! This module provides exactly that substrate:
//!
//! * [`page::Page`] — an 8 KiB fixed-size page holding fixed-width records.
//! * [`io::PageStore`] — the backing store abstraction, with a real
//!   file-backed implementation ([`io::FilePageStore`]) and an in-memory one
//!   with a simulated per-miss latency ([`io::SimulatedPageStore`]) so the
//!   disk experiment is reproducible on any machine.
//! * [`buffer_pool::BufferPool`] — a clock-replacement buffer pool with hit
//!   and miss accounting, whose batches read a cold page's records through
//!   instead of loading the page unless a doorkeeper admits it.
//! * [`heap::PagedTable`] — a slotted table heap storing fixed-width numeric
//!   rows across pages.

pub mod buffer_pool;
pub mod heap;
pub mod io;
pub mod page;

pub use buffer_pool::{BufferPool, PoolStats};
pub use heap::{BatchBuffers, PagedTable};
pub use io::{FilePageStore, IoStats, PageRange, PageStore, SimulatedPageStore};
pub use page::{Page, PageId, PAGE_SIZE};
