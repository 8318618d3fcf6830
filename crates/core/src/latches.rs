//! The canonical latch hierarchy of the engine — one machine-readable
//! declaration, consumed both by humans and by the `hermit-lint` static
//! analyzer (`crates/analysis`).
//!
//! Until this module existed, the lock order lived as prose in
//! [`crate::database`]'s module docs and in reviewer memory. Every rule
//! below is extracted from the real acquisition paths; `hermit-lint`'s
//! `latch-order` rule re-derives nested acquisitions from the source of
//! `crates/core` on every CI run and flags any nesting that contradicts
//! [`LATCH_HIERARCHY`].
//!
//! # The order (outermost → innermost)
//!
//! | rank | latch | acquired via | held across I/O? |
//! |-----:|-------|--------------|------------------|
//! | 10 | durability quiesce | `quiesce.read()`, `quiesce.write()` | yes — the commit wait included |
//! | 20 | WAL guard | `wal_guard()`, `wal.lock()` | across the `write`, never across a commit fsync |
//! | 30 | composite-index registry | `composites()`, `composites_mut()`, `composites.read()`, `composites.write()` | no |
//! | 40 | per-index latch | `tree.read()`, `tree.write()`, `host_tree.read()` | no |
//! | 50 | primary index | `primary()`, `primary.read()`, `primary.write()` | no |
//!
//! The heap has no rank: it is a paged table whose buffer-pool shard locks
//! are leaves (below).
//!
//! A thread holding a latch of rank *r* may only acquire latches of rank
//! strictly greater than *r*. The load-bearing nestings, for the record:
//!
//! * **DML** (`Database::insert`, `delete_by_pk`, the `_txn`
//!   variants): quiesce (read) → WAL guard (`Durability::statement`), both
//!   held across the heap apply + WAL append; the apply step then takes
//!   heap / primary / per-index latches transiently, and the registry latch
//!   only on a database that owns a composite index. The WAL
//!   guard sits *above* the data latches deliberately — apply order and log
//!   order must be the same total order (see `Durability::wal_guard` in
//!   [`crate::recovery`]), so the guard is taken before the first heap
//!   mutation, not at append time.
//! * **The commit wait** (`Durability::wait_durable`, reached from
//!   `Statement::commit_auto` / `force_commit` and `Database::wal_commit`):
//!   a commit point appends and `write`s under the WAL guard, **releases
//!   the guard**, and parks on its log position holding the quiesce latch
//!   alone — so a checkpoint's `reset` cannot run under a parked waiter,
//!   and nobody queues behind the fsync for the guard. A transaction commit
//!   takes the transaction manager's visibility latch only *after* the
//!   wait. `hermit-lint` flags `wait_durable` (directly or through calls)
//!   under the WAL guard or a visibility guard, and debug builds assert it
//!   at the call ([`assert_holding_at_most`]).
//! * **Checkpoint** (`Database::checkpoint`): quiesce (write) → WAL guard
//!   — the same top-of-hierarchy order as DML, which is exactly why the
//!   two cannot deadlock.
//! * **Composite reorganization** (`SharedDatabase::maintenance_pass`):
//!   the registry's write latch is held across the rebuild's heap scan so a
//!   racing insert cannot be erased; the scan takes only pool shard locks.
//! * **Query execution** (`Executor`): one latch at a time. Candidate
//!   tids are copied out of the per-index guard, locations out of the
//!   primary guard, and only then is the heap visited — which is why
//!   `(40, 50)` is *not* declared in [`LATCH_NESTING_EDGES`].
//!
//! Latches *internal* to one component (buffer-pool shards, the
//! `ConcurrentTrsTree` node latches, the transaction-table mutex) are
//! leaves: they are acquired last, never nest with each other across
//! components, and are not part of this declaration.
//!
//! One leaf reaches the device on purpose, and the edge is declared here
//! rather than allow-listed: a **buffer-pool shard lock → WAL-tail fsync**.
//! A shard lock is held across the write-back of a dirty victim, and —
//! WAL before data — across [`WalTail::make_durable`] just before it. The
//! tail is a file handle, atomics and the fsync's own leader/follower
//! state, and takes no latch, least of all the WAL guard, so the edge ends
//! at the device and cannot close a cycle: a statement holding the WAL
//! guard may wait for a shard lock whose holder is in that fsync — or
//! parked behind the commit point that leads it, which holds no latch
//! another thread can be waiting for but the quiesce read side — and the
//! holder never waits for the guard.
//!
//! [`WalTail::make_durable`]: hermit_storage::wal::WalTail::make_durable
//!
//! # Runtime witness and the observed-edge export
//!
//! The declaration is enforced twice. Statically, `hermit-lint` re-derives
//! nestings from source (including across calls — the `latch-order-ip`
//! rule). Dynamically, every engine latch is a [`LatchedRwLock`] /
//! [`LatchedMutex`] wrapper whose guards carry a [`HeldLatch`] token: in
//! debug builds each acquisition pushes its rank onto a thread-local
//! stack, records every `(held, acquired)` pair into a process-global set,
//! and panics (or counts, see [`set_witness_panic`]) when the new rank is
//! lower than one already held. [`observed_nesting_edges`] exports the
//! recorded set; the `latch_witness` integration test drives the DML /
//! query / checkpoint / reorganization workloads and asserts it equals
//! [`LATCH_NESTING_EDGES`] exactly — so the static model, the runtime
//! behavior, and this file cannot drift apart independently. Release
//! builds compile the bookkeeping out.
//!
//! # Changing the hierarchy
//!
//! Add or move a level here first, then make the code match. `hermit-lint`
//! resolves acquisitions lexically (receiver name / guard-returning method
//! name, per the `receivers`/`methods` fields), so a new latch must carry
//! a recognizable field or method name and be declared below, or the
//! analyzer will not see it. New load-bearing nestings must also be added
//! to [`LATCH_NESTING_EDGES`] and exercised by the `latch_witness` test's
//! workload, or CI fails the reconciliation.

/// One level of the engine-wide latch hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchLevel {
    /// Position in the order; lower = outer. Gaps are deliberate so a
    /// future level can slot in without renumbering.
    pub rank: u32,
    /// Stable human-readable name, used in diagnostics.
    pub name: &'static str,
    /// Final path segment of receivers whose `.read()` / `.write()` /
    /// `.lock()` acquires this latch (`self.primary.write()` → `primary`).
    pub receivers: &'static [&'static str],
    /// Guard-returning no-argument methods that acquire this latch
    /// (`d.wal_guard()` → `wal_guard`).
    pub methods: &'static [&'static str],
    /// Whether this latch may be held across fsync / WAL-append calls.
    /// Only the top of the hierarchy is: the quiesce latch and the WAL
    /// guard exist precisely to bracket durable statements. Holding a data
    /// latch (heap, indexes) across device I/O stalls every reader behind
    /// an fsync and is flagged by `hermit-lint`'s `latch-hold-io` rule.
    /// The same rule holds the WAL guard to one exception: it brackets the
    /// log's `write`, never the commit wait (`wait_durable`).
    pub io_safe: bool,
}

/// The engine-wide latch hierarchy, outermost first. See the module docs
/// for the derivation; `hermit-lint` enforces it over `crates/core`.
pub const LATCH_HIERARCHY: &[LatchLevel] = &[
    LatchLevel {
        rank: 10,
        name: "durability-quiesce",
        receivers: &["quiesce"],
        methods: &[],
        io_safe: true,
    },
    LatchLevel {
        rank: 20,
        name: "wal-guard",
        receivers: &["wal"],
        methods: &["wal_guard"],
        io_safe: true,
    },
    LatchLevel {
        rank: 30,
        name: "composite-registry",
        receivers: &["composites"],
        methods: &["composites", "composites_mut"],
        io_safe: false,
    },
    LatchLevel {
        rank: 40,
        name: "secondary-index",
        receivers: &["tree", "host_tree"],
        methods: &[],
        io_safe: false,
    },
    LatchLevel {
        rank: 50,
        name: "primary-index",
        receivers: &["primary"],
        methods: &["primary"],
        io_safe: false,
    },
];

/// Look up a hierarchy level by receiver name.
pub fn level_for_receiver(recv: &str) -> Option<&'static LatchLevel> {
    LATCH_HIERARCHY.iter().find(|l| l.receivers.contains(&recv))
}

/// Look up a hierarchy level by guard-returning method name.
pub fn level_for_method(method: &str) -> Option<&'static LatchLevel> {
    LATCH_HIERARCHY.iter().find(|l| l.methods.contains(&method))
}

/// Look up a hierarchy level by rank. Panics on an undeclared rank — the
/// ranks are compile-time constants at every call site, so a miss is a
/// programming error, not a runtime condition.
pub fn level(rank: u32) -> &'static LatchLevel {
    LATCH_HIERARCHY
        .iter()
        .find(|l| l.rank == rank)
        .unwrap_or_else(|| panic!("rank {rank} is not declared in LATCH_HIERARCHY"))
}

/// The nesting edges `(outer rank, inner rank)` the engine actually
/// exercises: acquiring the inner latch while the outer one is held.
///
/// This is deliberately **not** the full upper-triangle of
/// [`LATCH_HIERARCHY`] — some legal-by-rank nestings are unreachable by
/// construction (a durable database owns no composite index, the per-index
/// tree latch is never taken under the registry write latch,
/// …). The runtime witness records every nesting it observes, and the
/// `latch_witness` integration test asserts set equality both ways: an
/// edge observed at runtime but missing here fails (undeclared nesting),
/// and an edge declared here but never observed fails (the stress
/// workloads stopped exercising a load-bearing path, or the edge is
/// fiction). Keep this list sorted.
pub const LATCH_NESTING_EDGES: &[(u32, u32)] = &[
    (10, 20), // DML + checkpoint: quiesce, then the WAL guard
    (10, 40), // durable DML: per-index maintenance under quiesce + WAL guard
    (10, 50), // durable DML: primary-index maintenance under the brackets
    (20, 40), // same apply steps, seen from under the WAL guard
    (20, 50),
    // Absent on purpose, per the reconciliation test:
    // * (10, 30) / (20, 30) — DML learns whether the registry holds an index
    //   from a flag set under `&mut self`, not by probing it, and a durable
    //   database owns no composite index, so durable DML never takes the
    //   registry.
    // * (30, 40) / (30, 50) — composite maintenance and reorganization touch
    //   only the registry's own trees and the heap, whose pool shard locks
    //   are leaves.
    // * (40, 50) — the executor copies candidates out of each index guard
    //   before taking the next latch, so primary acquisitions never nest
    //   under another data latch, and a tree's writers never wait out a
    //   query's heap validation.
];

// ---------------------------------------------------------------------
// Runtime lock-order witness
// ---------------------------------------------------------------------
//
// The static analyzer (`hermit-lint`) re-derives nestings lexically; the
// witness below records what *actually executes*. Debug builds keep a
// thread-local stack of held ranks: every [`LatchedRwLock`] /
// [`LatchedMutex`] acquisition pushes its level, records a nesting edge
// per held rank, and — on a hierarchy violation (acquiring a rank lower
// than one already held) — panics (the default, used by tests) or bumps a
// process-wide counter (`set_witness_panic(false)`). Release builds
// compile the bookkeeping out; the wrappers degrade to the plain locks.
//
// `observed_nesting_edges()` exports the recorded edges so the
// `latch_witness` test can reconcile them against
// [`LATCH_NESTING_EDGES`]; the set is process-global, which is why that
// test lives in its own integration-test binary.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;

    thread_local! {
        /// Ranks of latches this thread currently holds, in acquisition
        /// order. Duplicates are legal (two heap tables, re-entrant
        /// same-rank reads); release removes the most recent occurrence.
        pub static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// Every `(outer, inner)` nesting observed process-wide.
    pub static OBSERVED: Mutex<BTreeSet<(u32, u32)>> = Mutex::new(BTreeSet::new());
    /// Hierarchy violations seen while panicking was disabled.
    pub static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
    /// Whether a violation panics (tests) or only counts.
    pub static PANIC_ON_VIOLATION: AtomicBool = AtomicBool::new(true);
}

/// Pop-on-drop token recording one held latch level.
///
/// Field order in [`Witnessed`] puts the lock guard first, so the guard is
/// released before the token pops — the stack never claims a latch that a
/// waiter could already have been granted.
#[derive(Debug)]
pub struct HeldLatch {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: u32,
}

impl Drop for HeldLatch {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        witness::HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|&r| r == self.rank) {
                held.remove(i);
            }
        });
    }
}

/// Record an acquisition on the witness stack; returns the pop token.
fn note_acquire(level: &'static LatchLevel) -> HeldLatch {
    #[cfg(debug_assertions)]
    witness::HELD.with(|h| {
        let mut held = h.borrow_mut();
        if !held.is_empty() {
            {
                let mut obs = witness::OBSERVED.lock().unwrap_or_else(|e| e.into_inner());
                for &r in held.iter() {
                    if r != level.rank {
                        obs.insert((r, level.rank));
                    }
                }
            }
            if held.iter().any(|&r| level.rank < r) {
                use std::sync::atomic::Ordering;
                witness::VIOLATIONS.fetch_add(1, Ordering::Relaxed);
                if witness::PANIC_ON_VIOLATION.load(Ordering::Relaxed) {
                    let stack: Vec<u32> = held.clone();
                    drop(held);
                    panic!(
                        "latch witness: acquiring `{}` (rank {}) while holding ranks {stack:?} \
                         — contradicts LATCH_HIERARCHY",
                        level.name, level.rank
                    );
                }
            }
        }
        held.push(level.rank);
    });
    HeldLatch { rank: level.rank }
}

/// The nesting edges `(outer, inner)` observed so far in this process,
/// sorted. Always empty in release builds (the witness is compiled out).
pub fn observed_nesting_edges() -> Vec<(u32, u32)> {
    #[cfg(debug_assertions)]
    {
        witness::OBSERVED.lock().unwrap_or_else(|e| e.into_inner()).iter().copied().collect()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Hierarchy violations recorded while panicking was disabled. Always 0 in
/// release builds.
pub fn witness_violations() -> u64 {
    #[cfg(debug_assertions)]
    {
        use std::sync::atomic::Ordering;
        witness::VIOLATIONS.load(Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Debug builds: panic if this thread holds a latch ranked past `rank`
/// (deeper in the hierarchy). The commit wait calls it with the quiesce
/// latch's rank: parking on an fsync with the WAL guard (or any data latch)
/// held would stall every other statement behind the device. No-op in
/// release builds.
pub fn assert_holding_at_most(rank: u32, what: &str) {
    #[cfg(debug_assertions)]
    witness::HELD.with(|h| {
        let held = h.borrow();
        assert!(
            held.iter().all(|&r| r <= rank),
            "latch witness: {what} entered while holding ranks {held:?}; nothing ranked past \
             {rank} may be held there"
        );
    });
    #[cfg(not(debug_assertions))]
    {
        let _ = (rank, what);
    }
}

/// Choose whether a violation panics (default, what the test suites want)
/// or only increments [`witness_violations`]. No-op in release builds.
pub fn set_witness_panic(panic_on_violation: bool) {
    #[cfg(debug_assertions)]
    {
        use std::sync::atomic::Ordering;
        witness::PANIC_ON_VIOLATION.store(panic_on_violation, Ordering::Relaxed);
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = panic_on_violation;
    }
}

/// A lock guard plus its witness token. Derefs straight through to the
/// guarded value, so `db.primary().get(pk)` and `&tree.read()` keep
/// working unchanged at every call site.
#[derive(Debug)]
pub struct Witnessed<G> {
    // Declaration order is load-bearing: the guard drops (releasing the
    // lock) before the token pops the witness stack.
    guard: G,
    _held: HeldLatch,
}

impl<G: Deref> Deref for Witnessed<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Witnessed<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// An `RwLock` pinned to one [`LatchLevel`]; acquisitions go through the
/// runtime witness.
#[derive(Debug)]
pub struct LatchedRwLock<T> {
    level: &'static LatchLevel,
    inner: RwLock<T>,
}

impl<T> LatchedRwLock<T> {
    pub fn new(level: &'static LatchLevel, value: T) -> Self {
        LatchedRwLock { level, inner: RwLock::new(value) }
    }

    pub fn read(&self) -> Witnessed<RwLockReadGuard<'_, T>> {
        let guard = self.inner.read();
        Witnessed { guard, _held: note_acquire(self.level) }
    }

    pub fn write(&self) -> Witnessed<RwLockWriteGuard<'_, T>> {
        let guard = self.inner.write();
        Witnessed { guard, _held: note_acquire(self.level) }
    }

    /// Exclusive access without locking — no latch is acquired, so the
    /// witness stays out of it.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// A `Mutex` pinned to one [`LatchLevel`]; acquisitions go through the
/// runtime witness.
#[derive(Debug)]
pub struct LatchedMutex<T> {
    level: &'static LatchLevel,
    inner: Mutex<T>,
}

impl<T> LatchedMutex<T> {
    pub fn new(level: &'static LatchLevel, value: T) -> Self {
        LatchedMutex { level, inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> Witnessed<MutexGuard<'_, T>> {
        let guard = self.inner.lock();
        Witnessed { guard, _held: note_acquire(self.level) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_strictly_increase_and_names_are_unique() {
        for w in LATCH_HIERARCHY.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} must rank above {}", w[0].name, w[1].name);
        }
        let mut names: Vec<_> = LATCH_HIERARCHY.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LATCH_HIERARCHY.len());
    }

    #[test]
    fn receivers_and_methods_are_unambiguous() {
        let mut seen = std::collections::BTreeSet::new();
        for l in LATCH_HIERARCHY {
            for r in l.receivers {
                assert!(seen.insert(("recv", *r)), "receiver {r} mapped twice");
            }
            for m in l.methods {
                assert!(seen.insert(("method", *m)), "method {m} mapped twice");
            }
        }
    }

    #[test]
    fn only_the_statement_brackets_are_io_safe() {
        for l in LATCH_HIERARCHY {
            assert_eq!(l.io_safe, l.rank <= 20, "{} io_safe flag out of policy", l.name);
        }
    }

    #[test]
    fn nesting_edges_are_sorted_declared_and_downward() {
        assert!(LATCH_NESTING_EDGES.windows(2).all(|w| w[0] < w[1]), "edges must be sorted");
        for &(outer, inner) in LATCH_NESTING_EDGES {
            assert!(outer < inner, "edge ({outer}, {inner}) contradicts the hierarchy");
            level(outer);
            level(inner);
        }
    }

    #[test]
    fn witness_records_edges_and_counts_violations() {
        // Debug-only semantics; in release the witness is compiled out.
        if !cfg!(debug_assertions) {
            return;
        }
        let quiesce = LatchedRwLock::new(level(10), ());
        let primary = LatchedRwLock::new(level(50), 0u32);
        let wal = LatchedMutex::new(level(20), ());
        {
            let _q = quiesce.read();
            let _w = wal.lock();
            let _p = primary.write();
        }
        let edges = observed_nesting_edges();
        assert!(edges.contains(&(10, 20)) && edges.contains(&(10, 50)));
        assert!(edges.contains(&(20, 50)));

        // Inversion with panicking disabled: counted, not fatal.
        set_witness_panic(false);
        let before = witness_violations();
        {
            let _p = primary.read();
            let _q = quiesce.read(); // rank 10 under rank 50: violation
        }
        assert_eq!(witness_violations(), before + 1);
        set_witness_panic(true);
    }
}
