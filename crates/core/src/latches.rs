//! The canonical latch hierarchy of the engine, stated three ways that
//! cannot drift apart: as data ([`LATCH_HIERARCHY`], [`LATCH_NESTING_EDGES`]),
//! as types ([`Held`], [`Below`], [`IoSafe`]) the compiler checks at every
//! acquisition, and as a debug-build runtime witness that records what
//! actually executes.
//!
//! # The order (outermost → innermost)
//!
//! | rank | latch | rank type | acquired via | held across I/O? |
//! |-----:|-------|-----------|--------------|------------------|
//! | 10 | durability quiesce | [`Quiesce`] | `quiesce.read_at()`, `quiesce.write_at()` | yes — the commit wait included |
//! | 20 | WAL guard | [`WalGuard`] | `wal.lock_at()`, inside `Durability::statement` | across the `write`, never across a commit wait |
//! | — | transaction visibility | [`Visibility`] | `read_visibility`, `write_visibility` | across the `write`, never across a commit wait |
//! | 40 | per-index latch, single-column and composite | [`Index`] | `tree.read_at()`, `tree.write_at()` | no |
//! | 50 | primary index | [`Primary`] | `primary.read_at()`, `primary.write_at()` | no |
//!
//! The heap has no rank: it is a paged table whose buffer-pool shard locks
//! are leaves (below). The visibility latch belongs to `hermit_txn`; it has
//! a rank type so the compiler orders it, but no level, so the witness does
//! not record it.
//!
//! A thread holding a latch of rank *r* may only acquire latches of rank
//! strictly greater than *r*. The load-bearing nestings, for the record:
//!
//! * **DML** (`Database::insert`, `delete_by_pk`, the `_txn`
//!   variants): quiesce (read) → WAL guard (`Durability::statement`), both
//!   held across the heap apply + WAL append; the apply step then takes
//!   the primary latch and each per-index latch — composite trees included —
//!   transiently, one at a time. The index registry changes only under
//!   `&mut Database` and has no latch. The WAL
//!   guard sits *above* the data latches deliberately — apply order and log
//!   order must be the same total order (see `Durability::statement` in
//!   [`crate::recovery`]), so the guard is taken before the first heap
//!   mutation, not at append time.
//! * **The commit wait** (`Durability::wait_durable`, reached from
//!   `Statement::commit_auto` / `force_commit` and `Database::wal_commit`):
//!   a commit point appends and `write`s under the WAL guard, **releases
//!   the guard**, and parks on its log position holding the quiesce latch
//!   alone — so a checkpoint's `reset` cannot run under a parked waiter,
//!   and nobody queues behind the fsync for the guard. A transaction commit
//!   takes the transaction manager's visibility latch only *after* the
//!   wait. The wait takes `&Held<Quiesce>`, which no code can borrow while
//!   a deeper latch acquired under the quiesce latch is still held, and
//!   debug builds assert it at the call too ([`assert_holding_at_most`]).
//! * **Checkpoint** (`Database::checkpoint`): quiesce (write) → WAL guard
//!   — the same top-of-hierarchy order as DML, which is exactly why the
//!   two cannot deadlock.
//! * **Reorganization** (`Database::maintenance_pass`): every
//!   Hermit tree, single-column or composite, runs the one Appendix-B
//!   protocol inside `ConcurrentTrsTree`; its tree latch and side-buffer
//!   mutex are leaves, and the rebuild's heap scan holds neither — a
//!   racing insert lands in the side buffer, not in a tree being rebuilt.
//! * **Query execution** (`Executor`): one latch at a time under the
//!   visibility latch. Candidate tids are copied out of the per-index
//!   guard, locations out of the primary guard, and only then is the heap
//!   visited — which is why `(40, 50)` is *not* declared in
//!   [`LATCH_NESTING_EDGES`].
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
//! # Ranks as types
//!
//! Every rank is a zero-sized type, and a [`Held<R>`] token says "the
//! innermost latch this code may hold ranks at `R`". A public entry point
//! starts from [`Held::unlocked`]. Acquiring a latch of rank `R` takes
//! `&mut Held<H>` with `H: Below<R>` and returns a [`Guard`] that owns the
//! token for the next level down; while the guard lives, the token it was
//! acquired with stays mutably borrowed. So, checked by the compiler:
//!
//! * a latch at or above the innermost held one cannot be acquired
//!   ([`Below`] is never implemented for a rank itself or anything
//!   deeper);
//! * device I/O that takes an [`IoSafe`] token cannot run while a data
//!   latch is held, and the commit wait, which takes `&Held<Quiesce>`,
//!   cannot run while anything below the quiesce latch is held.
//!
//! The tokenless [`LatchedRwLock::read`] / [`write`](LatchedRwLock::write)
//! and `Database::primary` stay public for callers outside the engine
//! (tests, benchmarks); inside this crate `clippy.toml` disallows them.
//!
//! # Runtime witness and the observed-edge export
//!
//! Dynamically, every engine latch is a [`LatchedRwLock`] /
//! [`LatchedMutex`] wrapper whose guards carry a [`HeldLatch`] token: in
//! debug builds each acquisition pushes its rank onto a thread-local
//! stack, records every `(held, acquired)` pair into a process-global set,
//! and panics (or counts, see [`set_witness_panic`]) when the new rank is
//! lower than one already held. [`Held::unlocked`] checks the stack is
//! empty, so an entry point entered under a latch is caught where the type
//! chain starts over. [`observed_nesting_edges`] exports the recorded set;
//! the `latch_witness` integration test drives the DML / query /
//! checkpoint / reorganization workloads and asserts it equals
//! [`LATCH_NESTING_EDGES`] exactly — so the types, the runtime behavior,
//! and this file cannot drift apart independently. Release builds compile
//! the bookkeeping out.
//!
//! # Changing the hierarchy
//!
//! Add or move a level in [`LATCH_HIERARCHY`] first, give it a rank type
//! and its [`Below`] rows, then make the code match: the compiler rejects
//! every acquisition the new order forbids. New load-bearing nestings must
//! also be added to [`LATCH_NESTING_EDGES`] and exercised by the
//! `latch_witness` test's workload, or the reconciliation fails.

use hermit_txn::TxnManager;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// One level of the engine-wide latch hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchLevel {
    /// Position in the order; lower = outer. Gaps are deliberate so a
    /// future level can slot in without renumbering.
    pub rank: u32,
    /// Stable human-readable name, used in diagnostics.
    pub name: &'static str,
    /// Whether this latch may be held across fsync / WAL-append calls.
    /// Only the top of the hierarchy is: the quiesce latch and the WAL
    /// guard exist precisely to bracket durable statements. Holding a data
    /// latch (heap, indexes) across device I/O stalls every reader behind
    /// an fsync; [`IoSafe`] states the same policy as a type. The WAL
    /// guard brackets the log's `write`, never the commit wait.
    pub io_safe: bool,
}

const QUIESCE: LatchLevel = LatchLevel { rank: 10, name: "durability-quiesce", io_safe: true };
const WAL_GUARD: LatchLevel = LatchLevel { rank: 20, name: "wal-guard", io_safe: true };
const INDEX: LatchLevel = LatchLevel { rank: 40, name: "secondary-index", io_safe: false };
const PRIMARY: LatchLevel = LatchLevel { rank: 50, name: "primary-index", io_safe: false };

/// The engine-wide latch hierarchy, outermost first. See the module docs
/// for the derivation; the rank types carry these levels.
pub const LATCH_HIERARCHY: &[LatchLevel] = &[QUIESCE, WAL_GUARD, INDEX, PRIMARY];

/// The nesting edges `(outer rank, inner rank)` the engine actually
/// exercises: acquiring the inner latch while the outer one is held.
///
/// This is deliberately **not** the full upper-triangle of
/// [`LATCH_HIERARCHY`] — a legal-by-rank nesting can be unreachable by
/// construction (no primary acquisition under a per-index latch). The
/// runtime witness records every nesting it observes, and the
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
    // * (40, 50) — the executor copies candidates out of each index guard
    //   before taking the next latch, so primary acquisitions never nest
    //   under another data latch, and a tree's writers never wait out a
    //   query's heap validation.
];

// ---------------------------------------------------------------------
// Ranks as types
// ---------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// A witnessed latch rank: its level in [`LATCH_HIERARCHY`].
pub trait Rank: sealed::Sealed {
    /// The level the witness records and reports.
    const LEVEL: &'static LatchLevel;
}

/// The root of every token chain: no latch held.
#[derive(Debug)]
pub struct Unlocked;
/// Rank 10, the durability quiesce latch.
#[derive(Debug)]
pub struct Quiesce;
/// Rank 20, the WAL guard.
#[derive(Debug)]
pub struct WalGuard;
/// The transaction manager's visibility latch: ordered between the WAL
/// guard and the per-index latches, not witnessed.
#[derive(Debug)]
pub struct Visibility;
/// Rank 40, a per-index latch.
#[derive(Debug)]
pub struct Index;
/// Rank 50, the primary index.
#[derive(Debug)]
pub struct Primary;

impl sealed::Sealed for Unlocked {}
impl sealed::Sealed for Quiesce {}
impl sealed::Sealed for WalGuard {}
impl sealed::Sealed for Visibility {}
impl sealed::Sealed for Index {}
impl sealed::Sealed for Primary {}

impl Rank for Quiesce {
    const LEVEL: &'static LatchLevel = &QUIESCE;
}
impl Rank for WalGuard {
    const LEVEL: &'static LatchLevel = &WAL_GUARD;
}
impl Rank for Index {
    const LEVEL: &'static LatchLevel = &INDEX;
}
impl Rank for Primary {
    const LEVEL: &'static LatchLevel = &PRIMARY;
}

/// `H: Below<R>`: code whose innermost held latch ranks at `H` may acquire
/// a latch of rank `R`. Implemented for [`Unlocked`] and every outer rank,
/// never for `R` itself: a same-rank re-acquisition is a self-deadlock.
///
/// Taking the per-index latch while the primary index is held does not
/// compile (rank 40 under rank 50):
///
/// ```compile_fail,E0277
/// # use hermit_core::latches::{Held, Index, LatchedRwLock, Primary, Quiesce};
/// # let quiesce = LatchedRwLock::<Quiesce, u32>::new(0);
/// # let index = LatchedRwLock::<Index, u32>::new(0);
/// # let primary = LatchedRwLock::<Primary, u32>::new(0);
/// let mut root = Held::unlocked();
/// let mut outer = primary.read_at(&mut root);
/// let inner = index.read_at(outer.held());
/// ```
///
/// The same nesting under the quiesce latch (rank 10) does:
///
/// ```
/// # use hermit_core::latches::{Held, Index, LatchedRwLock, Primary, Quiesce};
/// # let quiesce = LatchedRwLock::<Quiesce, u32>::new(0);
/// # let index = LatchedRwLock::<Index, u32>::new(0);
/// # let primary = LatchedRwLock::<Primary, u32>::new(0);
/// let mut root = Held::unlocked();
/// let mut outer = quiesce.read_at(&mut root);
/// let inner = index.read_at(outer.held());
/// ```
pub trait Below<R>: sealed::Sealed {}

macro_rules! below {
    ($inner:ty: $($outer:ty),+) => { $(impl Below<$inner> for $outer {})+ };
}
below!(Quiesce: Unlocked);
below!(WalGuard: Unlocked, Quiesce);
below!(Visibility: Unlocked, Quiesce, WalGuard);
below!(Index: Unlocked, Quiesce, WalGuard, Visibility);
below!(Primary: Unlocked, Quiesce, WalGuard, Visibility, Index);

/// Ranks that may be held across a log `write`: nothing, the quiesce latch,
/// the WAL guard and the visibility latch — the ranks whose
/// [`LatchLevel::io_safe`] is set, plus the unwitnessed visibility latch.
/// Device I/O takes `&Held<impl IoSafe>`; the commit wait asks for more,
/// `&Held<Quiesce>`.
///
/// An fsync under the primary index does not compile:
///
/// ```compile_fail,E0277
/// # use hermit_core::latches::{Held, IoSafe, LatchedMutex, LatchedRwLock, Primary, WalGuard};
/// # let wal = LatchedMutex::<WalGuard, Vec<u8>>::new(Vec::new());
/// # let primary = LatchedRwLock::<Primary, u32>::new(0);
/// fn sync_all<H: IoSafe>(_held: &Held<H>) {}
/// let mut root = Held::unlocked();
/// let outer = primary.write_at(&mut root);
/// sync_all(outer.token());
/// ```
///
/// Under the WAL guard, which brackets the append, it does:
///
/// ```
/// # use hermit_core::latches::{Held, IoSafe, LatchedMutex, LatchedRwLock, Primary, WalGuard};
/// # let wal = LatchedMutex::<WalGuard, Vec<u8>>::new(Vec::new());
/// # let primary = LatchedRwLock::<Primary, u32>::new(0);
/// fn sync_all<H: IoSafe>(_held: &Held<H>) {}
/// let mut root = Held::unlocked();
/// let outer = wal.lock_at(&mut root);
/// sync_all(outer.token());
/// ```
pub trait IoSafe: sealed::Sealed {}
impl IoSafe for Unlocked {}
impl IoSafe for Quiesce {}
impl IoSafe for WalGuard {}
impl IoSafe for Visibility {}

/// A token: the innermost latch the holder may hold ranks at `R`. Zero
/// sized; only [`Held::unlocked`] and latch acquisition make one.
///
/// A call that re-acquires a per-index latch while one is held does not
/// compile, however far down the call is:
///
/// ```compile_fail,E0277
/// # use hermit_core::latches::{Below, Held, Index, LatchedRwLock, Quiesce};
/// # let quiesce = LatchedRwLock::<Quiesce, ()>::new(());
/// # let index = LatchedRwLock::<Index, Vec<u32>>::new(Vec::new());
/// fn maintain<H: Below<Index>>(index: &LatchedRwLock<Index, Vec<u32>>, held: &mut Held<H>) {
///     index.write_at(held).push(1);
/// }
/// let mut root = Held::unlocked();
/// let mut outer = index.write_at(&mut root);
/// maintain(&index, outer.held());
/// ```
///
/// Holding the quiesce latch, an outer rank, across the same call does:
///
/// ```
/// # use hermit_core::latches::{Below, Held, Index, LatchedRwLock, Quiesce};
/// # let quiesce = LatchedRwLock::<Quiesce, ()>::new(());
/// # let index = LatchedRwLock::<Index, Vec<u32>>::new(Vec::new());
/// fn maintain<H: Below<Index>>(index: &LatchedRwLock<Index, Vec<u32>>, held: &mut Held<H>) {
///     index.write_at(held).push(1);
/// }
/// let mut root = Held::unlocked();
/// let mut outer = quiesce.read_at(&mut root);
/// maintain(&index, outer.held());
/// ```
#[derive(Debug)]
pub struct Held<R>(PhantomData<R>);

impl Held<Unlocked> {
    /// The root token of a public entry point. Debug builds check that the
    /// thread holds no latch (message: "latch witness"): an entry point
    /// entered under a latch would start a second, unordered chain.
    pub fn unlocked() -> Self {
        note_root();
        Held(PhantomData)
    }
}

impl<H> Held<H> {
    /// This token seen from a deeper rank `R`: it permits only what `H`
    /// already permits, so code written against a fixed rank (the apply
    /// step runs at [`Visibility`]) can be called from any outer one.
    pub fn weaken<R>(&mut self) -> &mut Held<R>
    where
        H: Below<R>,
    {
        // A token is zero-sized, so leaking a boxed one allocates nothing.
        Box::leak(Box::new(Held(PhantomData)))
    }
}

/// A held latch: the lock guard plus the token for the next level down.
/// While it lives, the token it was acquired with stays mutably borrowed.
/// Derefs through to the guarded value.
#[derive(Debug)]
pub struct Guard<'t, R, G> {
    guard: G,
    held: Held<R>,
    _outer: OuterBorrow<'t>,
}

/// The outer token's borrow. Its empty `Drop` makes dropping the guard a
/// use of `'t`, so the token stays borrowed for the guard's whole life,
/// not only up to the guard's last use.
#[derive(Debug)]
struct OuterBorrow<'t>(PhantomData<&'t mut ()>);

impl Drop for OuterBorrow<'_> {
    fn drop(&mut self) {}
}

/// A read guard of a [`LatchedRwLock`].
pub type ReadGuard<'t, 'l, R, T> = Guard<'t, R, Witnessed<RwLockReadGuard<'l, T>>>;
/// A write guard of a [`LatchedRwLock`].
pub type WriteGuard<'t, 'l, R, T> = Guard<'t, R, Witnessed<RwLockWriteGuard<'l, T>>>;

impl<'t, R, G> Guard<'t, R, G> {
    /// Wrap `guard`, just acquired at rank `R`, borrowing the outer token.
    pub(crate) fn new<H: Below<R>>(guard: G, _outer: &'t mut Held<H>) -> Self {
        Guard { guard, held: Held(PhantomData), _outer: OuterBorrow(PhantomData) }
    }

    /// The token for acquisitions nested under this latch.
    ///
    /// A device call that needs the WAL guard's token cannot run while a
    /// per-index latch acquired under it is still held:
    ///
    /// ```compile_fail,E0502
    /// # use hermit_core::latches::{Held, Index, IoSafe, LatchedMutex, LatchedRwLock, WalGuard};
    /// # let wal = LatchedMutex::<WalGuard, Vec<u8>>::new(Vec::new());
    /// # let index = LatchedRwLock::<Index, u32>::new(0);
    /// fn persist<H: IoSafe>(_held: &Held<H>) {}
    /// fn apply_all<H: IoSafe>(held: &Held<H>) { persist(held) }
    /// let mut root = Held::unlocked();
    /// let mut wal_guard = wal.lock_at(&mut root);
    /// let tree = index.write_at(wal_guard.held());
    /// apply_all(wal_guard.token());
    /// ```
    ///
    /// Releasing the per-index latch first compiles:
    ///
    /// ```
    /// # use hermit_core::latches::{Held, Index, IoSafe, LatchedMutex, LatchedRwLock, WalGuard};
    /// # let wal = LatchedMutex::<WalGuard, Vec<u8>>::new(Vec::new());
    /// # let index = LatchedRwLock::<Index, u32>::new(0);
    /// fn persist<H: IoSafe>(_held: &Held<H>) {}
    /// fn apply_all<H: IoSafe>(held: &Held<H>) { persist(held) }
    /// let mut root = Held::unlocked();
    /// let mut wal_guard = wal.lock_at(&mut root);
    /// drop(index.write_at(wal_guard.held()));
    /// apply_all(wal_guard.token());
    /// ```
    pub fn held(&mut self) -> &mut Held<R> {
        &mut self.held
    }

    /// Shared access to this latch's token: proof, for as long as it is
    /// borrowed, that nothing acquired under this latch is held.
    ///
    /// The commit wait under the WAL guard does not compile:
    ///
    /// ```compile_fail,E0502
    /// # use hermit_core::latches::{Held, LatchedMutex, LatchedRwLock, Quiesce, WalGuard};
    /// # let quiesce = LatchedRwLock::<Quiesce, ()>::new(());
    /// # let wal = LatchedMutex::<WalGuard, u64>::new(0);
    /// fn wait_durable(_pos: u64, _held: &Held<Quiesce>) {}
    /// let mut root = Held::unlocked();
    /// let mut q = quiesce.read_at(&mut root);
    /// let pos = wal.lock_at(q.held());
    /// wait_durable(0, q.token());
    /// ```
    ///
    /// Copying the position out and releasing the guard first compiles:
    ///
    /// ```
    /// # use hermit_core::latches::{Held, LatchedMutex, LatchedRwLock, Quiesce, WalGuard};
    /// # let quiesce = LatchedRwLock::<Quiesce, ()>::new(());
    /// # let wal = LatchedMutex::<WalGuard, u64>::new(0);
    /// fn wait_durable(_pos: u64, _held: &Held<Quiesce>) {}
    /// let mut root = Held::unlocked();
    /// let mut q = quiesce.read_at(&mut root);
    /// let pos = *wal.lock_at(q.held());
    /// wait_durable(0, q.token());
    /// ```
    pub fn token(&self) -> &Held<R> {
        &self.held
    }

    /// The lock guard and the token, apart: for a compound guard
    /// ([`crate::recovery`]'s `Statement`) that keeps both.
    pub(crate) fn detach(self) -> (G, Held<R>) {
        (self.guard, self.held)
    }
}

impl<R, G: Deref> Deref for Guard<'_, R, G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<R, G: DerefMut> DerefMut for Guard<'_, R, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// The shared side of the transaction manager's visibility latch, as a
/// [`Visibility`] guard.
pub(crate) fn read_visibility<'t, 'l, H: Below<Visibility>>(
    txns: &'l TxnManager,
    held: &'t mut Held<H>,
) -> Guard<'t, Visibility, RwLockReadGuard<'l, ()>> {
    #[expect(clippy::disallowed_methods, reason = "this is the ranked wrapper")]
    let guard = txns.read_visibility();
    Guard::new(guard, held)
}

/// The exclusive side of the transaction manager's visibility latch, as a
/// [`Visibility`] guard.
pub(crate) fn write_visibility<'t, 'l, H: Below<Visibility>>(
    txns: &'l TxnManager,
    held: &'t mut Held<H>,
) -> Guard<'t, Visibility, RwLockWriteGuard<'l, ()>> {
    #[expect(clippy::disallowed_methods, reason = "this is the ranked wrapper")]
    let guard = txns.write_visibility();
    Guard::new(guard, held)
}

// ---------------------------------------------------------------------
// Runtime lock-order witness
// ---------------------------------------------------------------------
//
// The rank types order acquisitions in the source; the witness below
// records what *actually executes*. Debug builds keep a thread-local stack
// of held ranks: every [`LatchedRwLock`] / [`LatchedMutex`] acquisition
// pushes its level, records a nesting edge per held rank, and — on a
// hierarchy violation (acquiring a rank lower than one already held, or
// taking a root token while holding anything) — panics (the default, used
// by tests) or bumps a process-wide counter (`set_witness_panic(false)`).
// Release builds compile the bookkeeping out; the wrappers degrade to the
// plain locks.
//
// `observed_nesting_edges()` exports the recorded edges so the
// `latch_witness` test can reconcile them against
// [`LATCH_NESTING_EDGES`]; the set is process-global, which is why that
// test lives in its own integration-test binary.

#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

    /// Count one violation; panic with `message` unless counting only.
    pub fn violation(message: impl FnOnce() -> String) {
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        if PANIC_ON_VIOLATION.load(Ordering::Relaxed) {
            panic!("latch witness: {}", message());
        }
    }
}

/// Pop-on-drop token recording one held latch level.
///
/// Field order in [`Witnessed`] puts the lock guard first, so the guard is
/// released before the token pops — the stack never claims a latch that a
/// waiter could already have been granted.
#[derive(Debug)]
pub struct HeldLatch {
    #[cfg_attr(
        not(debug_assertions),
        expect(dead_code, reason = "only the debug-build witness reads the rank")
    )]
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
                let stack: Vec<u32> = held.clone();
                drop(held);
                witness::violation(|| {
                    format!(
                        "acquiring `{}` (rank {}) while holding ranks {stack:?} — contradicts \
                         LATCH_HIERARCHY",
                        level.name, level.rank
                    )
                });
                held = h.borrow_mut();
            }
        }
        held.push(level.rank);
    });
    HeldLatch { rank: level.rank }
}

/// Debug builds: a root token is being taken; the thread must hold nothing.
fn note_root() {
    #[cfg(debug_assertions)]
    {
        let stack: Vec<u32> = witness::HELD.with(|h| h.borrow().clone());
        if !stack.is_empty() {
            witness::violation(|| {
                format!("an entry point started from `Unlocked` while holding ranks {stack:?}")
            });
        }
    }
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

/// An `RwLock` of rank `R`; acquisitions go through the runtime witness.
#[derive(Debug)]
pub struct LatchedRwLock<R, T> {
    inner: RwLock<T>,
    _rank: PhantomData<R>,
}

impl<R: Rank, T> LatchedRwLock<R, T> {
    pub fn new(value: T) -> Self {
        LatchedRwLock { inner: RwLock::new(value), _rank: PhantomData }
    }

    /// Shared access at rank `R`, nested under `held`.
    pub fn read_at<'t, H: Below<R>>(&self, held: &'t mut Held<H>) -> ReadGuard<'t, '_, R, T> {
        Guard::new(self.witnessed_read(), held)
    }

    /// Exclusive access at rank `R`, nested under `held`.
    pub fn write_at<'t, H: Below<R>>(&self, held: &'t mut Held<H>) -> WriteGuard<'t, '_, R, T> {
        Guard::new(self.witnessed_write(), held)
    }

    /// Shared access without a token: only the runtime witness checks the
    /// order. For callers outside the engine.
    pub fn read(&self) -> Witnessed<RwLockReadGuard<'_, T>> {
        self.witnessed_read()
    }

    /// Exclusive access without a token; see [`read`](Self::read).
    pub fn write(&self) -> Witnessed<RwLockWriteGuard<'_, T>> {
        self.witnessed_write()
    }

    fn witnessed_read(&self) -> Witnessed<RwLockReadGuard<'_, T>> {
        let guard = self.inner.read();
        Witnessed { guard, _held: note_acquire(R::LEVEL) }
    }

    fn witnessed_write(&self) -> Witnessed<RwLockWriteGuard<'_, T>> {
        let guard = self.inner.write();
        Witnessed { guard, _held: note_acquire(R::LEVEL) }
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

/// A `Mutex` of rank `R`; acquisitions go through the runtime witness.
#[derive(Debug)]
pub struct LatchedMutex<R, T> {
    inner: Mutex<T>,
    _rank: PhantomData<R>,
}

impl<R: Rank, T> LatchedMutex<R, T> {
    pub fn new(value: T) -> Self {
        LatchedMutex { inner: Mutex::new(value), _rank: PhantomData }
    }

    /// Lock at rank `R`, nested under `held`.
    pub fn lock_at<'t, H: Below<R>>(
        &self,
        held: &'t mut Held<H>,
    ) -> Guard<'t, R, Witnessed<MutexGuard<'_, T>>> {
        Guard::new(self.witnessed_lock(), held)
    }

    /// Lock without a token; see [`LatchedRwLock::read`].
    pub fn lock(&self) -> Witnessed<MutexGuard<'_, T>> {
        self.witnessed_lock()
    }

    fn witnessed_lock(&self) -> Witnessed<MutexGuard<'_, T>> {
        let guard = self.inner.lock();
        Witnessed { guard, _held: note_acquire(R::LEVEL) }
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
        let typed = [Quiesce::LEVEL, WalGuard::LEVEL, Index::LEVEL, Primary::LEVEL];
        assert!(typed.iter().copied().eq(LATCH_HIERARCHY), "rank types follow the declaration");
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
        let declared = |rank: u32| LATCH_HIERARCHY.iter().any(|l| l.rank == rank);
        for &(outer, inner) in LATCH_NESTING_EDGES {
            assert!(outer < inner, "edge ({outer}, {inner}) contradicts the hierarchy");
            assert!(declared(outer) && declared(inner), "edge ({outer}, {inner}) names a rank");
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the inversion the types refuse")]
    fn witness_records_edges_and_counts_violations() {
        // Debug-only semantics; in release the witness is compiled out.
        if !cfg!(debug_assertions) {
            return;
        }
        let quiesce = LatchedRwLock::<Quiesce, ()>::new(());
        let primary = LatchedRwLock::<Primary, u32>::new(0);
        let wal = LatchedMutex::<WalGuard, ()>::new(());
        {
            let mut root = Held::unlocked();
            let mut q = quiesce.read_at(&mut root);
            let mut w = wal.lock_at(q.held());
            let _p = primary.write_at(w.held());
        }
        let edges = observed_nesting_edges();
        assert!(edges.contains(&(10, 20)) && edges.contains(&(10, 50)));
        assert!(edges.contains(&(20, 50)));

        // Inversion with panicking disabled: counted, not fatal. The types
        // refuse this nesting, so it goes through the tokenless calls.
        set_witness_panic(false);
        let before = witness_violations();
        {
            let _p = primary.read();
            let _q = quiesce.read(); // rank 10 under rank 50: violation
            let _root = Held::unlocked(); // a root under a latch: violation
        }
        assert_eq!(witness_violations(), before + 2);
        set_witness_panic(true);
    }
}
