//! Fault plans: *what* to inject and *when*, replayable from a seed.
//!
//! A [`FaultPlan`] answers one question for every page I/O a
//! [`StoreFaults`](crate::StoreFaults) hook sees: should this, the `nth`
//! operation of its kind, fail — and how? Two modes:
//!
//! * **Explicit** — a list of [`PlannedFault`]s naming exact (operation,
//!   ordinal) sites. Deterministic by construction; used for pinpoint
//!   regression tests ("EIO on the 3rd page write").
//! * **Seeded** — per-operation fault probabilities drawn from an
//!   [`StdRng`] seeded with a single `u64`. Any failing schedule is
//!   replayable by reporting the seed alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operation class a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A page read.
    Read,
    /// A page write.
    Write,
    /// A store-level fsync.
    Sync,
}

/// How an operation fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The operation returns an I/O error (EIO).
    Eio,
    /// The operation reports success but performs nothing — a dropped
    /// write or a lying fsync.
    Drop,
    /// A torn write: only the first `keep` bytes of the page reach the
    /// device, the rest keeps its previous content. Reads and syncs treat
    /// this as [`Eio`](FaultKind::Eio).
    Torn {
        /// Bytes of the new page image that survive.
        keep: usize,
    },
}

/// One explicitly planned fault: the `nth` (0-based) operation of class
/// `op` fails as `kind`. Each planned fault fires at most once.
#[derive(Debug, Clone)]
pub struct PlannedFault {
    /// Operation class this fault arms.
    pub op: FaultOp,
    /// 0-based ordinal of the operation within its class.
    pub nth: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

/// Per-operation fault probabilities for seeded plans.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Probability of an EIO per operation.
    pub eio: f64,
    /// Probability of a silent drop per write/sync.
    pub drop: f64,
    /// Probability of a torn write per write.
    pub torn: f64,
}

impl FaultRates {
    /// No faults at all (useful as a base for struct update syntax).
    pub const NONE: FaultRates = FaultRates { eio: 0.0, drop: 0.0, torn: 0.0 };
}

enum Mode {
    None,
    Explicit(Vec<PlannedFault>),
    Seeded { rng: StdRng, rates: FaultRates },
}

/// Decides, deterministically, whether each forwarded operation fails.
pub struct FaultPlan {
    mode: Mode,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        FaultPlan { mode: Mode::None }
    }

    /// An explicit site list (see [`PlannedFault`]).
    pub fn explicit(faults: Vec<PlannedFault>) -> Self {
        FaultPlan { mode: Mode::Explicit(faults) }
    }

    /// A seeded random plan: every run with the same `seed` and `rates`
    /// injects the identical fault schedule.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { mode: Mode::Seeded { rng: StdRng::seed_from_u64(seed), rates } }
    }

    /// Should the `nth` operation of class `op` fail? Consumes the fault
    /// (explicit mode) or one RNG draw (seeded mode).
    pub fn decide(&mut self, op: FaultOp, nth: u64) -> Option<FaultKind> {
        match &mut self.mode {
            Mode::None => None,
            Mode::Explicit(faults) => {
                let hit = faults.iter().position(|f| f.op == op && f.nth == nth)?;
                Some(faults.swap_remove(hit).kind)
            }
            Mode::Seeded { rng, rates } => {
                // One draw per operation keeps the schedule a pure function
                // of (seed, operation sequence).
                let r: f64 = rng.gen_range(0.0..1.0);
                if r < rates.eio {
                    Some(FaultKind::Eio)
                } else if r < rates.eio + rates.drop && op != FaultOp::Read {
                    Some(FaultKind::Drop)
                } else if r < rates.eio + rates.drop + rates.torn && op == FaultOp::Write {
                    Some(FaultKind::Torn {
                        keep: rng.gen_range(1..hermit_storage::paged::PAGE_SIZE),
                    })
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_fires_once_at_the_named_site() {
        let mut plan = FaultPlan::explicit(vec![PlannedFault {
            op: FaultOp::Write,
            nth: 2,
            kind: FaultKind::Eio,
        }]);
        assert_eq!(plan.decide(FaultOp::Write, 0), None);
        assert_eq!(plan.decide(FaultOp::Read, 2), None, "wrong op class must not fire");
        assert_eq!(plan.decide(FaultOp::Write, 2), Some(FaultKind::Eio));
        assert_eq!(plan.decide(FaultOp::Write, 2), None, "a planned fault fires at most once");
    }

    #[test]
    fn seeded_is_replayable() {
        let rates = FaultRates { eio: 0.2, drop: 0.2, torn: 0.2 };
        let schedule = |seed| {
            let mut plan = FaultPlan::seeded(seed, rates);
            (0..100).map(|n| plan.decide(FaultOp::Write, n)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(schedule(42), schedule(43), "different seeds must diverge");
        assert!(schedule(42).iter().any(|d| d.is_some()), "rates this high must inject");
    }

    #[test]
    fn none_never_fires() {
        let mut plan = FaultPlan::none();
        assert!((0..1000).all(|n| plan.decide(FaultOp::Sync, n).is_none()));
    }
}
