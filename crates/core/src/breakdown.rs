//! Per-phase wall-clock accounting for lookups and inserts.
//!
//! Figures 10/11/14/15/22b/24b of the paper show where query and insert
//! time goes: TRS-Tree vs host index vs primary index vs base table. The
//! executor threads a [`LookupBreakdown`] through every lookup and a
//! [`InsertBreakdown`] through every insert, accumulating nanoseconds per
//! phase.

use std::time::{Duration, Instant};

/// Lookup pipeline phases (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// TRS-Tree search (Hermit only).
    TrsTree,
    /// Host-index range probes (Hermit) or secondary-index search
    /// (baseline).
    HostIndex,
    /// Primary-index resolution of logical tids (both methods, logical
    /// pointers only).
    PrimaryIndex,
    /// Base-table fetch + predicate validation.
    BaseTable,
}

impl Phase {
    /// Label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::TrsTree => "trs_tree",
            Phase::HostIndex => "host_index",
            Phase::PrimaryIndex => "primary_index",
            Phase::BaseTable => "base_table",
        }
    }
}

/// Accumulated per-phase lookup time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupBreakdown {
    /// Time in the TRS-Tree phase.
    pub trs_tree: Duration,
    /// Time probing the host (or baseline secondary) index.
    pub host_index: Duration,
    /// Time resolving logical tids through the primary index.
    pub primary_index: Duration,
    /// Time fetching and validating base-table tuples.
    pub base_table: Duration,
}

impl LookupBreakdown {
    /// Add a measured duration to a phase.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        match phase {
            Phase::TrsTree => self.trs_tree += d,
            Phase::HostIndex => self.host_index += d,
            Phase::PrimaryIndex => self.primary_index += d,
            Phase::BaseTable => self.base_table += d,
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &LookupBreakdown) {
        self.trs_tree += other.trs_tree;
        self.host_index += other.host_index;
        self.primary_index += other.primary_index;
        self.base_table += other.base_table;
    }

    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.trs_tree + self.host_index + self.primary_index + self.base_table
    }

    /// Per-phase shares in `[0, 1]`, ordered
    /// `(trs, host, primary, base)` — the stacked bars of the breakdown
    /// figures. All zeros if nothing was recorded.
    pub fn shares(&self) -> (f64, f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.trs_tree.as_secs_f64() / total,
            self.host_index.as_secs_f64() / total,
            self.primary_index.as_secs_f64() / total,
            self.base_table.as_secs_f64() / total,
        )
    }
}

/// Accumulated per-phase insert time (Fig. 22b's stacked bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertBreakdown {
    /// Base-table append (+ primary-index registration).
    pub table: Duration,
    /// Maintenance of pre-existing indexes (primary/host columns).
    pub existing_indexes: Duration,
    /// Maintenance of the newly-created indexes under test (baseline
    /// B+-trees or Hermit TRS-Trees).
    pub new_indexes: Duration,
}

impl InsertBreakdown {
    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &InsertBreakdown) {
        self.table += other.table;
        self.existing_indexes += other.existing_indexes;
        self.new_indexes += other.new_indexes;
    }

    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.table + self.existing_indexes + self.new_indexes
    }

    /// Shares `(table, existing, new)` in `[0, 1]`.
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.table.as_secs_f64() / total,
            self.existing_indexes.as_secs_f64() / total,
            self.new_indexes.as_secs_f64() / total,
        )
    }
}

/// The insert path's view of an optional [`InsertBreakdown`]: with none to
/// fill, it reads no clock — an insert pays for its phase timing only when
/// someone asked for it (`Database::insert_timed`).
pub(crate) struct InsertTimer<'a>(pub(crate) Option<&'a mut InsertBreakdown>);

impl InsertTimer<'_> {
    /// The start of a phase: the time, if it is being recorded.
    pub(crate) fn start(&self) -> Option<Instant> {
        self.0.is_some().then(Instant::now)
    }

    /// Charge the time since `start` to the phase `phase` picks.
    pub(crate) fn charge(
        &mut self,
        start: Option<Instant>,
        phase: impl FnOnce(&mut InsertBreakdown) -> &mut Duration,
    ) {
        if let (Some(breakdown), Some(start)) = (self.0.as_deref_mut(), start) {
            *phase(breakdown) += start.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = LookupBreakdown::default();
        b.add(Phase::TrsTree, Duration::from_millis(1));
        b.add(Phase::HostIndex, Duration::from_millis(2));
        b.add(Phase::PrimaryIndex, Duration::from_millis(3));
        b.add(Phase::BaseTable, Duration::from_millis(4));
        assert_eq!(b.total(), Duration::from_millis(10));
        let (t, h, p, base) = b.shares();
        assert!((t - 0.1).abs() < 1e-9);
        assert!((h - 0.2).abs() < 1e-9);
        assert!((p - 0.3).abs() < 1e-9);
        assert!((base - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_shares_are_zero() {
        assert_eq!(LookupBreakdown::default().shares(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(InsertBreakdown::default().shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LookupBreakdown::default();
        a.add(Phase::TrsTree, Duration::from_millis(5));
        let mut b = LookupBreakdown::default();
        b.add(Phase::TrsTree, Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.trs_tree, Duration::from_millis(12));

        let mut x = InsertBreakdown { table: Duration::from_millis(1), ..Default::default() };
        let y = InsertBreakdown { new_indexes: Duration::from_millis(2), ..Default::default() };
        x.merge(&y);
        assert_eq!(x.total(), Duration::from_millis(3));
    }

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::TrsTree.label(), "trs_tree");
        assert_eq!(Phase::BaseTable.label(), "base_table");
    }
}
