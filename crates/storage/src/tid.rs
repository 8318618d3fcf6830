//! Tuple identifiers and the two identifier schemes from §5.1 of the paper.
//!
//! Secondary indexes map key values to *tuple identifiers*. The paper
//! distinguishes:
//!
//! * **Physical pointers** — the identifier is a row location
//!   (`block + offset`), so the base table can be dereferenced directly, but
//!   every tuple move must patch every secondary index (PostgreSQL style).
//! * **Logical pointers** — the identifier is the tuple's primary key, so
//!   secondary lookups must take an extra hop through the primary index
//!   (MySQL/InnoDB style).
//!
//! Both schemes matter to Hermit's evaluation because the extra
//! primary-index hop dominates lookup cost under logical pointers
//! (Figs. 10/11/14/15). We encode either flavor in a single `u64`-sized
//! [`Tid`] so index structures are agnostic to the scheme in play.

/// Physical row location: the heap page holding the row and its slot in
/// that page — the paper's `blockID+offset` format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowLoc {
    /// Heap page containing the row.
    pub block: u32,
    /// Slot of the row within its page.
    pub offset: u32,
}

impl RowLoc {
    /// Construct from page and slot.
    #[inline]
    pub fn new(block: u32, offset: u32) -> Self {
        RowLoc { block, offset }
    }

    /// Pack into a `u64` (for storage inside a [`Tid`]).
    #[inline]
    pub fn encode(&self) -> u64 {
        ((self.block as u64) << 32) | self.offset as u64
    }

    /// Unpack from a `u64`.
    #[inline]
    pub fn decode(v: u64) -> Self {
        RowLoc { block: (v >> 32) as u32, offset: v as u32 }
    }
}

/// Which tuple-identifier scheme a database instance runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TidScheme {
    /// Identifiers are primary keys; secondary lookups resolve them through
    /// the primary index before touching the base table.
    Logical,
    /// Identifiers are `block+offset` row locations; secondary lookups go
    /// straight to the base table.
    Physical,
}

impl TidScheme {
    /// Short label used by the benchmark harness when printing series.
    pub fn label(&self) -> &'static str {
        match self {
            TidScheme::Logical => "logical",
            TidScheme::Physical => "physical",
        }
    }
}

/// An opaque tuple identifier: either an encoded [`RowLoc`] (physical) or a
/// primary-key integer (logical), depending on the database's [`TidScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

impl Tid {
    /// Build a physical tid from a row location.
    #[inline]
    pub fn from_loc(loc: RowLoc) -> Self {
        Tid(loc.encode())
    }

    /// Build a logical tid from a primary key. Keys are stored sign-mapped
    /// so that negative keys round-trip.
    #[inline]
    pub fn from_pk(pk: i64) -> Self {
        Tid(pk as u64)
    }

    /// Interpret the tid as a physical row location.
    #[inline]
    pub fn as_loc(&self) -> RowLoc {
        RowLoc::decode(self.0)
    }

    /// Interpret the tid as a logical primary key.
    #[inline]
    pub fn as_pk(&self) -> i64 {
        self.0 as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowloc_encoding_roundtrip() {
        for (block, offset) in [(0, 0), (0, 1), (1, 0), (7, 300), (u32::MAX, u32::MAX)] {
            let loc = RowLoc::new(block, offset);
            assert_eq!(RowLoc::decode(loc.encode()), loc);
        }
    }

    #[test]
    fn physical_roundtrip() {
        let loc = RowLoc::new(7, 123);
        let tid = Tid::from_loc(loc);
        assert_eq!(tid.as_loc(), loc);
    }

    #[test]
    fn logical_roundtrip_including_negative() {
        for pk in [0i64, 1, -1, i64::MAX, i64::MIN, 424242] {
            assert_eq!(Tid::from_pk(pk).as_pk(), pk);
        }
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(TidScheme::Logical.label(), "logical");
        assert_eq!(TidScheme::Physical.label(), "physical");
    }
}
