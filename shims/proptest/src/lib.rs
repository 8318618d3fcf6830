//! Workspace-local stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so this shim implements the
//! subset of proptest the repo's suites use: the [`strategy::Strategy`]
//! trait with
//! `prop_map`/`boxed`, strategies for numeric ranges, tuples, `Just`,
//! `any::<T>()`, `collection::vec`, `option::of`, `prop_oneof!`, and the
//! `proptest!` / `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Semantics versus upstream: generation is uniform-random and seeded
//! deterministically from the test function's name, so failures reproduce
//! run-to-run; there is **no shrinking** — a failing case reports the case
//! number and assertion message only. Each `#[test]` inside `proptest!`
//! runs `ProptestConfig::cases` generated cases (default 64).
#![warn(clippy::allow_attributes_without_reason)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections; only `vec` is provided.

    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// Generate a `Vec` whose elements come from `element` and whose length
    /// is drawn from `size` (a `usize`, or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod option {
    //! Strategies for `Option`; only `of` is provided.

    use crate::strategy::{OptionStrategy, Strategy};

    /// Generate `Some` from `inner` about 3/4 of the time, `None` otherwise
    /// (upstream's default `Option` weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}
