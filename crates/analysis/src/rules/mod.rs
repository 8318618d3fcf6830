//! The rule families. Each module documents its own model; the dispatch
//! (which files each family sees) lives in [`crate::analyze`].

pub mod fault;
pub mod hot_alloc;
