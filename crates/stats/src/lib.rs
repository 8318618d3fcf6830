//! # hermit-stats
//!
//! Statistical / ML substrate for the Hermit reproduction:
//!
//! * [`ols`] — ordinary-least-squares simple linear regression, the model
//!   fitted inside every TRS-Tree leaf (§4.1 of the paper). Closed-form, one
//!   pass over the data.
//! * [`correlation`] — Pearson and Spearman coefficients used for
//!   correlation discovery (Appendix D.1): a DBA (or the discovery routine)
//!   screens candidate column pairs with these before building a TRS-Tree.
//! * [`svr`] — a from-scratch kernel Support Vector Regression trained by
//!   projected gradient descent on the dual, used by Table 1 to demonstrate
//!   why TRS-Tree leaves use OLS instead of heavier models.
//! * [`sampling`] — random-subset helpers for the sampling-based outlier
//!   pre-check of Appendix D.2.
#![warn(clippy::allow_attributes_without_reason)]

pub mod correlation;
pub mod ols;
pub mod sampling;
pub mod svr;

pub use correlation::{pearson, spearman};
pub use ols::LinearModel;
pub use svr::{Kernel, Svr, SvrParams};
