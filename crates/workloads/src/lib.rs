//! # hermit-workloads
//!
//! The three applications of the Hermit evaluation (§7.1, Appendix A),
//! generated synthetically with the same statistical structure the paper
//! describes, plus query generators for the selectivity sweeps.
//!
//! * [`synthetic`] — one table `(colA, colB, colC, colD)` where
//!   `colB = Fn(colC)` for a Linear or Sigmoid correlation function, with a
//!   configurable percentage of injected noise. Primary index on `colA`,
//!   host index on `colB`, experiments index `colC`.
//! * [`stock`] — a wide table of daily high/low prices for many stocks
//!   (near-linear high↔low correlation with occasional >50% jump outliers
//!   and NULL gaps).
//! * [`sensor`] — 16 gas-concentration sensor columns plus their average;
//!   each sensor is a *non-linear* monotone function of the average.
//! * [`queries`] — deterministic range/point query generators targeting a
//!   given selectivity.
//!
//! All generators are seeded and deterministic; table sizes are parameters
//! so benchmarks can run paper-scale or laptop-scale.
#![warn(clippy::allow_attributes_without_reason)]

pub mod queries;
pub mod sensor;
pub mod stock;
pub mod synthetic;

pub use queries::QueryGen;
pub use sensor::{build_sensor, SensorConfig};
pub use stock::{build_stock, StockConfig};
pub use synthetic::{build_synthetic, CorrelationKind, SyntheticConfig};
