//! Analysis toolkit for the population stability reproduction.
//!
//! * [`stats`] — streaming summaries (Welford), Wilson confidence intervals,
//! * [`equilibrium`] — the exact finite-size equilibrium `m* = N − 8√N` of
//!   the one-epoch expected drift, and the drift model itself,
//! * [`drift`] — empirical measurement of the per-epoch restoring drift
//!   (Lemma 8),
//! * [`invariants`] — checkers for the bookkeeping lemmas (Lemmas 3–7)
//!   against recorded metrics,
//! * [`estimator`] — the variance-based population estimator implicit in
//!   §1.3.2 ("the population size is encoded in the variance of the
//!   distribution of colors"),
//! * [`report`] — fixed-width tables for the experiment harness.

pub mod drift;
pub mod equilibrium;
pub mod estimator;
pub mod invariants;
pub mod report;
pub mod stats;

pub use equilibrium::equilibrium_population;
pub use estimator::VarianceEstimator;
pub use invariants::InvariantReport;
pub use stats::Summary;
