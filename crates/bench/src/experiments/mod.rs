//! One module per experiment; the `IDS` table of the `experiments` binary
//! (printed by `experiments --help`) maps each id to the claim it checks.

pub mod ablation;
pub mod accounting;
pub mod attack;
pub mod baselines;
pub mod bench;
pub mod drift;
pub mod equilibrium;
pub mod estimator;
pub mod gamma;
pub mod healing;
pub mod ksweep;
pub mod lemmas;
pub mod malice;
pub mod stability;
