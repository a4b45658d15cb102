//! Adversary strategies for the population stability problem.
//!
//! The paper's adversary (§2) observes the memory contents of every agent
//! and may insert agents with arbitrary state, delete arbitrary agents, or
//! modify agent memory — up to `K` operations per round. This crate
//! implements the concrete attacks the paper identifies as most dangerous,
//! plus generic churn and the one-shot "trauma" events used by the
//! biological-motivation experiments:
//!
//! * [`RandomDeleter`] / [`RandomInserter`] / [`Churn`] — bulk pressure,
//! * [`ObliviousDeleter`] — state-blind deletion (the weak adversary model
//!   under which Attempt 1 works), generic over the state type, so the
//!   baselines face it too,
//! * [`LeaderSniper`] — deletes leaders as soon as they are chosen, the
//!   attack that kills leader-election-style protocols (§1.3.1),
//! * [`ColorFlooder`] — inserts leaders of one fixed color to bias the
//!   color distribution (footnote 9),
//! * [`ClusterPoisoner`] — deletes active agents of the minority color to
//!   amplify color imbalance at evaluation time,
//! * [`DesyncInserter`] — inserts agents with wrong round counters to
//!   confuse the epoch clock (the attack Algorithm 7 defends against),
//! * [`DeviationAmplifier`] — pushes the population away from the target,
//!   whichever direction it is already drifting,
//! * [`Trauma`] — one-shot deletion/insertion of a large fraction of the
//!   population (injury / hyper-proliferation),
//! * [`Composite`] — round-robin combination of sub-strategies.
//!
//! The bulk strategies, the forgers and the trauma events decide from the
//! round context alone — the population size and the majority round the
//! engine puts in [`RoundContext`](popstab_sim::RoundContext) — and declare
//! [`reads_states`](popstab_sim::Adversary::reads_states) `false`, so a
//! resident columnar population is never transposed for them.
//! [`LeaderSniper`] and [`ClusterPoisoner`] pick victims by their state and
//! read the slice.

pub mod bulk;
pub mod composite;
pub mod targeted;
pub mod throttle;
pub mod trauma;

pub use bulk::{Churn, ObliviousDeleter, RandomDeleter, RandomInserter};
pub use composite::Composite;
pub use targeted::{
    ClusterPoisoner, ColorFlooder, DesyncInserter, DeviationAmplifier, LeaderSniper,
};
pub use throttle::Throttle;
pub use trauma::{Trauma, TraumaKind};

use popstab_core::state::AgentState;

/// The full attack suite at raw (per-round) budget `k`: every strategy the
/// paper's analysis must survive. At simulation scales you almost always
/// want [`throttled_suite`] instead — see [`throttle`] for why.
pub fn attack_suite(
    params: &popstab_core::params::Params,
    k: usize,
) -> Vec<Box<dyn popstab_sim::Adversary<AgentState>>> {
    use popstab_core::state::Color;
    vec![
        Box::new(RandomDeleter::new(k)),
        Box::new(RandomInserter::new(params.clone(), k)),
        Box::new(Churn::new(params.clone(), k)),
        Box::new(LeaderSniper::new(k, None)),
        Box::new(LeaderSniper::new(k, Some(Color::One))),
        Box::new(ColorFlooder::new(params.clone(), k, Color::Zero)),
        Box::new(ClusterPoisoner::new(k)),
        Box::new(DesyncInserter::new(params.clone(), k, 7)),
        Box::new(DeviationAmplifier::new(params.clone(), k)),
    ]
}

/// The attack suite metered to `k` alterations **per epoch** (the
/// scale-faithful budget; see [`throttle`]). Each strategy fires once per
/// epoch in round 1, right after leader selection — the protocol's most
/// sensitive moment.
pub fn throttled_suite(
    params: &popstab_core::params::Params,
    k: usize,
) -> Vec<Box<dyn popstab_sim::Adversary<AgentState>>> {
    let epoch = params.epoch_len();
    attack_suite(params, k)
        .into_iter()
        .map(|inner| {
            Box::new(Throttle::per_epoch(inner, epoch))
                as Box<dyn popstab_sim::Adversary<AgentState>>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_core::params::Params;
    use popstab_sim::protocols::Inert;
    use popstab_sim::{Engine, RoundContext, RunSpec, SimConfig};

    /// The majority round the adversaries forge with comes from the round
    /// context, which takes it from the agents' `round` fields.
    #[test]
    fn majority_round_of_empty_is_none() {
        let ctx = RoundContext::observe::<AgentState>(0, 1, 1024, &[]);
        assert_eq!((ctx.population, ctx.majority_round), (0, None));
    }

    #[test]
    fn majority_round_picks_mode() {
        let p = Params::for_target(1024).unwrap();
        let mut agents = vec![AgentState::desynced(&p, 7); 5];
        agents.push(AgentState::desynced(&p, 3));
        agents.push(AgentState::desynced(&p, 3));
        let ctx = RoundContext::observe(0, 1, 1024, &agents);
        assert_eq!((ctx.population, ctx.majority_round), (7, Some(7)));
    }

    #[test]
    fn attack_suite_is_nonempty_and_named() {
        let p = Params::for_target(1024).unwrap();
        let suite = attack_suite(&p, 3);
        assert!(suite.len() >= 8);
        let mut names: Vec<&str> = suite.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() >= 8, "strategy names should be distinct");
    }

    #[test]
    fn oblivious_deleter_shrinks_inert_population() {
        let cfg = SimConfig::builder()
            .seed(1)
            .adversary_budget(2)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, ObliviousDeleter::new(2), cfg, 20);
        engine.run(RunSpec::rounds(5), &mut ());
        assert_eq!(engine.population(), 10);
    }
}
