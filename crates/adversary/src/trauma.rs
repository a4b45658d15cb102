//! One-shot mass alteration events — the biological motivation of the paper
//! (injury, inflammation, hyper-proliferation).
//!
//! These events exceed the paper's per-round budget `K` by design: the
//! healing experiment (F6, `experiments healing`) asks how fast the protocol
//! *recovers* from a shock larger than what its stability guarantee covers.

use popstab_core::params::Params;
use popstab_core::state::AgentState;
use popstab_sim::{Adversary, Alteration, RoundContext, SimRng};

use crate::bulk::sample_distinct;

/// What the trauma does to the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraumaKind {
    /// Delete a fraction of all agents (injury / cell loss).
    Injury,
    /// Insert blank agents amounting to a fraction of the population
    /// (inflammation / excessive proliferation).
    Proliferation,
}

/// A single mass event at a fixed round, inert otherwise.
#[derive(Debug, Clone)]
pub struct Trauma {
    params: Params,
    kind: TraumaKind,
    fraction: f64,
    at_round: u64,
    fired: bool,
}

impl Trauma {
    /// Schedules a `kind` event touching `fraction` of the population at
    /// global round `at_round`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn new(params: Params, kind: TraumaKind, fraction: f64, at_round: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        Trauma {
            params,
            kind,
            fraction,
            at_round,
            fired: false,
        }
    }

    /// Whether the event has already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl Adversary<AgentState> for Trauma {
    fn name(&self) -> &'static str {
        match self.kind {
            TraumaKind::Injury => "trauma-injury",
            TraumaKind::Proliferation => "trauma-proliferation",
        }
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        _agents: &[AgentState],
        rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        if self.fired || ctx.round != self.at_round {
            return Vec::new();
        }
        self.fired = true;
        let count = (self.fraction * ctx.population as f64).round() as usize;
        match self.kind {
            TraumaKind::Injury => sample_distinct(ctx.population, count, rng)
                .into_iter()
                .map(Alteration::Delete)
                .collect(),
            TraumaKind::Proliferation => {
                let round = ctx.majority_round.unwrap_or(0);
                (0..count)
                    .map(|_| Alteration::Insert(AgentState::desynced(&self.params, round)))
                    .collect()
            }
        }
    }
    fn reads_states(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::rng::rng_from_seed;

    fn params() -> Params {
        Params::for_target(1024).unwrap()
    }

    fn ctx(round: u64, agents: &[AgentState]) -> RoundContext {
        RoundContext::observe(round, usize::MAX, 1024, agents)
    }

    #[test]
    fn injury_fires_once_at_the_scheduled_round() {
        let p = params();
        let agents = vec![AgentState::fresh(&p); 100];
        let mut adv = Trauma::new(p.clone(), TraumaKind::Injury, 0.3, 5);
        assert!(adv
            .act(&ctx(4, &agents), &[], &mut rng_from_seed(1))
            .is_empty());
        let hit = adv.act(&ctx(5, &agents), &[], &mut rng_from_seed(1));
        assert_eq!(hit.len(), 30);
        assert!(hit.iter().all(|a| a.is_delete()));
        assert!(adv.fired());
        assert!(adv
            .act(&ctx(5, &agents), &[], &mut rng_from_seed(1))
            .is_empty());
        assert!(adv
            .act(&ctx(6, &agents), &[], &mut rng_from_seed(1))
            .is_empty());
    }

    #[test]
    fn proliferation_inserts_blanks_at_majority_round() {
        let p = params();
        let agents = vec![AgentState::desynced(&p, 12); 50];
        let mut adv = Trauma::new(p.clone(), TraumaKind::Proliferation, 0.5, 0);
        let hit = adv.act(&ctx(0, &agents), &[], &mut rng_from_seed(2));
        assert_eq!(hit.len(), 25);
        for alt in hit {
            match alt {
                Alteration::Insert(s) => {
                    assert_eq!(s.round, 12);
                    assert!(!s.active);
                }
                other => panic!("expected insert, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn rejects_bad_fraction() {
        Trauma::new(params(), TraumaKind::Injury, 1.5, 0);
    }
}
