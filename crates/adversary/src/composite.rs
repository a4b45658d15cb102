//! Combining adversaries.

use popstab_core::state::AgentState;
use popstab_sim::{Adversary, Alteration, RoundContext, SimRng};

/// Runs several sub-strategies each round, concatenating their alterations
/// in order. The engine's budget still applies to the *total*, so earlier
/// strategies have priority; deletions from different sub-strategies may
/// target the same index, in which case the engine deduplicates.
pub struct Composite {
    name: &'static str,
    parts: Vec<Box<dyn Adversary<AgentState>>>,
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composite")
            .field("name", &self.name)
            .field(
                "parts",
                &self.parts.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Composite {
    /// Combines `parts` under a display `name`.
    pub fn new(name: &'static str, parts: Vec<Box<dyn Adversary<AgentState>>>) -> Self {
        Composite { name, parts }
    }

    /// Number of sub-strategies.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether there are no sub-strategies.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Adversary<AgentState> for Composite {
    fn name(&self) -> &'static str {
        self.name
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        agents: &[AgentState],
        rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let mut out = Vec::new();
        for part in &mut self.parts {
            out.extend(part.act(ctx, agents, rng));
        }
        out
    }

    /// The state slice is read if any part reads it.
    fn reads_states(&self) -> bool {
        self.parts.iter().any(|part| part.reads_states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{ObliviousDeleter, RandomInserter};
    use popstab_core::params::Params;
    use popstab_sim::rng::rng_from_seed;

    #[test]
    fn composite_concatenates_in_order() {
        let p = Params::for_target(1024).unwrap();
        let mut adv = Composite::new(
            "combo",
            vec![
                Box::new(ObliviousDeleter::new(2)),
                Box::new(RandomInserter::new(p.clone(), 1)),
            ],
        );
        assert_eq!(adv.len(), 2);
        assert!(!adv.is_empty());
        let agents = vec![AgentState::fresh(&p); 10];
        let ctx = RoundContext::observe(0, 3, 1024, &agents);
        assert!(!adv.reads_states(), "no part reads states");
        let out = adv.act(&ctx, &[], &mut rng_from_seed(1));
        assert_eq!(out.len(), 3);
        assert!(out[0].is_delete() && out[1].is_delete() && out[2].is_insert());
        assert_eq!(adv.name(), "combo");
    }

    #[test]
    fn composite_reads_states_if_any_part_does() {
        let p = Params::for_target(1024).unwrap();
        let adv = Composite::new(
            "mixed",
            vec![
                Box::new(RandomInserter::new(p, 1)),
                Box::new(crate::LeaderSniper::new(1, None)),
            ],
        );
        assert!(adv.reads_states());
    }

    #[test]
    fn empty_composite_is_noop() {
        let p = Params::for_target(1024).unwrap();
        let mut adv = Composite::new("empty", vec![]);
        assert!(adv.is_empty());
        let agents = [AgentState::fresh(&p)];
        let ctx = RoundContext::observe(0, 3, 1024, &agents);
        assert!(adv.act(&ctx, &agents, &mut rng_from_seed(2)).is_empty());
    }
}
