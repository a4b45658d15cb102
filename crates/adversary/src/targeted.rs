//! State-aware attacks: the adversary reads every agent's memory and strikes
//! at the protocol's structure.

use popstab_core::params::Params;
use popstab_core::state::{AgentState, Color};
use popstab_sim::{Adversary, Alteration, RoundContext, SimRng};

use crate::bulk::sample_distinct;

/// Deletes leaders as soon as they appear (optionally only leaders of one
/// color). This is the attack that breaks leader-election-based protocols
/// (§1.3.1, Attempt 1): here it merely nudges the leader count, because the
/// protocol selects `Θ(√N)` leaders and the budget is `N^{1/4−ε}`.
#[derive(Debug, Clone, Copy)]
pub struct LeaderSniper {
    k: usize,
    color: Option<Color>,
}

impl LeaderSniper {
    /// Deletes up to `k` leaders per round, optionally restricted to `color`.
    pub fn new(k: usize, color: Option<Color>) -> Self {
        LeaderSniper { k, color }
    }
}

impl Adversary<AgentState> for LeaderSniper {
    fn name(&self) -> &'static str {
        match self.color {
            None => "leader-sniper",
            Some(Color::Zero) => "leader-sniper-c0",
            Some(Color::One) => "leader-sniper-c1",
        }
    }

    fn act(
        &mut self,
        _ctx: &RoundContext,
        agents: &[AgentState],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        agents
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_leader && a.active && self.color.is_none_or(|c| a.color == c))
            .take(self.k)
            .map(|(i, _)| Alteration::Delete(i))
            .collect()
    }
}

/// Inserts forged *leaders* of one fixed color, with the correct majority
/// round, every round of the leader-selection/early-recruitment window.
/// Each forged leader recruits a `√N` cluster of the attacker's color —
/// the paper's footnote 9 attack on the color distribution.
#[derive(Debug, Clone)]
pub struct ColorFlooder {
    params: Params,
    k: usize,
    color: Color,
    next_lineage: u64,
}

impl ColorFlooder {
    /// Inserts up to `k` forged leaders of `color` per round.
    pub fn new(params: Params, k: usize, color: Color) -> Self {
        // Forged clusters get **even** lineage tags: honest leaders draw
        // random tags forced odd (`protocol::determine_if_leader`), so the
        // two ranges are disjoint by parity.
        ColorFlooder {
            params,
            k,
            color,
            next_lineage: 1 << 62,
        }
    }
}

impl Adversary<AgentState> for ColorFlooder {
    fn name(&self) -> &'static str {
        "color-flooder"
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        _agents: &[AgentState],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let round = ctx.majority_round.unwrap_or(0);
        // Forged leaders only help the attacker while recruitment can still
        // complete; inserting one mid-epoch yields a partial cluster, which
        // is still adversarially useful, so insert whenever.
        (0..self.k)
            .map(|_| {
                let mut s = AgentState::leader(&self.params, self.color, self.next_lineage);
                self.next_lineage += 2;
                s.round = round.max(1);
                s.to_recruit = self.params.to_recruit_at(s.round.max(1));
                Alteration::Insert(s)
            })
            .collect()
    }
    fn reads_states(&self) -> bool {
        false
    }
}

/// Deletes active agents of the *minority* color each round, widening the
/// color imbalance so that same-color meetings (and hence splits) become
/// more likely — an attempt to drive the population upward through the
/// variance channel rather than by raw insertion.
#[derive(Debug, Clone, Copy)]
pub struct ClusterPoisoner {
    k: usize,
}

impl ClusterPoisoner {
    /// Deletes up to `k` minority-color agents per round.
    pub fn new(k: usize) -> Self {
        ClusterPoisoner { k }
    }
}

impl Adversary<AgentState> for ClusterPoisoner {
    fn name(&self) -> &'static str {
        "cluster-poisoner"
    }

    fn act(
        &mut self,
        _ctx: &RoundContext,
        agents: &[AgentState],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let c0 = agents
            .iter()
            .filter(|a| a.active && a.color == Color::Zero)
            .count();
        let c1 = agents
            .iter()
            .filter(|a| a.active && a.color == Color::One)
            .count();
        let minority = if c0 <= c1 { Color::Zero } else { Color::One };
        agents
            .iter()
            .enumerate()
            .filter(|(_, a)| a.active && a.color == minority)
            .take(self.k)
            .map(|(i, _)| Alteration::Delete(i))
            .collect()
    }
}

/// Inserts agents whose round counter is offset from the honest majority,
/// trying to build up a parasitic sub-population running a shifted epoch.
/// Algorithm 7 (`CheckRoundConsistency`) is the paper's defense; Lemma 3
/// bounds the survivors by `O(N^{1/4})`.
#[derive(Debug, Clone)]
pub struct DesyncInserter {
    params: Params,
    k: usize,
    offset: u32,
}

impl DesyncInserter {
    /// Inserts up to `k` agents per round whose clock is `offset` rounds
    /// ahead of the honest majority.
    pub fn new(params: Params, k: usize, offset: u32) -> Self {
        DesyncInserter { params, k, offset }
    }
}

impl Adversary<AgentState> for DesyncInserter {
    fn name(&self) -> &'static str {
        "desync-inserter"
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        _agents: &[AgentState],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let t = self.params.epoch_len();
        let round = (ctx.majority_round.unwrap_or(0) + self.offset) % t;
        (0..self.k)
            .map(|_| Alteration::Insert(AgentState::desynced(&self.params, round)))
            .collect()
    }
    fn reads_states(&self) -> bool {
        false
    }
}

/// Watches the population and pushes it further away from the target:
/// inserts blank agents whenever the population is at or above target,
/// deletes random agents whenever it is below. The hardest *directional*
/// test of the restoring drift (Lemma 8).
#[derive(Debug, Clone)]
pub struct DeviationAmplifier {
    params: Params,
    k: usize,
}

impl DeviationAmplifier {
    /// Applies up to `k` push-outward operations per round.
    pub fn new(params: Params, k: usize) -> Self {
        DeviationAmplifier { params, k }
    }
}

impl Adversary<AgentState> for DeviationAmplifier {
    fn name(&self) -> &'static str {
        "deviation-amplifier"
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        _agents: &[AgentState],
        rng: &mut SimRng,
    ) -> Vec<Alteration<AgentState>> {
        let target = ctx.target as usize;
        if ctx.population >= target {
            let round = ctx.majority_round.unwrap_or(0);
            (0..self.k)
                .map(|_| Alteration::Insert(AgentState::desynced(&self.params, round)))
                .collect()
        } else {
            sample_distinct(ctx.population, self.k, rng)
                .into_iter()
                .map(Alteration::Delete)
                .collect()
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

    fn ctx(budget: usize, target: u64, agents: &[AgentState]) -> RoundContext {
        RoundContext::observe(0, budget, target, agents)
    }

    #[test]
    fn leader_sniper_targets_leaders_only() {
        let p = params();
        let mut agents = vec![AgentState::fresh(&p); 10];
        agents.push(AgentState::leader(&p, Color::One, 1));
        agents.push(AgentState::leader(&p, Color::Zero, 2));
        let mut adv = LeaderSniper::new(5, None);
        let out = adv.act(&ctx(5, 1024, &agents), &agents, &mut rng_from_seed(1));
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|a| matches!(a, Alteration::Delete(i) if *i >= 10)));
    }

    #[test]
    fn leader_sniper_respects_color_filter() {
        let p = params();
        let mut agents = vec![AgentState::leader(&p, Color::One, 1)];
        agents.push(AgentState::leader(&p, Color::Zero, 2));
        let mut adv = LeaderSniper::new(5, Some(Color::Zero));
        let out = adv.act(&ctx(5, 1024, &agents), &agents, &mut rng_from_seed(2));
        assert_eq!(out, vec![Alteration::Delete(1)]);
        assert_eq!(adv.name(), "leader-sniper-c0");
    }

    #[test]
    fn color_flooder_forges_leaders_at_majority_round() {
        let p = params();
        let agents = vec![AgentState::desynced(&p, 33); 8];
        let mut adv = ColorFlooder::new(p.clone(), 3, Color::One);
        let out = adv.act(&ctx(3, 1024, &agents), &[], &mut rng_from_seed(3));
        assert_eq!(out.len(), 3);
        let mut lineages = Vec::new();
        for alt in out {
            match alt {
                Alteration::Insert(s) => {
                    assert_eq!(s.round, 33);
                    assert!(s.active && s.is_leader);
                    assert_eq!(s.color, Color::One);
                    lineages.push(s.lineage);
                }
                other => panic!("expected insert, got {other:?}"),
            }
        }
        lineages.dedup();
        assert_eq!(lineages.len(), 3, "forged lineages must be distinct");
    }

    #[test]
    fn cluster_poisoner_deletes_minority_color() {
        let p = params();
        let mut agents = vec![AgentState::active_at(&p, 5, Color::One); 6];
        agents.push(AgentState::active_at(&p, 5, Color::Zero));
        agents.push(AgentState::active_at(&p, 5, Color::Zero));
        let mut adv = ClusterPoisoner::new(10);
        let out = adv.act(&ctx(10, 1024, &agents), &agents, &mut rng_from_seed(4));
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|a| matches!(a, Alteration::Delete(i) if *i >= 6)));
    }

    #[test]
    fn desync_inserter_offsets_the_clock() {
        let p = params();
        let agents = vec![AgentState::desynced(&p, 10); 4];
        let mut adv = DesyncInserter::new(p.clone(), 2, 7);
        let out = adv.act(&ctx(2, 1024, &agents), &[], &mut rng_from_seed(5));
        for alt in out {
            match alt {
                Alteration::Insert(s) => assert_eq!(s.round, 17),
                other => panic!("expected insert, got {other:?}"),
            }
        }
    }

    #[test]
    fn desync_offset_wraps_mod_t() {
        let p = params();
        let t = p.epoch_len();
        let agents = vec![AgentState::desynced(&p, t - 1); 4];
        let mut adv = DesyncInserter::new(p.clone(), 1, 2);
        let out = adv.act(&ctx(1, 1024, &agents), &[], &mut rng_from_seed(6));
        match &out[0] {
            Alteration::Insert(s) => assert_eq!(s.round, 1),
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn deviation_amplifier_switches_direction() {
        let p = params();
        let agents = vec![AgentState::fresh(&p); 10];
        let mut adv = DeviationAmplifier::new(p.clone(), 2);
        // Below target: deletes.
        let out = adv.act(&ctx(2, 100, &agents), &[], &mut rng_from_seed(7));
        assert!(out.iter().all(|a| a.is_delete()));
        // At/above target: inserts.
        let out = adv.act(&ctx(2, 10, &agents), &[], &mut rng_from_seed(8));
        assert!(out.iter().all(|a| a.is_insert()));
    }
}
