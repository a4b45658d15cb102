//! The high-memory unique-ID protocol (§1.2).
//!
//! With memory constraints lifted, population stability against a
//! delete-only adversary is trivial: every agent draws a (w.h.p. unique)
//! random identifier, gossips the set of identifiers it has seen for
//! `Θ(log N)` rounds — full-matching epidemic spreading doubles knowledge
//! each round — and then *counts* the set to decide whether to split or
//! die. We use 64-bit identifiers instead of the paper's `N`-bit ones; at
//! simulation scales the collision probability is ≪ 2⁻⁴⁰ and the memory
//! accounting below reports what the faithful `N`-bit variant would cost.
//!
//! The protocol is **not** robust to insertions: an adversary may insert an
//! agent whose set is pre-filled with forged identifiers, inflating every
//! count it touches and triggering mass self-destruction. The test
//! `forged_ids_break_the_protocol` reproduces exactly that, motivating the
//! paper's harder problem statement.

use std::collections::BTreeSet;

use popstab_sim::{Action, Observable, Observation, Protocol, SimRng};
use rand::Rng;

/// Baseline protocol: gossip unique IDs, count, correct.
#[derive(Debug, Clone, Copy)]
pub struct HighMemory {
    target: u64,
    epoch_len: u32,
}

impl HighMemory {
    /// Creates the baseline for target `n`, with epochs of `2·log₂ n + 4`
    /// rounds (enough for epidemic spreading under full matching).
    pub fn new(n: u64) -> HighMemory {
        assert!(n >= 2, "target must be at least 2");
        let log2n = 64 - (n - 1).leading_zeros();
        HighMemory {
            target: n,
            epoch_len: 2 * log2n + 4,
        }
    }

    /// The epoch length in rounds.
    pub fn epoch_len(&self) -> u32 {
        self.epoch_len
    }

    /// Memory a faithful implementation would need, in bits, for an agent
    /// currently holding `ids` identifiers: `N` bits per identifier.
    pub fn faithful_memory_bits(&self, ids: usize) -> u128 {
        ids as u128 * u128::from(self.target)
    }
}

/// High-memory agent state: own ID plus every ID heard this epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmState {
    /// Round within the epoch.
    pub round: u32,
    /// This agent's identifier for the current epoch.
    pub id: u64,
    /// All identifiers seen this epoch (including `id`).
    pub ids: BTreeSet<u64>,
}

impl Observable for HmState {
    fn observe(&self) -> Observation {
        Observation {
            round_in_epoch: Some(self.round),
            active: true,
            ..Observation::default()
        }
    }
}

impl Protocol for HighMemory {
    type State = HmState;
    type Message = BTreeSet<u64>;

    fn initial_state(&self, rng: &mut SimRng) -> HmState {
        let id = rng.random();
        HmState {
            round: 0,
            id,
            ids: BTreeSet::from([id]),
        }
    }

    fn message(&self, state: &HmState) -> BTreeSet<u64> {
        state.ids.clone()
    }

    fn step(&self, s: &mut HmState, incoming: Option<&BTreeSet<u64>>, rng: &mut SimRng) -> Action {
        s.round %= self.epoch_len;
        if s.round == 0 {
            s.id = rng.random();
            s.ids = BTreeSet::from([s.id]);
            s.round = 1;
            return Action::Continue;
        }
        if let Some(heard) = incoming {
            s.ids.extend(heard.iter().copied());
        }
        if s.round < self.epoch_len - 1 {
            s.round += 1;
            return Action::Continue;
        }
        // Evaluation: the set size estimates the population over the epoch.
        let estimate = s.ids.len() as f64;
        let n = self.target as f64;
        s.round = 0;
        if estimate < n {
            // Split with probability (N − m̂)/m̂ so E[next] ≈ N.
            let p = ((n - estimate) / estimate).min(1.0);
            if rng.random_bool(p) {
                return Action::Split;
            }
        } else if estimate > n {
            let p = ((estimate - n) / estimate).min(0.5);
            if rng.random_bool(p) {
                return Action::Die;
            }
        }
        Action::Continue
    }
}

/// The attack that breaks the high-memory protocol: inserts one agent per
/// round whose ID set is pre-filled with `4N` forged identifiers. Every
/// agent that gossips with it believes the population is ~5N and
/// self-destructs with high probability — which is why the paper's
/// insert+delete adversary model makes even unbounded memory insufficient.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdFlooder;

impl popstab_sim::Adversary<HmState> for IdFlooder {
    fn name(&self) -> &'static str {
        "id-flooder"
    }

    fn act(
        &mut self,
        ctx: &popstab_sim::RoundContext,
        agents: &[HmState],
        _rng: &mut SimRng,
    ) -> Vec<popstab_sim::Alteration<HmState>> {
        let round = agents.first().map_or(0, |a| a.round);
        let forged: BTreeSet<u64> = (0..4 * ctx.target).map(|i| u64::MAX - i).collect();
        vec![popstab_sim::Alteration::Insert(HmState {
            round,
            id: 0,
            ids: forged,
        })]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::{Engine, RunSpec, SimConfig};

    const N: u64 = 1024;

    fn cfg(seed: u64, budget: usize) -> SimConfig {
        SimConfig::builder()
            .seed(seed)
            .adversary_budget(budget)
            .target(N)
            .max_population(16 * N as usize)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_and_stays_stable_without_adversary() {
        let proto = HighMemory::new(N);
        let epoch = u64::from(proto.epoch_len());
        let mut engine = Engine::with_population(proto, cfg(1, 0), N as usize);
        let (lo, hi) = engine
            .run(RunSpec::rounds(10 * epoch), &mut ())
            .population_range();
        assert_eq!(engine.halted(), None);
        assert!(lo > (N as usize * 9) / 10, "fell to {lo}");
        assert!(hi < (N as usize * 11) / 10, "rose to {hi}");
    }

    #[test]
    fn recovers_from_sustained_oblivious_deletion() {
        let proto = HighMemory::new(N);
        let epoch = u64::from(proto.epoch_len());
        let adv = popstab_adversary::ObliviousDeleter::new(4);
        let mut engine = Engine::with_adversary(proto, adv, cfg(2, 4), N as usize);
        let (lo, _) = engine
            .run(RunSpec::rounds(10 * epoch), &mut ())
            .population_range();
        assert_eq!(engine.halted(), None);
        // 4 deletions/round × 24-round epochs ≈ 96 per epoch. The counter
        // measures the epoch-*start* population, so the steady state sits
        // about two epochs' deletions below N; 65% is a safe floor.
        assert!(lo > (N as usize * 65) / 100, "fell to {lo}");
    }

    #[test]
    fn forged_ids_break_the_protocol() {
        let proto = HighMemory::new(N);
        let epoch = u64::from(proto.epoch_len());
        let mut engine = Engine::with_adversary(proto, IdFlooder, cfg(3, 1), N as usize);
        // Collapse is existential: stop as soon as it happens.
        engine.run(
            RunSpec::until(10 * epoch, |r| r.population_after < N as usize / 2),
            &mut (),
        );
        // Every agent that hears the forged set believes the population is
        // ~5N and dies with probability ~1/2 per epoch: collapse.
        assert!(
            engine.population() < N as usize / 2,
            "population {} survived id flooding",
            engine.population()
        );
    }

    #[test]
    fn faithful_memory_cost_is_enormous() {
        let proto = HighMemory::new(N);
        // An agent knowing all N identifiers would hold N² bits — vastly
        // more than the real protocol's Θ(log log N).
        assert_eq!(
            proto.faithful_memory_bits(N as usize),
            u128::from(N) * u128::from(N)
        );
    }
}
