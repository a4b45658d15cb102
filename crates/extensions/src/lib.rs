//! Extensions from §1.2 of the paper: **malicious agents**.
//!
//! The base population-stability problem assumes inserted agents *follow
//! the protocol* (only their initial state is adversarial). The paper notes
//! that the problem is impossible against agents running arbitrary
//! malicious programs — "a malicious agent can simply ignore all
//! interactions with other agents and replicate itself at every
//! opportunity" — **unless** the model is strengthened so that
//!
//! 1. agents can remove other agents they encounter
//!    ([`Action::KillPartner`](popstab_sim::Action)),
//! 2. honest agents can detect a partner whose *program* differs from their
//!    own, and
//! 3. malicious replication is rate-limited.
//!
//! [`WithMalice`] wraps any inner protocol in exactly that model: a state
//! is either an honest inner state or a malicious automaton that ignores
//! the protocol and splits every `replicate_period` rounds. Honest agents
//! that meet a malicious partner kill it (detection is modeled by the
//! message tag — "program differs" is observable, memory contents are not
//! trusted). The stability condition is a race:
//!
//! * each malicious agent doubles every `ρ = replicate_period` rounds when
//!   unchecked → growth factor `2^{1/ρ}` per round,
//! * each round it is matched with probability `≥ γ` and its partner is
//!   honest with probability `≈ h` (the honest fraction), in which case it
//!   dies → survival factor `(1 − γ·h)` per round.
//!
//! The malicious cohort is driven extinct iff `(1 + 1/ρ)·(1 − γ·h) < 1`,
//! i.e. roughly `ρ > 1/(γ·h)` — with full matching and a small cohort,
//! any `ρ ≥ 2` dies out, while `ρ = 1` (split every round) is the paper's
//! impossibility argument and indeed overwhelms the defense only when
//! honest contact is rare. The experiment `malice` (F8) sweeps `ρ`.

use std::fmt;

use popstab_sim::{
    Action, Adversary, Alteration, Observable, Observation, Protocol, RoundContext, SimRng,
};

/// State of an agent in the extended model: honest or malicious.
#[derive(Debug, Clone, PartialEq)]
pub enum MaliceState<S> {
    /// An honest agent running the inner protocol.
    Honest(S),
    /// A malicious automaton: ignores the protocol, replicates on a timer.
    Malicious {
        /// Splits whenever `age % replicate_period == replicate_period − 1`.
        replicate_period: u32,
        /// Rounds lived so far.
        age: u32,
    },
}

impl<S: Observable> Observable for MaliceState<S> {
    fn observe(&self) -> Observation {
        match self {
            MaliceState::Honest(s) => s.observe(),
            // Malicious agents report nothing; experiments count them by
            // inspecting states directly.
            MaliceState::Malicious { .. } => Observation::default(),
        }
    }
}

/// Message in the extended model. The enum tag is the "program fingerprint":
/// the paper's detection assumption is that an agent recognizes a partner
/// whose program differs from its own.
#[derive(Debug, Clone, PartialEq)]
pub enum MaliceMessage<M> {
    /// Sent by honest agents: the inner protocol message.
    Honest(M),
    /// Sent by malicious agents (they cannot forge the honest program
    /// fingerprint — that is precisely the detection assumption).
    Malicious,
}

/// The extended protocol: the inner protocol plus the kill-on-detect rule.
#[derive(Debug)]
pub struct WithMalice<P> {
    inner: P,
}

impl<P> WithMalice<P> {
    /// Wraps an inner protocol.
    pub fn new(inner: P) -> Self {
        WithMalice { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for WithMalice<P> {
    type State = MaliceState<P::State>;
    type Message = MaliceMessage<P::Message>;

    fn initial_state(&self, rng: &mut SimRng) -> Self::State {
        MaliceState::Honest(self.inner.initial_state(rng))
    }

    fn message(&self, state: &Self::State) -> Self::Message {
        match state {
            MaliceState::Honest(s) => MaliceMessage::Honest(self.inner.message(s)),
            MaliceState::Malicious { .. } => MaliceMessage::Malicious,
        }
    }

    fn step(
        &self,
        state: &mut Self::State,
        incoming: Option<&Self::Message>,
        rng: &mut SimRng,
    ) -> Action {
        match state {
            MaliceState::Honest(s) => match incoming {
                // Detected a foreign program: remove it. The honest agent
                // spends the interaction on the kill; its own protocol sees
                // an unmatched round.
                Some(MaliceMessage::Malicious) => {
                    let _ = self.inner.step(s, None, rng);
                    Action::KillPartner
                }
                Some(MaliceMessage::Honest(m)) => self.inner.step(s, Some(m), rng),
                None => self.inner.step(s, None, rng),
            },
            MaliceState::Malicious {
                replicate_period,
                age,
            } => {
                // Ignores everyone; replicates on its timer.
                let split = *age % *replicate_period == *replicate_period - 1;
                *age = age.wrapping_add(1);
                if split {
                    Action::Split
                } else {
                    Action::Continue
                }
            }
        }
    }
}

/// Inserts `k` malicious agents per round with the given replication
/// period (the "bound on how frequently malicious agents can replicate"
/// the paper requires).
#[derive(Debug, Clone, Copy)]
pub struct MaliciousInserter {
    k: usize,
    replicate_period: u32,
}

impl MaliciousInserter {
    /// Inserts `k` malicious agents per round, each splitting every
    /// `replicate_period` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `replicate_period` is zero.
    pub fn new(k: usize, replicate_period: u32) -> Self {
        assert!(replicate_period > 0, "replicate_period must be positive");
        MaliciousInserter {
            k,
            replicate_period,
        }
    }
}

impl fmt::Display for MaliciousInserter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malicious inserter (k={}, rho={})",
            self.k, self.replicate_period
        )
    }
}

impl<S> Adversary<MaliceState<S>> for MaliciousInserter {
    fn name(&self) -> &'static str {
        "malicious-inserter"
    }

    fn act(
        &mut self,
        _ctx: &RoundContext,
        _agents: &[MaliceState<S>],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<MaliceState<S>>> {
        (0..self.k)
            .map(|_| {
                Alteration::Insert(MaliceState::Malicious {
                    replicate_period: self.replicate_period,
                    age: 0,
                })
            })
            .collect()
    }
}

/// Counts the malicious agents in a population slice.
pub fn malicious_count<S>(agents: &[MaliceState<S>]) -> usize {
    agents
        .iter()
        .filter(|a| matches!(a, MaliceState::Malicious { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_core::params::Params;
    use popstab_core::protocol::PopulationStability;
    use popstab_sim::rng::rng_from_seed;
    use popstab_sim::{Engine, SimConfig};

    const N: u64 = 1024;

    fn extended() -> WithMalice<PopulationStability> {
        WithMalice::new(PopulationStability::new(Params::for_target(N).unwrap()))
    }

    #[test]
    fn honest_agents_kill_detected_malicious_partners() {
        let proto = extended();
        let mut rng = rng_from_seed(1);
        let mut honest = proto.initial_state(&mut rng);
        let action = proto.step(&mut honest, Some(&MaliceMessage::Malicious), &mut rng);
        assert_eq!(action, Action::KillPartner);
        // The honest agent's own clock still advanced.
        match honest {
            MaliceState::Honest(s) => assert_eq!(s.round, 1),
            other => panic!("honest agent mutated into {other:?}"),
        }
    }

    #[test]
    fn malicious_agents_split_on_their_timer() {
        let proto = extended();
        let mut rng = rng_from_seed(2);
        let mut mal: MaliceState<popstab_core::state::AgentState> = MaliceState::Malicious {
            replicate_period: 3,
            age: 0,
        };
        let mut splits = 0;
        for _ in 0..9 {
            if proto.step(&mut mal, None, &mut rng) == Action::Split {
                splits += 1;
            }
        }
        assert_eq!(splits, 3, "one split per period");
    }

    #[test]
    fn malicious_cohort_is_suppressed_at_moderate_replication_rate() {
        // ρ = 4 with full matching: each malicious agent is killed with
        // probability ≈ honest fraction each round but only doubles every
        // 4th round — the cohort stays tiny and the population holds.
        let proto = extended();
        let params = Params::for_target(N).unwrap();
        let epoch = u64::from(params.epoch_len());
        let adv = MaliciousInserter::new(1, 4);
        let cfg = SimConfig::builder()
            .seed(3)
            .target(N)
            .adversary_budget(1)
            .max_population(16 * N as usize)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(proto, adv, cfg, N as usize);
        engine.run(popstab_sim::RunSpec::rounds(4 * epoch), &mut ());
        assert_eq!(engine.halted(), None);
        let mal = malicious_count(engine.agents());
        assert!(mal < 50, "malicious cohort grew to {mal}");
        let pop = engine.population();
        assert!(
            pop > N as usize / 2 && pop < 2 * N as usize,
            "population {pop}"
        );
    }

    #[test]
    fn unchecked_replication_overwhelms_without_the_kill_rule() {
        // Negative control: the *base* protocol (no kill rule) cannot
        // contain even slow malicious replication — this is the paper's
        // impossibility argument for arbitrary malicious programs. We model
        // "no detection" by running the same malicious automata against a
        // protocol whose honest agents treat them as unmatched rounds.
        #[derive(Debug)]
        struct NoDefense(WithMalice<PopulationStability>);
        impl Protocol for NoDefense {
            type State = MaliceState<popstab_core::state::AgentState>;
            type Message = MaliceMessage<popstab_core::message::Message>;
            fn initial_state(&self, rng: &mut SimRng) -> Self::State {
                self.0.initial_state(rng)
            }
            fn message(&self, s: &Self::State) -> Self::Message {
                self.0.message(s)
            }
            fn step(
                &self,
                s: &mut Self::State,
                m: Option<&Self::Message>,
                rng: &mut SimRng,
            ) -> Action {
                match (s, m) {
                    // Honest agents cannot detect: ignore the malicious partner.
                    (MaliceState::Honest(inner), Some(MaliceMessage::Malicious)) => {
                        self.0.inner().step(inner, None, rng)
                    }
                    (s @ MaliceState::Honest(_), m) => self.0.step(s, m, rng),
                    (s @ MaliceState::Malicious { .. }, _) => self.0.step(s, None, rng),
                }
            }
        }
        let params = Params::for_target(N).unwrap();
        let epoch = u64::from(params.epoch_len());
        let proto = NoDefense(WithMalice::new(PopulationStability::new(params)));
        let adv = MaliciousInserter::new(1, 32);
        let cfg = SimConfig::builder()
            .seed(4)
            .target(N)
            .adversary_budget(1)
            .max_population(16 * N as usize)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(proto, adv, cfg, N as usize);
        engine.run(popstab_sim::RunSpec::rounds(3 * epoch), &mut ());
        let mal = malicious_count(engine.agents());
        // 1 inserted/round, doubling every 32 rounds, never killed: the
        // cohort dwarfs any bound the defended model keeps.
        assert!(
            mal > 1000 || engine.halted().is_some(),
            "undefended malicious cohort only reached {mal}"
        );
    }

    #[test]
    fn split_every_round_defeats_sparse_contact() {
        // ρ = 1 under γ = 1/4 matching: growth 2×/round vs kill chance
        // ≈ γ ≈ 0.25 — the cohort explodes, matching the paper's remark
        // that unbounded replication makes the problem impossible.
        let proto = extended();
        let adv = MaliciousInserter::new(1, 1);
        let cfg = SimConfig::builder()
            .seed(5)
            .target(N)
            .adversary_budget(1)
            .matching(popstab_sim::MatchingModel::ExactFraction(0.25))
            .max_population(8 * N as usize)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(proto, adv, cfg, N as usize);
        engine.run(popstab_sim::RunSpec::rounds(200), &mut ());
        assert!(
            engine.halted() == Some(popstab_sim::HaltReason::Exploded)
                || malicious_count(engine.agents()) > N as usize,
            "expected explosion; malicious = {}",
            malicious_count(engine.agents())
        );
    }

    #[test]
    fn observable_passthrough() {
        let proto = extended();
        let mut rng = rng_from_seed(6);
        let honest = proto.initial_state(&mut rng);
        assert_eq!(honest.observe().round_in_epoch, Some(0));
        let mal: MaliceState<popstab_core::state::AgentState> = MaliceState::Malicious {
            replicate_period: 2,
            age: 0,
        };
        assert_eq!(mal.observe(), Observation::default());
    }

    #[test]
    #[should_panic(expected = "replicate_period must be positive")]
    fn zero_period_rejected() {
        MaliciousInserter::new(1, 0);
    }
}
