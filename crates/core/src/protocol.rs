//! The main protocol (Algorithms 1–7 of the paper).
//!
//! Each call to [`Protocol::step`] executes one `MainProtocolStep`
//! (Algorithm 1): exchange messages (done by the engine), check round
//! consistency (Algorithm 7), then dispatch on the round number to leader
//! selection (Algorithm 3), recruitment (Algorithm 5) or evaluation
//! (Algorithm 6).
//!
//! ### Fidelity notes
//!
//! * The decision logic consumes only the decoded **three-bit**
//!   [`Wire`](crate::message::Wire) view of the neighbor's message, so the
//!   paper's message-size bound is enforced by construction.
//! * Algorithm 5's subphase-boundary re-arm (`recruiting := 1`) is guarded
//!   with `active = 1`. The paper's pseudocode omits the guard, but without
//!   it an *inactive* agent would advertise `recruiting = 1` and activate
//!   other inactive agents with the default color — contradicting the
//!   surrounding text ("each active agent will attempt to recruit a single
//!   nonactive agent"). The guard follows the text.
//! * The round counter is normalized modulo `T` at the start of each step.
//!   Honest agents are unaffected (their counter is always in range); the
//!   normalization only pins down behaviour for adversarially inserted
//!   agents with out-of-range counters, matching the paper's description of
//!   `round` as a mod-`T` counter.

use popstab_sim::{Action, Protocol, SimRng};
use rand::Rng;

use crate::coin::toss_biased_coin;
use crate::columns::StabilityColumns;
use crate::message::Message;
use crate::params::Params;
use crate::state::{AgentState, Color};

/// The population stability protocol.
///
/// One value of this type drives every agent in a simulation; it owns the
/// [`Params`]. Lineage tags (instrumentation for the cluster-structure
/// experiments) are drawn from the leader's own per-round randomness rather
/// than a shared counter, so tag assignment is independent of the order in
/// which agents step — a requirement of the engine's intra-round parallel
/// paths, whose results must not depend on scheduling.
#[derive(Debug, Clone)]
pub struct PopulationStability {
    params: Params,
}

impl PopulationStability {
    /// Creates the protocol for the given parameters.
    pub fn new(params: Params) -> PopulationStability {
        PopulationStability { params }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Algorithm 3: `DetermineIfLeader`, run in round 0.
    fn determine_if_leader(&self, s: &mut AgentState, rng: &mut SimRng) {
        s.active = toss_biased_coin(self.params.leader_bias_exp(), rng);
        if s.active {
            s.color = if rng.random::<bool>() {
                Color::One
            } else {
                Color::Zero
            };
            s.recruiting = true;
            s.to_recruit = self.params.subphases();
            s.is_leader = true;
            // Random 64-bit tag (forced odd, so never the "no cluster" 0):
            // distinct across the handful of leaders per epoch w.h.p., and
            // deterministic under the agent's keyed stream regardless of
            // step-execution order.
            s.lineage = rng.random::<u64>() | 1;
        }
    }

    /// Algorithm 5: `RecruitmentPhase`, run in rounds `1 … T−2`.
    fn recruitment_phase(&self, s: &mut AgentState, incoming: Option<&Message>) {
        if let Some(msg) = incoming {
            let wire = msg.to_wire();
            if s.recruiting && !wire.active() {
                // We just recruited the neighbor: stand down for this
                // subphase.
                s.recruiting = false;
                s.to_recruit = s.to_recruit.saturating_sub(1);
            } else if !s.active && wire.recruiting() {
                // We are being recruited: adopt the neighbor's color; our
                // depth in the recruitment tree is a function of the round.
                s.active = true;
                s.color = wire.color().expect("recruiting messages carry a color");
                s.recruiting = false;
                s.to_recruit = self.params.to_recruit_at(s.round);
                s.lineage = msg.lineage;
            }
        }
        if self.params.is_subphase_boundary(s.round) && s.active {
            // Re-arm for the next subphase (active agents only; see module
            // docs for why the guard is required).
            s.recruiting = true;
        }
    }

    /// Algorithm 6: `EvaluationPhase`, run in round `T−1`. Returns the
    /// split/die decision and resets the coloring state for the next epoch.
    fn evaluation_phase(
        &self,
        s: &mut AgentState,
        incoming: Option<&Message>,
        rng: &mut SimRng,
    ) -> Action {
        let mut action = Action::Continue;
        if s.active {
            if let Some(msg) = incoming {
                let wire = msg.to_wire();
                if wire.active() {
                    if wire.color() == Some(s.color) {
                        // Same color: split with probability 1 − 16/√N.
                        if !toss_biased_coin(self.params.split_bias_exp(), rng) {
                            action = Action::Split;
                        }
                    } else {
                        // Different colors: self-destruct.
                        action = Action::Die;
                    }
                }
            }
        }
        s.active = false;
        s.color = Color::Zero;
        s.recruiting = false;
        s.to_recruit = 0;
        s.is_leader = false;
        s.lineage = 0;
        action
    }
}

impl Protocol for PopulationStability {
    type State = AgentState;
    type Message = Message;

    fn initial_state(&self, _rng: &mut SimRng) -> AgentState {
        AgentState::fresh(&self.params)
    }

    fn columnar(&self) -> Option<Box<dyn popstab_sim::ColumnarStep<AgentState>>> {
        Some(Box::new(StabilityColumns::new(self.params.clone())))
    }

    fn message(&self, state: &AgentState) -> Message {
        // Algorithm 2: inEvalPhase := (round == T − 1). Honest counters are
        // already in range; only adversarially inserted ones pay the modulo
        // (a per-agent division would otherwise dominate this hot path).
        let t = self.params.epoch_len();
        let round = if state.round < t {
            state.round
        } else {
            state.round % t
        };
        let in_eval = round == self.params.eval_round();
        Message::compose(state, in_eval)
    }

    fn step(&self, s: &mut AgentState, incoming: Option<&Message>, rng: &mut SimRng) -> Action {
        let t = self.params.epoch_len();
        // Normalize adversarial out-of-range counters (honest ones are
        // always in range — keep the division off the hot path); also pin
        // the instrumentation epoch length so observations stay coherent.
        if s.round >= t {
            s.round %= t;
        }
        s.epoch_len = t;

        let in_eval = s.round == self.params.eval_round();

        // Algorithm 7: CheckRoundConsistency. Uses only the one-bit
        // inEvalPhase flag from the three-bit wire.
        if let Some(msg) = incoming {
            if msg.to_wire().in_eval_phase() != in_eval {
                return Action::Die;
            }
        }

        if s.round == 0 {
            self.determine_if_leader(s, rng);
            s.round = 1;
            Action::Continue
        } else if !in_eval {
            self.recruitment_phase(s, incoming);
            s.round += 1;
            Action::Continue
        } else {
            let action = self.evaluation_phase(s, incoming, rng);
            s.round = 0;
            action
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::rng::rng_from_seed;
    use popstab_sim::{Engine, Observable, SimConfig};

    fn params() -> Params {
        Params::for_target(1024).unwrap()
    }

    fn proto() -> PopulationStability {
        PopulationStability::new(params())
    }

    fn msg_from(p: &PopulationStability, s: &AgentState) -> Message {
        p.message(s)
    }

    #[test]
    fn leader_selection_rate_matches_bias() {
        let p = proto();
        let mut rng = rng_from_seed(1);
        let trials = 200_000;
        let mut leaders = 0;
        for _ in 0..trials {
            let mut s = AgentState::fresh(p.params());
            p.step(&mut s, None, &mut rng);
            assert_eq!(s.round, 1);
            if s.active {
                leaders += 1;
                assert!(s.recruiting && s.is_leader);
                assert_eq!(s.to_recruit, p.params().subphases());
                assert!(s.lineage > 0);
            }
        }
        let expected = trials as f64 / 256.0; // 2^-8 for N=1024
        let sd = expected.sqrt();
        assert!(
            ((leaders as f64) - expected).abs() < 5.0 * sd,
            "leaders={leaders}, expected={expected}"
        );
    }

    #[test]
    fn leader_colors_are_balanced() {
        let p = proto();
        let mut rng = rng_from_seed(2);
        let mut c0 = 0;
        let mut c1 = 0;
        for _ in 0..400_000 {
            let mut s = AgentState::fresh(p.params());
            p.step(&mut s, None, &mut rng);
            if s.active {
                match s.color {
                    Color::Zero => c0 += 1,
                    Color::One => c1 += 1,
                }
            }
        }
        let total = (c0 + c1) as f64;
        let frac = c0 as f64 / total;
        assert!((0.44..0.56).contains(&frac), "c0={c0}, c1={c1}");
    }

    #[test]
    fn recruiter_recruits_inactive_neighbor() {
        let p = proto();
        let mut rng = rng_from_seed(3);
        let mut leader = AgentState::leader(p.params(), Color::One, 7);
        let mut idle = AgentState::fresh(p.params());
        idle.round = 1;

        let to_leader = msg_from(&p, &idle);
        let to_idle = msg_from(&p, &leader);

        assert_eq!(
            p.step(&mut leader, Some(&to_leader), &mut rng),
            Action::Continue
        );
        assert_eq!(
            p.step(&mut idle, Some(&to_idle), &mut rng),
            Action::Continue
        );

        // Leader stood down for this subphase and decremented its quota.
        assert!(!leader.recruiting);
        assert_eq!(leader.to_recruit, p.params().subphases() - 1);
        // Idle agent was activated with the leader's color and lineage.
        assert!(idle.active);
        assert_eq!(idle.color, Color::One);
        assert_eq!(idle.lineage, 7);
        assert!(!idle.recruiting);
        assert_eq!(idle.to_recruit, p.params().to_recruit_at(1));
    }

    #[test]
    fn two_recruiters_do_not_interact() {
        let p = proto();
        let mut rng = rng_from_seed(4);
        let mut a = AgentState::leader(p.params(), Color::Zero, 1);
        let mut b = AgentState::leader(p.params(), Color::One, 2);
        let ma = msg_from(&p, &a);
        let mb = msg_from(&p, &b);
        p.step(&mut a, Some(&mb), &mut rng);
        p.step(&mut b, Some(&ma), &mut rng);
        assert!(
            a.recruiting && b.recruiting,
            "recruiters must not consume each other"
        );
        assert_eq!(a.to_recruit, p.params().subphases());
        assert_eq!(a.color, Color::Zero);
        assert_eq!(b.color, Color::One);
    }

    #[test]
    fn recruiter_ignores_active_nonrecruiting_neighbor() {
        let p = proto();
        let mut rng = rng_from_seed(5);
        let mut recruiter = AgentState::leader(p.params(), Color::Zero, 1);
        let mut colored = AgentState::active_at(p.params(), 1, Color::One);
        let to_recruiter = msg_from(&p, &colored);
        let to_colored = msg_from(&p, &recruiter);
        p.step(&mut recruiter, Some(&to_recruiter), &mut rng);
        p.step(&mut colored, Some(&to_colored), &mut rng);
        assert!(recruiter.recruiting, "active neighbor is not a recruit");
        assert_eq!(
            colored.color,
            Color::One,
            "already-active agent keeps its color"
        );
    }

    #[test]
    fn inactive_agents_never_recruit() {
        // Regression for the Algorithm 5 guard: at a subphase boundary an
        // inactive agent must NOT re-arm recruiting.
        let p = proto();
        let mut rng = rng_from_seed(6);
        let boundary = p.params().t_inner() - 1; // round ≡ −1 (mod T_inner)
        let mut idle = AgentState::fresh(p.params());
        idle.round = boundary;
        p.step(&mut idle, None, &mut rng);
        assert!(!idle.recruiting, "inactive agent re-armed recruiting");

        let mut active = AgentState::active_at(p.params(), boundary, Color::One);
        p.step(&mut active, None, &mut rng);
        assert!(
            active.recruiting,
            "active agent failed to re-arm at boundary"
        );
    }

    #[test]
    fn eval_same_color_splits_or_continues() {
        let p = proto();
        let mut rng = rng_from_seed(7);
        let eval = p.params().eval_round();
        let mut splits = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let mut a = AgentState::active_at(p.params(), eval, Color::One);
            let b = AgentState::active_at(p.params(), eval, Color::One);
            let m = msg_from(&p, &b);
            match p.step(&mut a, Some(&m), &mut rng) {
                Action::Split => splits += 1,
                Action::Continue => {}
                other => panic!("same color must never produce {other:?}"),
            }
            // State was reset for the next epoch regardless.
            assert!(!a.active && a.round == 0);
        }
        // split probability = 1 − 2^-1 = 1/2 for N=1024.
        let frac = splits as f64 / trials as f64;
        assert!((0.47..0.53).contains(&frac), "split fraction {frac}");
    }

    #[test]
    fn eval_different_color_always_dies() {
        let p = proto();
        let mut rng = rng_from_seed(8);
        let eval = p.params().eval_round();
        for _ in 0..100 {
            let mut a = AgentState::active_at(p.params(), eval, Color::One);
            let b = AgentState::active_at(p.params(), eval, Color::Zero);
            let m = msg_from(&p, &b);
            assert_eq!(p.step(&mut a, Some(&m), &mut rng), Action::Die);
        }
    }

    #[test]
    fn eval_with_inactive_neighbor_is_a_noop_decision() {
        let p = proto();
        let mut rng = rng_from_seed(9);
        let eval = p.params().eval_round();
        let mut a = AgentState::active_at(p.params(), eval, Color::One);
        let mut b = AgentState::fresh(p.params());
        b.round = eval;
        let m = msg_from(&p, &b);
        assert_eq!(p.step(&mut a, Some(&m), &mut rng), Action::Continue);
        assert!(!a.active && a.round == 0, "state resets after evaluation");
    }

    #[test]
    fn eval_unmatched_agent_just_resets() {
        let p = proto();
        let mut rng = rng_from_seed(10);
        let eval = p.params().eval_round();
        let mut a = AgentState::active_at(p.params(), eval, Color::One);
        assert_eq!(p.step(&mut a, None, &mut rng), Action::Continue);
        assert!(!a.active && a.round == 0);
    }

    #[test]
    fn round_consistency_kills_desynced_pairs() {
        let p = proto();
        let mut rng = rng_from_seed(11);
        let eval = p.params().eval_round();
        // a is entering evaluation; b thinks it is mid-recruitment.
        let mut a = AgentState::active_at(p.params(), eval, Color::One);
        let mut b = AgentState::desynced(p.params(), 5);
        let to_a = msg_from(&p, &b);
        let to_b = msg_from(&p, &a);
        assert_eq!(p.step(&mut a, Some(&to_a), &mut rng), Action::Die);
        assert_eq!(p.step(&mut b, Some(&to_b), &mut rng), Action::Die);
    }

    #[test]
    fn matching_desync_agents_survive_each_other() {
        // Two agents that are both NOT in eval pass the consistency check
        // even if their absolute rounds differ: the check is the one-bit
        // inEvalPhase comparison, exactly as in the paper.
        let p = proto();
        let mut rng = rng_from_seed(12);
        let mut a = AgentState::desynced(p.params(), 5);
        let mut b = AgentState::desynced(p.params(), 9);
        let to_a = msg_from(&p, &b);
        let to_b = msg_from(&p, &a);
        assert_eq!(p.step(&mut a, Some(&to_a), &mut rng), Action::Continue);
        assert_eq!(p.step(&mut b, Some(&to_b), &mut rng), Action::Continue);
    }

    #[test]
    fn out_of_range_round_is_normalized() {
        let p = proto();
        let mut rng = rng_from_seed(13);
        let t = p.params().epoch_len();
        let mut s = AgentState::desynced(p.params(), t + 5);
        p.step(&mut s, None, &mut rng);
        assert_eq!(s.round, 6, "round should normalize mod T then advance");
    }

    #[test]
    fn observation_reports_eval_flag() {
        let p = proto();
        let mut s = AgentState::active_at(p.params(), p.params().eval_round(), Color::One);
        assert!(s.observe().in_eval_phase);
        s.round = 3;
        assert!(!s.observe().in_eval_phase);
    }

    #[test]
    fn full_epoch_without_adversary_builds_sqrt_n_clusters() {
        let params = Params::for_target(1024).unwrap();
        let sqrt_n = params.cluster_size();
        let epoch = u64::from(params.epoch_len());
        let cfg = SimConfig::builder().seed(99).target(1024).build().unwrap();
        let mut engine = Engine::with_population(PopulationStability::new(params), cfg, 1024);
        // Run up to (but not including) the evaluation round.
        engine.run(popstab_sim::RunSpec::rounds(epoch - 1), &mut ());
        // Group active agents by lineage: every complete cluster has √N members.
        use std::collections::BTreeMap;
        let mut clusters: BTreeMap<u64, u64> = BTreeMap::new();
        for agent in engine.agents() {
            if agent.active {
                *clusters.entry(agent.lineage).or_insert(0) += 1;
            }
        }
        assert!(!clusters.is_empty(), "no clusters formed");
        for (lineage, size) in &clusters {
            assert_eq!(
                *size, sqrt_n,
                "cluster {lineage} has size {size}, want {sqrt_n}"
            );
        }
        // Leaders should also all have finished their quota (Lemma 5).
        for agent in engine.agents() {
            if agent.active {
                assert_eq!(agent.to_recruit, 0, "agent still owes recruits at eval");
            }
        }
    }

    #[test]
    fn population_stays_in_band_for_a_few_epochs() {
        let params = Params::for_target(1024).unwrap();
        let epoch = u64::from(params.epoch_len());
        let cfg = SimConfig::builder().seed(5).target(1024).build().unwrap();
        let mut engine = Engine::with_population(PopulationStability::new(params), cfg, 1024);
        let outcome = engine.run(popstab_sim::RunSpec::rounds(5 * epoch), &mut ());
        assert_eq!(engine.halted(), None);
        let (lo, hi) = outcome.population_range();
        // Equilibrium for N=1024 is m* = N − 8√N = 768; allow a wide band.
        assert!(lo > 512, "population fell to {lo}");
        assert!(hi < 1536, "population rose to {hi}");
    }
}
