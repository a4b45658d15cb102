//! Attempt 1 (§1.3.1): non-interactive leader election.
//!
//! Each epoch, every agent flips a coin that is 1 with probability `2/N`
//! ("I am a leader"), then the single bit is gossiped for `Θ(log N)` rounds.
//! At the end of the epoch every agent knows (w.h.p.) whether *any* leader
//! exists; the probability that none was drawn is `q(m) ≈ e^{−2m/N}`, which
//! decreases in the population `m` — so "no leader heard" is evidence that
//! the population is small. Each agent splits with probability `p_split`
//! when it heard no leader and dies with probability `p_die` when it heard
//! one.
//!
//! Because the heard bit is **global**, all agents act in the same
//! direction each epoch and the population multiplies by `≈ (1 + p_split)`
//! or `≈ (1 − p_die)` wholesale: the process is a multiplicative random
//! walk whose restoring force lives in `log m`. We therefore balance the
//! *logarithmic* drift at `m = N`:
//! `q(N)·ln(1+p_split) = (1 − q(N))·(−ln(1−p_die))`,
//! which keeps the stationary distribution centered on `N` (within a few
//! tens of percent — this baseline is *supposed* to be crude).
//!
//! Against an **oblivious, delete-only** adversary the statistics are
//! untouched and the protocol holds. Against the paper's adaptive adversary
//! it is hopeless with a budget of one alteration per epoch:
//!
//! * [`SignalFlooder`] inserts a single `signal = 1` agent each epoch →
//!   every epoch looks overcrowded → sustained shrinkage → collapse;
//! * [`SignalSuppressor`] deletes signal carriers the moment the coins are
//!   flipped → every epoch looks empty → sustained growth → explosion.

use popstab_sim::{
    Action, Adversary, Alteration, Observable, Observation, Protocol, RoundContext, SimRng,
};
use rand::Rng;

/// Baseline protocol: non-interactive leader election.
#[derive(Debug, Clone)]
pub struct Attempt1 {
    target: u64,
    epoch_len: u32,
    p_split: f64,
    p_die: f64,
}

impl Attempt1 {
    /// Creates the baseline for target `n` with gossip epochs of
    /// `4·log₂ n + 2` rounds, `Pr[leader] = 2/n` and `p_split = 0.1`
    /// (with `p_die` set by the log-drift balance described in the module
    /// docs).
    pub fn new(n: u64) -> Attempt1 {
        assert!(n >= 8, "target must be at least 8");
        let log2n = 64 - (n - 1).leading_zeros();
        let p_split: f64 = 0.1;
        let q = (-2.0f64).exp(); // P(no leader | m = N), Pr[leader] = 2/N
        let p_die = 1.0 - (-(q / (1.0 - q)) * (1.0 + p_split).ln()).exp();
        Attempt1 {
            target: n,
            epoch_len: 4 * log2n + 2,
            p_split,
            p_die,
        }
    }

    /// The epoch length in rounds.
    pub fn epoch_len(&self) -> u32 {
        self.epoch_len
    }

    /// The population target.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Per-epoch split probability on a "no leader" verdict.
    pub fn p_split(&self) -> f64 {
        self.p_split
    }

    /// Per-epoch death probability on a "leader heard" verdict.
    pub fn p_die(&self) -> f64 {
        self.p_die
    }
}

/// Attempt-1 agent state: a clock and the one-bit signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct A1State {
    /// Round within the epoch.
    pub round: u32,
    /// Whether this agent flipped 1 or has heard a 1 this epoch.
    pub signal: bool,
}

impl Observable for A1State {
    fn observe(&self) -> Observation {
        Observation {
            round_in_epoch: Some(self.round),
            active: self.signal,
            ..Observation::default()
        }
    }
}

impl Protocol for Attempt1 {
    type State = A1State;
    type Message = bool;

    fn initial_state(&self, _rng: &mut SimRng) -> A1State {
        A1State {
            round: 0,
            signal: false,
        }
    }

    fn message(&self, state: &A1State) -> bool {
        state.signal
    }

    fn step(&self, s: &mut A1State, incoming: Option<&bool>, rng: &mut SimRng) -> Action {
        s.round %= self.epoch_len;
        if s.round == 0 {
            // Leader coin: Pr[1] = 2/N.
            s.signal = rng.random_range(0..self.target / 2) == 0;
            s.round = 1;
            Action::Continue
        } else if s.round < self.epoch_len - 1 {
            if let Some(&heard) = incoming {
                s.signal |= heard;
            }
            s.round += 1;
            Action::Continue
        } else {
            let heard = s.signal || incoming.copied().unwrap_or(false);
            s.signal = false;
            s.round = 0;
            if heard {
                if rng.random_bool(self.p_die) {
                    Action::Die
                } else {
                    Action::Continue
                }
            } else if rng.random_bool(self.p_split) {
                Action::Split
            } else {
                Action::Continue
            }
        }
    }
}

/// Adaptive attack: inserts one `signal = 1` agent per epoch, right after
/// the coins are flipped. Cost: one alteration per epoch (`≪ K`), yet the
/// population collapses.
#[derive(Debug, Clone, Copy)]
pub struct SignalFlooder {
    epoch_len: u32,
}

impl SignalFlooder {
    /// Attacks epochs of the given length.
    pub fn new(epoch_len: u32) -> Self {
        SignalFlooder { epoch_len }
    }
}

impl Adversary<A1State> for SignalFlooder {
    fn name(&self) -> &'static str {
        "signal-flooder"
    }

    fn act(
        &mut self,
        ctx: &RoundContext,
        _agents: &[A1State],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<A1State>> {
        if ctx.round % u64::from(self.epoch_len) == 1 {
            vec![Alteration::Insert(A1State {
                round: 1,
                signal: true,
            })]
        } else {
            Vec::new()
        }
    }
}

/// Adaptive attack: reads every agent's memory and deletes signal carriers
/// right after the coin flips, so no epoch ever reports a leader and the
/// population grows without bound. Needs budget ≈ `2m/N` per round — a
/// small constant.
#[derive(Debug, Clone, Copy)]
pub struct SignalSuppressor;

impl Adversary<A1State> for SignalSuppressor {
    fn name(&self) -> &'static str {
        "signal-suppressor"
    }

    fn act(
        &mut self,
        _ctx: &RoundContext,
        agents: &[A1State],
        _rng: &mut SimRng,
    ) -> Vec<Alteration<A1State>> {
        agents
            .iter()
            .enumerate()
            .filter(|(_, a)| a.signal)
            .map(|(i, _)| Alteration::Delete(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_adversary::{ObliviousDeleter, Throttle};
    use popstab_sim::{Engine, HaltReason, RunSpec, SimConfig};

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
    fn log_drift_balances_at_target() {
        let p = Attempt1::new(N);
        let q = (-2.0f64).exp();
        let growth = q * (1.0 + p.p_split()).ln();
        let shrink = (1.0 - q) * (1.0 - p.p_die()).ln();
        assert!(
            (growth + shrink).abs() < 1e-12,
            "log drift {}",
            growth + shrink
        );
    }

    #[test]
    fn stable_without_adversary() {
        // Crude stability: within a factor of 3 over 30 epochs. The paper's
        // point is not that Attempt 1 is tight, but that it *works* absent
        // an adaptive adversary and shatters with one.
        let proto = Attempt1::new(N);
        let epoch = u64::from(proto.epoch_len());
        let mut engine = Engine::with_population(proto, cfg(1, 0), N as usize);
        let (lo, hi) = engine
            .run(RunSpec::rounds(30 * epoch), &mut ())
            .population_range();
        assert_eq!(engine.halted(), None);
        assert!(lo > N as usize / 3, "fell to {lo}");
        assert!(hi < 3 * N as usize, "rose to {hi}");
    }

    #[test]
    fn stable_under_oblivious_deletion() {
        // One deletion every 4 rounds ≈ 1% of N per epoch: well within the
        // restoring capacity.
        let proto = Attempt1::new(N);
        let epoch = u64::from(proto.epoch_len());
        let adv = Throttle::new(ObliviousDeleter::new(1), 4, 0);
        let mut engine = Engine::with_adversary(proto, adv, cfg(2, 1), N as usize);
        let (lo, hi) = engine
            .run(RunSpec::rounds(30 * epoch), &mut ())
            .population_range();
        assert_eq!(engine.halted(), None);
        assert!(lo > N as usize / 3, "fell to {lo}");
        assert!(hi < 3 * N as usize, "rose to {hi}");
    }

    #[test]
    fn signal_flooder_collapses_population() {
        let proto = Attempt1::new(N);
        let epoch = u64::from(proto.epoch_len());
        let p_die = proto.p_die();
        let adv = SignalFlooder::new(proto.epoch_len());
        let mut engine = Engine::with_adversary(proto, adv, cfg(3, 1), N as usize);
        // Enough epochs that (1−p_die)^epochs < 1/4; stop as soon as the
        // collapse threshold is crossed.
        let epochs = ((0.25f64).ln() / (1.0 - p_die).ln()).ceil() as u64 * 2;
        engine.run(
            RunSpec::until(epochs * epoch, |r| r.population_after < N as usize / 2),
            &mut (),
        );
        assert!(
            engine.population() < N as usize / 2,
            "population {} did not collapse",
            engine.population()
        );
    }

    #[test]
    fn signal_suppressor_explodes_population() {
        let proto = Attempt1::new(N);
        let epoch = u64::from(proto.epoch_len());
        let adv = SignalSuppressor;
        // Budget 64 per round is plenty to kill the ~2 leaders per epoch;
        // stop as soon as the explosion threshold is crossed.
        let mut engine = Engine::with_adversary(proto, adv, cfg(4, 64), N as usize);
        engine.run(
            RunSpec::until(60 * epoch, |r| r.population_after > 2 * N as usize),
            &mut (),
        );
        assert!(
            engine.population() > 2 * N as usize || engine.halted() == Some(HaltReason::Exploded),
            "population {} did not explode",
            engine.population()
        );
    }

    #[test]
    fn observation_maps_signal_to_active() {
        let s = A1State {
            round: 3,
            signal: true,
        };
        let obs = s.observe();
        assert!(obs.active);
        assert_eq!(obs.round_in_epoch, Some(3));
    }
}
