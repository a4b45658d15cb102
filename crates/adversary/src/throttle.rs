//! Rate-limiting combinator: convert per-round strategies into per-epoch
//! (or any-period) strategies.
//!
//! ### Why this exists — the laptop-scale budget translation
//!
//! The paper's Theorem 1 lets the adversary alter `K = N^{1/4−ε}` agents
//! *per round*, but its proof (Lemma 3) needs `K·T ≤ N^{1/4}/8` — satisfied
//! only when `N^ε ≥ 4·log³N`, i.e. at astronomically large `N`. At any
//! simulable scale even `K = 1` per round injects `T = Θ(log³N)` agents per
//! epoch, exceeding the protocol's entire per-epoch restoring capacity of
//! `γ(√N − 8)/8` agents (see `popstab-analysis::equilibrium`).
//!
//! The scale-faithful translation is therefore to meter budgets **per
//! epoch**: wrapping a strategy in [`Throttle`] with `period = T` gives the
//! adversary `K` alterations per epoch, and the measured tolerance curve
//! `K_max(N)` (experiment F3) then grows polynomially in `N` exactly as the
//! paper's analysis predicts — who wins, and how the crossover scales, is
//! preserved; only the unreachable asymptotic constant is dropped. The
//! experiments that run throttled suites (`attack`, `ksweep`, `lemmas`) are
//! listed by `experiments --help`.

use popstab_sim::{Adversary, Alteration, RoundContext, SimRng};

/// Lets the inner adversary act only on rounds `≡ phase (mod period)`.
#[derive(Debug, Clone)]
pub struct Throttle<A> {
    inner: A,
    period: u64,
    phase: u64,
}

impl<A> Throttle<A> {
    /// Fires the inner strategy on rounds `≡ phase (mod period)`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `phase ≥ period`.
    pub fn new(inner: A, period: u64, phase: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(phase < period, "phase must be below period");
        Throttle {
            inner,
            period,
            phase,
        }
    }

    /// Fires once per epoch of length `epoch_len`, in round 1 of the epoch
    /// (right after leader selection — the most sensitive moment).
    pub fn per_epoch(inner: A, epoch_len: u32) -> Self {
        Throttle::new(inner, u64::from(epoch_len), 1)
    }

    /// The inner strategy.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<S, A: Adversary<S>> Adversary<S> for Throttle<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>> {
        if ctx.round % self.period == self.phase {
            self.inner.act(ctx, agents, rng)
        } else {
            Vec::new()
        }
    }

    fn reads_states(&self) -> bool {
        self.inner.reads_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::RandomDeleter;
    use popstab_core::params::Params;
    use popstab_core::state::AgentState;
    use popstab_sim::rng::rng_from_seed;

    fn ctx(round: u64, agents: &[AgentState]) -> RoundContext {
        RoundContext::observe(round, 10, 1024, agents)
    }

    #[test]
    fn fires_only_on_phase_rounds() {
        let p = Params::for_target(1024).unwrap();
        let agents = vec![AgentState::fresh(&p); 10];
        let mut adv = Throttle::new(RandomDeleter::new(2), 5, 1);
        let mut rng = rng_from_seed(1);
        for round in 0..20u64 {
            let out = adv.act(&ctx(round, &agents), &[], &mut rng);
            if round % 5 == 1 {
                assert_eq!(out.len(), 2, "round {round}");
            } else {
                assert!(out.is_empty(), "round {round}");
            }
        }
    }

    #[test]
    fn per_epoch_uses_round_one() {
        let p = Params::for_target(1024).unwrap();
        let agents = vec![AgentState::fresh(&p); 10];
        let mut adv = Throttle::per_epoch(RandomDeleter::new(1), 500);
        let mut rng = rng_from_seed(2);
        assert!(adv.act(&ctx(0, &agents), &[], &mut rng).is_empty());
        assert_eq!(adv.act(&ctx(1, &agents), &[], &mut rng).len(), 1);
        assert!(adv.act(&ctx(2, &agents), &[], &mut rng).is_empty());
        assert_eq!(adv.act(&ctx(501, &agents), &[], &mut rng).len(), 1);
        assert_eq!(adv.name(), "random-delete");
        assert!(!adv.reads_states());
        let sniper = Throttle::per_epoch(crate::LeaderSniper::new(1, None), 500);
        assert!(Adversary::<AgentState>::reads_states(&sniper));
    }

    #[test]
    #[should_panic(expected = "phase must be below period")]
    fn phase_out_of_range_panics() {
        Throttle::new(RandomDeleter::new(1), 3, 3);
    }
}
