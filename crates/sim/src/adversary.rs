//! The worst-case adversary interface.
//!
//! The paper's adversary (§2) is computationally unbounded, observes the
//! entire history including the memory contents of every agent, and may
//! remove, insert (with arbitrary initial state) or modify up to `K` agents
//! per round. Inserted agents subsequently follow the protocol.
//!
//! The [`Adversary`] trait mirrors exactly that power: each round, before the
//! matching is sampled, the adversary receives the round's
//! [`RoundContext`] (which carries the population size and majority round)
//! and, unless it declares it does not read them
//! ([`Adversary::reads_states`]), the full state slice, and returns a list
//! of [`Alteration`]s. The engine enforces the per-round budget `K` by
//! truncating the list.

use std::fmt;

use crate::agent::Observable;
use crate::metrics::RoundStats;
use crate::rng::SimRng;

/// One adversarial operation. `Delete` and `Modify` indices are population
/// slots: slot `i` is the agent at index `i` of the engine's agent vector
/// at the start of the round, which is also index `i` of the state slice
/// when the adversary [reads states](Adversary::reads_states). An
/// adversary that does not read them is handed an empty slice and picks
/// slots below [`RoundContext::population`]; indices at or above it are
/// ignored.
#[derive(Debug, Clone, PartialEq)]
pub enum Alteration<S> {
    /// Remove the agent at this slot.
    Delete(usize),
    /// Insert a new agent with this (arbitrary) initial state.
    Insert(S),
    /// Overwrite the memory of the agent at this slot.
    Modify(usize, S),
}

impl<S> Alteration<S> {
    /// Whether this alteration removes an agent.
    pub fn is_delete(&self) -> bool {
        matches!(self, Alteration::Delete(_))
    }

    /// Whether this alteration inserts an agent.
    pub fn is_insert(&self) -> bool {
        matches!(self, Alteration::Insert(_))
    }
}

/// Per-round information handed to the adversary alongside the state slice.
///
/// The engine fills the population summary (`population` and
/// `majority_round`) for every adversary that is not the declared no-op
/// ([`Adversary::is_noop`]), from the resident columns' stats kernel when
/// the protocol has one and from [`RoundStats::observe`] of the agent
/// vector otherwise, so an adversary that needs only the summary can act
/// without reading a single agent ([`Adversary::reads_states`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundContext {
    /// Global round number (0-based).
    pub round: u64,
    /// The per-round alteration budget `K` the engine will enforce.
    pub budget: usize,
    /// The initial population target `N` (the adversary knows the protocol).
    pub target: u64,
    /// Agents alive at the start of the round: the slots `0..population`
    /// that `Delete` and `Modify` may name.
    pub population: usize,
    /// The most common epoch-round value among the agents
    /// ([`RoundStats::majority_round`]), `None` when no agent reports one
    /// or the adversary is the declared no-op.
    pub majority_round: Option<u32>,
}

impl RoundContext {
    /// The context of round `round` over `agents`, with the population
    /// summary taken from [`RoundStats::observe`] — what the engine hands
    /// an adversary when the population is `agents`. For driving an
    /// adversary by hand, as tests do.
    pub fn observe<S: Observable>(round: u64, budget: usize, target: u64, agents: &[S]) -> Self {
        let stats = RoundStats::observe(round, agents);
        RoundContext {
            round,
            budget,
            target,
            population: stats.population,
            majority_round: stats.majority_round,
        }
    }
}

/// A worst-case adversary.
///
/// Implementations see the round context and, when they
/// [read states](Self::reads_states), the complete state of every agent
/// (`agents`), and may use their own randomness. Returning more than
/// `ctx.budget` alterations is allowed but futile: the engine truncates.
pub trait Adversary<S> {
    /// Human-readable strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Decides this round's alterations. `agents` is the population when
    /// [`reads_states`](Self::reads_states) is `true`, and empty otherwise.
    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>>;

    /// Whether `act` is a guaranteed no-op: it never returns alterations,
    /// has no side effects, and reads neither the state slice nor the
    /// context's population summary. Engines use this to skip both the
    /// summary and storing `Vec<P::State>` from resident columns on the
    /// fast path: a declared no-op is handed an empty slice, not the
    /// population. Override it (as [`NoOpAdversary`] does) only when all
    /// three guarantees hold.
    fn is_noop(&self) -> bool {
        false
    }

    /// Whether `act` reads the state slice. An adversary that decides from
    /// the [`RoundContext`] alone (its size and majority round) returns
    /// `false` and is handed an empty slice, so a resident population is
    /// not stored for it. Like [`is_noop`](Self::is_noop) this describes
    /// the type, not a setting: wrappers forward it, and the default is
    /// `!is_noop()`.
    fn reads_states(&self) -> bool {
        !self.is_noop()
    }
}

/// The absent adversary: never alters anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoOpAdversary;

impl fmt::Display for NoOpAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no-op adversary")
    }
}

impl<S> Adversary<S> for NoOpAdversary {
    fn name(&self) -> &'static str {
        "none"
    }

    fn act(&mut self, _ctx: &RoundContext, _agents: &[S], _rng: &mut SimRng) -> Vec<Alteration<S>> {
        Vec::new()
    }

    fn is_noop(&self) -> bool {
        true
    }
}

/// Boxed adversaries are adversaries too, so experiment suites can hold
/// heterogeneous strategies in one collection, and fork branches and batch
/// jobs can carry them across worker threads (`Box<dyn Adversary<S> +
/// Send>`). Every method forwards, [`is_noop`](Adversary::is_noop) and
/// [`reads_states`](Adversary::reads_states) included, so a boxed no-op or
/// summary-only adversary keeps the engine's resident fast path.
impl<S, A: Adversary<S> + ?Sized> Adversary<S> for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>> {
        (**self).act(ctx, agents, rng)
    }

    fn is_noop(&self) -> bool {
        (**self).is_noop()
    }

    fn reads_states(&self) -> bool {
        (**self).reads_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::InertState;
    use crate::rng::rng_from_seed;

    #[test]
    fn noop_returns_nothing() {
        let mut adv = NoOpAdversary;
        let agents = [InertState; 3];
        let ctx = RoundContext::observe(0, 10, 100, &agents);
        assert_eq!((ctx.population, ctx.majority_round), (3, None));
        let out = adv.act(&ctx, &agents, &mut rng_from_seed(0));
        assert!(out.is_empty());
        assert_eq!(Adversary::<InertState>::name(&adv), "none");
        assert!(!Adversary::<InertState>::reads_states(&adv));
    }

    /// Decides from the context alone: deletes slot 0.
    struct FirstDeleter;

    impl Adversary<u8> for FirstDeleter {
        fn name(&self) -> &'static str {
            "first"
        }

        fn act(
            &mut self,
            ctx: &RoundContext,
            _agents: &[u8],
            _rng: &mut SimRng,
        ) -> Vec<Alteration<u8>> {
            (ctx.population > 0)
                .then_some(Alteration::Delete(0))
                .into_iter()
                .collect()
        }

        fn reads_states(&self) -> bool {
            false
        }
    }

    #[test]
    fn boxed_adversary_delegates() {
        let mut adv: Box<dyn Adversary<InertState>> = Box::new(NoOpAdversary);
        let ctx = RoundContext::observe(3, 1, 8, &[InertState]);
        assert!(adv.act(&ctx, &[], &mut rng_from_seed(0)).is_empty());
        assert_eq!(adv.name(), "none");
        assert!(adv.is_noop());
        assert!(!adv.reads_states());
        let sendable: Box<dyn Adversary<InertState> + Send> = Box::new(NoOpAdversary);
        assert!(sendable.is_noop());
        assert!(!sendable.reads_states());
        assert_eq!(sendable.name(), "none");

        // A summary-only adversary stays one through both box flavours.
        let ctx = RoundContext {
            population: 2,
            ..ctx
        };
        let mut first: Box<dyn Adversary<u8>> = Box::new(FirstDeleter);
        assert!(!first.is_noop() && !first.reads_states());
        assert_eq!(
            first.act(&ctx, &[], &mut rng_from_seed(0)),
            [Alteration::Delete(0)]
        );
        let sendable: Box<dyn Adversary<u8> + Send> = Box::new(FirstDeleter);
        assert!(!sendable.is_noop() && !sendable.reads_states());
    }

    #[test]
    fn alteration_kind_predicates() {
        assert!(Alteration::<u8>::Delete(0).is_delete());
        assert!(!Alteration::<u8>::Delete(0).is_insert());
        assert!(Alteration::Insert(1u8).is_insert());
        assert!(!Alteration::Modify(0, 1u8).is_insert());
    }
}
