//! The worst-case adversary interface.
//!
//! The paper's adversary (§2) is computationally unbounded, observes the
//! entire history including the memory contents of every agent, and may
//! remove, insert (with arbitrary initial state) or modify up to `K` agents
//! per round. Inserted agents subsequently follow the protocol.
//!
//! The [`Adversary`] trait mirrors exactly that power: each round, before the
//! matching is sampled, the adversary receives the full state slice and
//! returns a list of [`Alteration`]s. The engine enforces the per-round
//! budget `K` by truncating the list.

use std::fmt;

use crate::rng::SimRng;

/// One adversarial operation. `Delete` and `Modify` indices refer to the
/// state slice passed to [`Adversary::act`] for the current round.
#[derive(Debug, Clone, PartialEq)]
pub enum Alteration<S> {
    /// Remove the agent at this index.
    Delete(usize),
    /// Insert a new agent with this (arbitrary) initial state.
    Insert(S),
    /// Overwrite the memory of the agent at this index.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundContext {
    /// Global round number (0-based).
    pub round: u64,
    /// The per-round alteration budget `K` the engine will enforce.
    pub budget: usize,
    /// The initial population target `N` (the adversary knows the protocol).
    pub target: u64,
}

/// A worst-case adversary.
///
/// Implementations see the complete state of every agent (`agents`) and the
/// round context, and may use their own randomness. Returning more than
/// `ctx.budget` alterations is allowed but futile: the engine truncates.
pub trait Adversary<S> {
    /// Human-readable strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Decides this round's alterations.
    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>>;

    /// Whether `act` is a guaranteed no-op: it never returns alterations,
    /// has no side effects, and does not read the state slice. Engines use
    /// this to skip storing `Vec<P::State>` from resident columns on the
    /// fast path: a declared no-op is handed an empty slice, not the
    /// population. Override it (as [`NoOpAdversary`] does) only when all
    /// three guarantees hold.
    fn is_noop(&self) -> bool {
        false
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
/// Send>`). Every method forwards, [`is_noop`](Adversary::is_noop)
/// included, so a boxed no-op keeps the engine's resident fast path.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn noop_returns_nothing() {
        let mut adv = NoOpAdversary;
        let ctx = RoundContext {
            round: 0,
            budget: 10,
            target: 100,
        };
        let out: Vec<Alteration<u8>> = adv.act(&ctx, &[1, 2, 3], &mut rng_from_seed(0));
        assert!(out.is_empty());
        assert_eq!(Adversary::<u8>::name(&adv), "none");
    }

    #[test]
    fn boxed_adversary_delegates() {
        let mut adv: Box<dyn Adversary<u8>> = Box::new(NoOpAdversary);
        let ctx = RoundContext {
            round: 3,
            budget: 1,
            target: 8,
        };
        assert!(adv.act(&ctx, &[], &mut rng_from_seed(0)).is_empty());
        assert_eq!(adv.name(), "none");
        assert!(adv.is_noop());
        let sendable: Box<dyn Adversary<u8> + Send> = Box::new(NoOpAdversary);
        assert!(sendable.is_noop());
        assert_eq!(sendable.name(), "none");
    }

    #[test]
    fn alteration_kind_predicates() {
        assert!(Alteration::<u8>::Delete(0).is_delete());
        assert!(!Alteration::<u8>::Delete(0).is_insert());
        assert!(Alteration::Insert(1u8).is_insert());
        assert!(!Alteration::Modify(0, 1u8).is_insert());
    }
}
