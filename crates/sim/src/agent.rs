//! Protocol abstraction: what an agent is and how it steps.
//!
//! A protocol defines the per-agent state, the message an agent broadcasts to
//! its matched neighbor, and the synchronous transition applied once per
//! round. The engine guarantees the population-protocol semantics of the
//! paper: messages are composed from the *pre-round* state of both partners
//! (a simultaneous exchange), then every agent steps exactly once, then
//! splits and deaths are applied.

use std::fmt;

use crate::rng::SimRng;

/// The decision an agent takes at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Action {
    /// Keep living with the (possibly mutated) state.
    #[default]
    Continue,
    /// Split into two daughter agents, both inheriting the post-step state.
    Split,
    /// Remove this agent from the population.
    Die,
    /// Remove the matched partner from the population (a no-op when
    /// unmatched). This is the *extended* model of §1.2 of the paper
    /// ("a different model that allows agents not only to self-destruct but
    /// also to remove other agents it encounters"), used by
    /// `popstab-extensions` to survive maliciously-programmed insertions.
    /// The core protocol never emits it.
    KillPartner,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Continue => f.write_str("continue"),
            Action::Split => f.write_str("split"),
            Action::Die => f.write_str("die"),
            Action::KillPartner => f.write_str("kill partner"),
        }
    }
}

/// A synchronous population protocol.
///
/// Implementations must be deterministic given the RNG stream: all randomness
/// goes through the `rng` argument so simulations replay exactly from a seed.
pub trait Protocol {
    /// Per-agent memory. Cloned on splits; the memory *footprint* that the
    /// paper accounts for is computed by protocol-specific accounting, not by
    /// `size_of`, because instrumentation fields are allowed (and documented)
    /// in simulation.
    type State: Clone + fmt::Debug + Observable;

    /// The message broadcast to the matched neighbor each round.
    type Message: Clone + fmt::Debug;

    /// State of a freshly created agent at system onset ("all variables set
    /// to zero" in the paper).
    fn initial_state(&self, rng: &mut SimRng) -> Self::State;

    /// Composes the message this agent sends this round, from its pre-round
    /// state. Called before any agent steps, so exchanges are simultaneous.
    fn message(&self, state: &Self::State) -> Self::Message;

    /// Advances one agent by one round. `incoming` is `Some` iff the agent
    /// was matched this round (`⊥` in the paper otherwise).
    fn step(
        &self,
        state: &mut Self::State,
        incoming: Option<&Self::Message>,
        rng: &mut SimRng,
    ) -> Action;

    /// The protocol's columnar step-phase executor, a fresh
    /// [`ColumnarStep`](crate::columns::ColumnarStep) with empty buffers, if
    /// it opts in to struct-of-arrays execution (see [`crate::columns`]).
    /// Returning `Some` switches every engine running the protocol onto the
    /// columnar path. The default is `None`: the engine runs the scalar
    /// [`step`](Protocol::step) loop.
    /// Implementations returning `Some` must produce bit-identical results
    /// on either path — the columnar stepper is an evaluation-batching
    /// change, never a semantic one.
    ///
    /// `where Self: Sized` keeps the trait object-safe; engines are generic
    /// over `P: Protocol`, so they always see the concrete override.
    fn columnar(&self) -> Option<Box<dyn crate::columns::ColumnarStep<Self::State>>>
    where
        Self: Sized,
    {
        None
    }
}

/// A protocol-agnostic snapshot of one agent, used by the metrics recorder
/// and by generic adversaries.
///
/// Protocols map their state onto whichever fields make sense and leave the
/// rest at the defaults. All fields describe *logical* protocol state, never
/// simulation plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observation {
    /// Round counter within the protocol's epoch, if the protocol has one.
    pub round_in_epoch: Option<u32>,
    /// Whether the agent is active/colored.
    pub active: bool,
    /// The agent's color, if it has one (`false` = color 0, `true` = color 1).
    pub color: Option<bool>,
    /// Whether the agent is currently trying to recruit.
    pub recruiting: bool,
    /// Whether the agent believes it is in its evaluation round.
    pub in_eval_phase: bool,
    /// Whether the agent became a leader this epoch (instrumentation).
    pub is_leader: bool,
    /// Cluster/lineage tag (instrumentation), if tracked.
    pub lineage: Option<u64>,
}

/// Exposes a protocol state to generic observers.
pub trait Observable {
    /// Produces the generic snapshot of this state.
    fn observe(&self) -> Observation;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_default_is_continue() {
        assert_eq!(Action::default(), Action::Continue);
    }

    #[test]
    fn action_display() {
        assert_eq!(Action::Continue.to_string(), "continue");
        assert_eq!(Action::Split.to_string(), "split");
        assert_eq!(Action::Die.to_string(), "die");
    }

    #[test]
    fn observation_default_is_inert() {
        let obs = Observation::default();
        assert!(!obs.active);
        assert_eq!(obs.color, None);
        assert!(!obs.recruiting);
        assert!(!obs.in_eval_phase);
        assert!(!obs.is_leader);
        assert_eq!(obs.round_in_epoch, None);
        assert_eq!(obs.lineage, None);
    }
}
