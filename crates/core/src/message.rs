//! Messages and the three-bit wire format (§4 of the paper).
//!
//! A naive implementation sends four booleans: `(inEvalPhase, active, color,
//! recruiting)`. The paper observes that three bits suffice because the
//! receiver never needs all four simultaneously:
//!
//! * `inEvalPhase = 1` → send `(active, color)` — `recruiting` is
//!   irrelevant during evaluation;
//! * `inEvalPhase = 0, recruiting = 1` → send `color` — a recruiting agent
//!   is necessarily active, so `active` is implied;
//! * `inEvalPhase = 0, recruiting = 0` → send `active` — the color of a
//!   non-recruiting agent is never read during recruitment.
//!
//! [`Wire`] is that three-bit encoding. The protocol's decision logic only
//! ever consumes a decoded [`Wire`] (see
//! [`PopulationStability`](crate::protocol::PopulationStability)), so the
//! three-bit bound is enforced structurally, not just asserted.

use crate::state::{AgentState, Color};

/// The logical message an agent broadcasts, plus the `lineage`
/// instrumentation tag that rides alongside in simulation (it lets
/// experiments track recruitment trees; the protocol never reads it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Whether the sender is in its evaluation round.
    pub in_eval_phase: bool,
    /// Whether the sender is active.
    pub active: bool,
    /// The sender's color.
    pub color: Color,
    /// Whether the sender is recruiting this subphase.
    pub recruiting: bool,
    /// Cluster tag of the sender (instrumentation, not on the wire).
    pub lineage: u64,
}

impl Message {
    /// Composes the message an agent in state `s` sends, given whether the
    /// protocol considers it to be in the evaluation round.
    pub fn compose(s: &AgentState, in_eval_phase: bool) -> Message {
        Message {
            in_eval_phase,
            active: s.active,
            color: s.color,
            recruiting: s.recruiting,
            lineage: s.lineage,
        }
    }

    /// The message a receiver reconstructs from a [`Wire`]: every field the
    /// wire carries, the implied ones filled in, and `lineage` alongside.
    /// Fields off the wire (the color of an idle sender, `recruiting` in
    /// evaluation) read as zero, so `Message::from_wire(w, _).to_wire() == w`
    /// for every wire.
    pub fn from_wire(wire: Wire, lineage: u64) -> Message {
        Message {
            in_eval_phase: wire.in_eval_phase(),
            active: wire.active(),
            color: wire.color().unwrap_or(Color::Zero),
            recruiting: wire.recruiting(),
            lineage,
        }
    }

    /// Encodes onto the three-bit wire, dropping exactly the fields the
    /// receiver never needs.
    pub fn to_wire(&self) -> Wire {
        let (x, y) = if self.in_eval_phase {
            (self.active, self.color == Color::One)
        } else if self.recruiting {
            (true, self.color == Color::One)
        } else {
            (false, self.active)
        };
        Wire::from_bits(self.in_eval_phase, x, y)
    }
}

/// A three-bit wire message and its decoded receiver view.
///
/// Bit layout (low to high): `y`, `x`, `in_eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire(u8);

impl Wire {
    /// Builds from the three raw bits.
    pub fn from_bits(in_eval: bool, x: bool, y: bool) -> Wire {
        Wire(u8::from(y) | (u8::from(x) << 1) | (u8::from(in_eval) << 2))
    }

    /// The raw three-bit value (`0..8`).
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Whether the sender reported being in its evaluation round. Always
    /// available — it drives `CheckRoundConsistency`.
    pub fn in_eval_phase(&self) -> bool {
        self.0 & 0b100 != 0
    }

    /// Whether the sender is active.
    ///
    /// Decoding: during evaluation it is the transmitted `x` bit; outside
    /// evaluation a recruiting sender is necessarily active, and a
    /// non-recruiting sender transmits it as `y`.
    pub fn active(&self) -> bool {
        let x = self.0 & 0b010 != 0;
        let y = self.0 & 0b001 != 0;
        if self.in_eval_phase() {
            x
        } else if x {
            true // recruiting implies active
        } else {
            y
        }
    }

    /// Whether the sender is recruiting. Only transmitted outside the
    /// evaluation round; during evaluation the receiver never consults it
    /// and `false` is returned.
    pub fn recruiting(&self) -> bool {
        !self.in_eval_phase() && (self.0 & 0b010 != 0)
    }

    /// The sender's color, when it is on the wire: during evaluation, or
    /// while the sender is recruiting. `None` otherwise — and the protocol
    /// provably never reads it in those states.
    pub fn color(&self) -> Option<Color> {
        let y = self.0 & 0b001;
        if self.in_eval_phase() || self.recruiting() {
            Some(Color::from_bit(y))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::state::AgentState;

    fn msg(in_eval: bool, active: bool, color: Color, recruiting: bool) -> Message {
        Message {
            in_eval_phase: in_eval,
            active,
            color,
            recruiting,
            lineage: 0,
        }
    }

    #[test]
    fn wire_fits_in_three_bits() {
        for in_eval in [false, true] {
            for active in [false, true] {
                for color in [Color::Zero, Color::One] {
                    for recruiting in [false, true] {
                        let w = msg(in_eval, active, color, recruiting).to_wire();
                        assert!(w.bits() < 8, "wire overflowed 3 bits: {:?}", w);
                    }
                }
            }
        }
    }

    #[test]
    fn eval_messages_carry_active_and_color() {
        for active in [false, true] {
            for color in [Color::Zero, Color::One] {
                let w = msg(true, active, color, false).to_wire();
                assert!(w.in_eval_phase());
                assert_eq!(w.active(), active);
                assert_eq!(w.color(), Some(color));
            }
        }
    }

    #[test]
    fn recruiting_messages_carry_color_and_imply_active() {
        for color in [Color::Zero, Color::One] {
            let w = msg(false, true, color, true).to_wire();
            assert!(!w.in_eval_phase());
            assert!(w.recruiting());
            assert!(w.active());
            assert_eq!(w.color(), Some(color));
        }
    }

    #[test]
    fn idle_messages_carry_active_only() {
        for active in [false, true] {
            let w = msg(false, active, Color::One, false).to_wire();
            assert!(!w.in_eval_phase());
            assert!(!w.recruiting());
            assert_eq!(w.active(), active);
            assert_eq!(w.color(), None, "color must not leak outside eval/recruit");
        }
    }

    #[test]
    fn compose_reads_state() {
        let p = Params::for_target(1024).unwrap();
        let s = AgentState::leader(&p, Color::One, 9);
        let m = Message::compose(&s, false);
        assert!(m.active && m.recruiting && !m.in_eval_phase);
        assert_eq!(m.color, Color::One);
        assert_eq!(m.lineage, 9);
    }

    #[test]
    fn all_eight_wire_values_decode_without_panicking() {
        for bits in 0..8u8 {
            let w = Wire(bits);
            let _ = w.in_eval_phase();
            let _ = w.active();
            let _ = w.recruiting();
            let _ = w.color();
        }
    }

    #[test]
    fn from_wire_round_trips_every_wire() {
        for bits in 0..8u8 {
            let w = Wire(bits);
            let m = Message::from_wire(w, 42);
            assert_eq!(m.to_wire(), w, "wire {bits:03b}");
            assert_eq!(m.lineage, 42);
        }
    }

    #[test]
    fn decoding_is_consistent_for_honest_states() {
        // For every state an honest agent can be in, encode->decode preserves
        // exactly the fields the receiver is entitled to read.
        let honest = [
            msg(false, false, Color::Zero, false), // inactive idle
            msg(false, true, Color::Zero, false),  // active idle
            msg(false, true, Color::One, true),    // recruiting
            msg(false, true, Color::Zero, true),   // recruiting
            msg(true, false, Color::Zero, false),  // eval, inactive
            msg(true, true, Color::One, false),    // eval, active
            msg(true, true, Color::Zero, false),   // eval, active
        ];
        for m in honest {
            let w = m.to_wire();
            assert_eq!(w.in_eval_phase(), m.in_eval_phase);
            assert_eq!(w.active(), m.active);
            if m.in_eval_phase || m.recruiting {
                assert_eq!(w.color(), Some(m.color));
            }
            if !m.in_eval_phase {
                assert_eq!(w.recruiting(), m.recruiting);
            }
        }
    }
}
