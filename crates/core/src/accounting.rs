//! Resource accounting: states, memory bits and message size (Theorem 2).
//!
//! The paper claims the protocol needs `ω(log² N)` states — equivalently
//! `Θ(log log N)` bits — per agent and three-bit messages. The *protocol
//! memory* of an agent is:
//!
//! * `round ∈ [0, T)` — `⌈log₂ T⌉` bits,
//! * three booleans: `active`, `color`, `recruiting`,
//! * the biased-coin scratch counter, which the paper shows can reuse the
//!   `round` storage because coins are tossed only in the leader-selection
//!   and evaluation rounds (when the counter's value is known from one
//!   indicator bit each).
//!
//! Instrumentation fields of [`AgentState`](crate::state::AgentState)
//! (`to_recruit`, `is_leader`, `lineage`, `epoch_len`) are simulation-side
//! and excluded: the protocol's behaviour never depends on them (see their
//! field docs).

use crate::coin::scratch_bits;
use crate::params::Params;

/// Number of protocol-relevant boolean flags (`active`, `color`,
/// `recruiting`).
pub const FLAG_BITS: u32 = 3;

/// Message size on the wire, in bits.
pub const MESSAGE_BITS: u32 = 3;

/// Static resource usage of one protocol instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Number of distinct protocol states per agent: `T × 2^flags`.
    pub states: u128,
    /// Agent memory in bits: `⌈log₂ states⌉`.
    pub memory_bits: u32,
    /// Message size in bits (always 3).
    pub message_bits: u32,
    /// Scratch bits Algorithm 4 needs for the leader coin (reuses `round`
    /// storage; listed for transparency).
    pub coin_scratch_bits: u32,
}

/// Computes the resource usage of the protocol under `params`.
///
/// ```
/// let p = popstab_core::params::Params::for_target(1024)?;
/// let r = popstab_core::accounting::resources(&p);
/// assert_eq!(r.message_bits, 3);
/// assert_eq!(r.states, 500 * 8); // T × 2^3
/// # Ok::<(), popstab_core::params::ParamsError>(())
/// ```
pub fn resources(params: &Params) -> Resources {
    let states = u128::from(params.epoch_len()) << FLAG_BITS;
    let memory_bits = 128 - (states - 1).leading_zeros();
    let coin_scratch =
        scratch_bits(params.leader_bias_exp()).max(scratch_bits(params.split_bias_exp()));
    Resources {
        states,
        memory_bits,
        message_bits: MESSAGE_BITS,
        coin_scratch_bits: coin_scratch,
    }
}

/// `log₂² N`, the paper's lower-bound yardstick: the protocol must use
/// `ω(log² N)` states, i.e. strictly more than any constant multiple of this
/// as `N → ∞`.
pub fn log2_squared(params: &Params) -> u128 {
    u128::from(params.log2_n()) * u128::from(params.log2_n())
}

/// `log₂³ N`, the state count of the paper's default `T_inner = log² N`
/// configuration up to the constant `½·2³`.
pub fn log2_cubed(params: &Params) -> u128 {
    log2_squared(params) * u128::from(params.log2_n())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_theta_log_cubed_states() {
        for log2_n in [10u32, 12, 14, 16, 20] {
            let p = Params::for_target(1u64 << log2_n).unwrap();
            let r = resources(&p);
            // T = ½ log³N, states = 8T = 4 log³N exactly.
            assert_eq!(r.states, 4 * log2_cubed(&p));
        }
    }

    #[test]
    fn memory_is_theta_log_log_n_bits() {
        // For N = 2^10 .. 2^20, memory stays under 5 + 3·log2(log2 N) bits —
        // doubly logarithmic, as claimed.
        for log2_n in [10u32, 12, 14, 16, 18, 20] {
            let p = Params::for_target(1u64 << log2_n).unwrap();
            let r = resources(&p);
            let bound = 5.0 + 3.0 * (log2_n as f64).log2();
            assert!(
                f64::from(r.memory_bits) <= bound,
                "N=2^{log2_n}: {} bits > {bound}",
                r.memory_bits
            );
        }
    }

    #[test]
    fn messages_are_three_bits_for_all_n() {
        for log2_n in [10u32, 14, 20, 26] {
            let p = Params::for_target(1u64 << log2_n).unwrap();
            assert_eq!(resources(&p).message_bits, 3);
        }
    }

    #[test]
    fn shorter_subphases_reach_omega_log_squared() {
        // With T_inner = c·log N (the smallest admissible order), states are
        // Θ(log² N): the paper's ω(log² N) bound is tight in this direction.
        let log2_n = 16u32;
        let p = Params::builder(1u64 << log2_n)
            .t_inner(4 * log2_n)
            .build()
            .unwrap();
        let r = resources(&p);
        assert_eq!(r.states, u128::from(p.epoch_len()) * 8);
        assert!(
            r.states < 4 * log2_cubed(&p),
            "shortened config should use fewer states"
        );
        assert!(r.states >= log2_squared(&p), "must stay above log² N");
    }

    #[test]
    fn coin_scratch_fits_in_round_storage() {
        // The coin's scratch counter must fit in the bits already budgeted
        // for the round counter, which is the paper's reuse argument.
        for log2_n in [10u32, 16, 20] {
            let p = Params::for_target(1u64 << log2_n).unwrap();
            let r = resources(&p);
            let round_bits = 32 - (p.epoch_len() - 1).leading_zeros();
            assert!(r.coin_scratch_bits <= round_bits);
        }
    }
}
