//! Deterministic fault injection.
//!
//! Testing the fault-tolerance layer needs faults, and this repository's
//! determinism contract applies to the faults themselves: a fault schedule
//! must be a pure function of a seed so a failing CI run can be replayed
//! locally byte for byte. [`FaultPlan`] is that schedule — every decision
//! (does job `i` panic on attempt `a`? which bit of a snapshot flips?) is
//! keyed on `(fault_seed, domain, key)` and nothing else. No global state,
//! no wall clock, no entropy.
//!
//! The injected faults mirror the failure modes the layer defends against:
//!
//! * **Job panics** — [`maybe_panic`](FaultPlan::maybe_panic) inside a
//!   [`BatchRunner::run_faulty`](crate::batch::BatchRunner::run_faulty)
//!   job panics on the first [`panic_attempts`](FaultPlan::panic_attempts)
//!   attempts of a deterministically chosen subset of jobs, so retries
//!   succeed and the sweep must come out bit-identical to a fault-free one.
//! * **Snapshot corruption** — [`corrupt`](FaultPlan::corrupt) flips one
//!   seed-chosen bit and [`truncate_len`](FaultPlan::truncate_len) picks a
//!   seed-chosen cut point, driving the checksum/truncation rejection paths
//!   of [`crate::snapshot`].
//!
//! All panic messages start with `"injected fault:"` so test harnesses can
//! distinguish scheduled faults from real bugs.

use crate::rng::derive_seed;

/// How an injected panic message begins — filter on this to separate
/// scheduled faults from genuine failures.
pub const INJECTED_FAULT_PREFIX: &str = "injected fault:";

/// The SplitMix64 finalizer: a bijective mixer whose output bits are
/// statistically independent of the input's, so consecutive keys (job
/// indices, round numbers) yield uncorrelated decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible fault schedule: pure function of `(fault_seed, domain,
/// key)` (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    panic_attempts: u32,
}

impl FaultPlan {
    /// A plan keyed on `fault_seed` that injects nothing until rates are
    /// configured with the builder methods.
    pub fn new(fault_seed: u64) -> FaultPlan {
        FaultPlan {
            seed: fault_seed,
            panic_rate: 0.0,
            panic_attempts: 1,
        }
    }

    /// Makes each job faulty independently with probability `rate`
    /// (clamped to `0.0..=1.0`).
    pub fn panic_rate(mut self, rate: f64) -> FaultPlan {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// A faulty job panics on its first `attempts` attempts (clamped to at
    /// least 1), then succeeds — set it below the retry bound to exercise
    /// recovery, at or above it to exercise quarantine.
    pub fn panic_attempts(mut self, attempts: u32) -> FaultPlan {
        self.panic_attempts = attempts.max(1);
        self
    }

    /// The fault seed the whole schedule derives from.
    pub fn fault_seed(&self) -> u64 {
        self.seed
    }

    /// The per-fault decision stream: 64 well-mixed bits determined by
    /// `(fault_seed, domain, key)`.
    fn decide(&self, domain: &str, key: u64) -> u64 {
        mix(derive_seed(self.seed, domain).wrapping_add(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// A Bernoulli draw from the decision stream: the top 53 bits map
    /// uniformly onto `[0, 1)` and compare against `rate`.
    fn bernoulli(&self, domain: &str, key: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let unit = (self.decide(domain, key) >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// Whether job `job_index` is in the faulty subset.
    pub fn job_is_faulty(&self, job_index: usize) -> bool {
        self.bernoulli("fault.job-panic", job_index as u64, self.panic_rate)
    }

    /// Whether attempt `attempt` (1-based) of job `job_index` should panic:
    /// the job is faulty and the attempt is within the panic window.
    pub fn should_panic(&self, job_index: usize, attempt: u32) -> bool {
        attempt <= self.panic_attempts && self.job_is_faulty(job_index)
    }

    /// Panics with an [`INJECTED_FAULT_PREFIX`] message when
    /// [`should_panic`](FaultPlan::should_panic) says so; call it at the
    /// top of a `run_faulty` job body.
    ///
    /// # Panics
    ///
    /// By design, on the scheduled `(job_index, attempt)` pairs.
    pub fn maybe_panic(&self, job_index: usize, attempt: u32) {
        if self.should_panic(job_index, attempt) {
            panic!("{INJECTED_FAULT_PREFIX} job {job_index} attempt {attempt}");
        }
    }

    /// Flips one seed-chosen bit of `bytes` in place and returns the byte
    /// offset it flipped, or `None` when `bytes` is empty. Each `key`
    /// (e.g. a checkpoint slot index) picks an independent position.
    pub fn corrupt(&self, bytes: &mut [u8], key: u64) -> Option<usize> {
        if bytes.is_empty() {
            return None;
        }
        let draw = self.decide("fault.corrupt", key);
        let offset = (draw >> 3) as usize % bytes.len();
        bytes[offset] ^= 1 << (draw & 7);
        Some(offset)
    }

    /// A seed-chosen truncation point strictly inside `0..len` (or 0 when
    /// `len` is 0) — feed it to a slicing operation to simulate a torn
    /// write.
    pub fn truncate_len(&self, len: usize, key: u64) -> usize {
        if len == 0 {
            return 0;
        }
        self.decide("fault.truncate", key) as usize % len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::new(41).panic_rate(0.3);
        let b = FaultPlan::new(41).panic_rate(0.3);
        for i in 0..200 {
            assert_eq!(a.job_is_faulty(i), b.job_is_faulty(i));
        }
        let mut x = vec![0u8; 64];
        let mut y = vec![0u8; 64];
        assert_eq!(a.corrupt(&mut x, 3), b.corrupt(&mut y, 3));
        assert_eq!(x, y);
    }

    #[test]
    fn distinct_seeds_schedule_distinct_faults() {
        let a = FaultPlan::new(1).panic_rate(0.5);
        let b = FaultPlan::new(2).panic_rate(0.5);
        let differ = (0..256).any(|i| a.job_is_faulty(i) != b.job_is_faulty(i));
        assert!(differ, "seeds 1 and 2 scheduled identical faults");
    }

    #[test]
    fn rates_are_honored_roughly() {
        let plan = FaultPlan::new(7).panic_rate(0.25);
        let faulty = (0..4000).filter(|&i| plan.job_is_faulty(i)).count();
        assert!((800..1200).contains(&faulty), "rate 0.25 hit {faulty}/4000");
        assert!((0..4000).all(|i| !FaultPlan::new(7).job_is_faulty(i)));
        let always = FaultPlan::new(7).panic_rate(2.0);
        assert!(
            (0..100).all(|i| always.job_is_faulty(i)),
            "rate clamps to 1"
        );
    }

    #[test]
    fn panic_window_respects_the_attempt_bound() {
        let plan = FaultPlan::new(11).panic_rate(1.0).panic_attempts(2);
        assert!(plan.should_panic(0, 1));
        assert!(plan.should_panic(0, 2));
        assert!(!plan.should_panic(0, 3));
        let caught = std::panic::catch_unwind(|| plan.maybe_panic(5, 1)).unwrap_err();
        let message = crate::batch::panic_message(caught.as_ref());
        assert_eq!(message, "injected fault: job 5 attempt 1");
        plan.maybe_panic(5, 3); // outside the window: no panic
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = FaultPlan::new(13);
        let clean = vec![0xA5u8; 128];
        let mut dirty = clean.clone();
        let offset = plan.corrupt(&mut dirty, 0).unwrap();
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(c, d)| (c ^ d).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_ne!(clean[offset], dirty[offset]);
        assert_eq!(plan.corrupt(&mut [], 0), None);
    }

    #[test]
    fn truncation_points_stay_in_bounds() {
        let plan = FaultPlan::new(17);
        assert_eq!(plan.truncate_len(0, 0), 0);
        for key in 0..100 {
            let cut = plan.truncate_len(37, key);
            assert!(cut < 37, "cut {cut} out of bounds");
        }
        // And they spread: not every key lands on the same point.
        let first = plan.truncate_len(1000, 0);
        assert!((1..100).any(|k| plan.truncate_len(1000, k) != first));
    }
}
