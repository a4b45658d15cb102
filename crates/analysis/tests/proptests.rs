//! Property-based tests for the analysis toolkit: streaming statistics
//! against naive references, interval bounds, model coherence and the
//! estimator's algebra.

use proptest::prelude::*;

use popstab_analysis::equilibrium::{
    equilibrium_population, exact_epoch_drift, exact_equilibrium, expected_epoch_drift,
};
use popstab_analysis::estimator::VarianceEstimator;
use popstab_analysis::stats::{wilson_interval, Summary};
use popstab_core::params::Params;

fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() < 2 {
        0.0
    } else {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    };
    (mean, var)
}

proptest! {
    // Bounded (64 cases by default, PROPTEST_CASES overrides) and
    // deterministic (the shim seeds each property from its name), so
    // tier-1 stays fast and failures reproduce exactly.

    #[test]
    fn summary_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_samples(xs.iter().copied());
        let (mean, var) = naive_mean_var(&xs);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(s.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
    }

    #[test]
    fn summary_merge_equals_concat(
        a in prop::collection::vec(-1e5f64..1e5, 0..100),
        b in prop::collection::vec(-1e5f64..1e5, 0..100),
    ) {
        let mut sa = Summary::from_samples(a.iter().copied());
        let sb = Summary::from_samples(b.iter().copied());
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let sall = Summary::from_samples(all.iter().copied());
        prop_assert_eq!(sa.count(), sall.count());
        if !all.is_empty() {
            prop_assert!((sa.mean() - sall.mean()).abs() <= 1e-6 * (1.0 + sall.mean().abs()));
            prop_assert!((sa.variance() - sall.variance()).abs() <= 1e-4 * (1.0 + sall.variance().abs()));
        }
    }

    #[test]
    fn wilson_interval_contains_point_estimate(successes in 0u64..1000, extra in 0u64..1000) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let (lo, hi) = wilson_interval(successes, trials, 1.96);
        let p = successes as f64 / trials as f64;
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "p={p} not in [{lo}, {hi}]");
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn drift_models_agree_on_sign_far_from_equilibrium(half_log in 5u32..=10) {
        let params = Params::for_target(1u64 << (2 * half_log)).unwrap();
        let m_star = equilibrium_population(&params);
        // Far below: both positive. Far above: both negative.
        for (m, positive) in [(0.2 * m_star, true), (3.0 * m_star, false)] {
            let clt = expected_epoch_drift(&params, m, 1.0);
            let exact = exact_epoch_drift(&params, m, 1.0);
            prop_assert_eq!(clt > 0.0, positive, "CLT at m={}", m);
            prop_assert_eq!(exact > 0.0, positive, "exact at m={}", m);
        }
    }

    #[test]
    fn exact_equilibrium_is_a_root(half_log in 5u32..=9) {
        let params = Params::for_target(1u64 << (2 * half_log)).unwrap();
        let m_eq = exact_equilibrium(&params, 1.0);
        let d = exact_epoch_drift(&params, m_eq, 1.0);
        prop_assert!(d.abs() < 0.01, "drift at equilibrium {d}");
        // And it is restoring around the root.
        prop_assert!(exact_epoch_drift(&params, 0.9 * m_eq, 1.0) > 0.0);
        prop_assert!(exact_epoch_drift(&params, 1.1 * m_eq, 1.0) < 0.0);
    }

    #[test]
    fn drift_is_homogeneous_in_gamma(
        half_log in 5u32..=9,
        m_frac in 0.2f64..3.0,
        gamma in 0.1f64..=1.0,
    ) {
        let params = Params::for_target(1u64 << (2 * half_log)).unwrap();
        let m = m_frac * params.target() as f64;
        let full = exact_epoch_drift(&params, m, 1.0);
        let part = exact_epoch_drift(&params, m, gamma);
        prop_assert!((part - gamma * full).abs() < 1e-9 * (1.0 + full.abs()));
    }

    #[test]
    fn estimator_inverts_constant_imbalance(
        half_log in 5u32..=9,
        d in 1u32..4000,
        k in 1usize..50,
    ) {
        // If every epoch reports imbalance exactly d, the estimate is
        // 8d²/√N regardless of how many epochs were pushed.
        let params = Params::for_target(1u64 << (2 * half_log)).unwrap();
        let mut est = VarianceEstimator::new(&params);
        for _ in 0..k {
            est.push_counts(d as usize, 0);
        }
        let expect = 8.0 * f64::from(d) * f64::from(d) / params.sqrt_n() as f64;
        let got = est.estimate().unwrap();
        prop_assert!((got - expect).abs() < 1e-6 * (1.0 + expect));
        prop_assert_eq!(est.samples(), k as u64);
    }

    #[test]
    fn estimator_is_symmetric_in_colors(c0 in 0usize..5000, c1 in 0usize..5000) {
        let params = Params::for_target(4096).unwrap();
        let mut a = VarianceEstimator::new(&params);
        let mut b = VarianceEstimator::new(&params);
        a.push_counts(c0, c1);
        b.push_counts(c1, c0);
        prop_assert_eq!(a.estimate(), b.estimate());
    }
}
