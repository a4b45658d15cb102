//! Integration: the variance estimator (§1.3.2) and the restoring drift
//! (Lemma 8) measured end-to-end.
//!
//! Predictions use the **exact** finite-`N` Poisson model
//! (`popstab_analysis::equilibrium::exact_epoch_drift`): at simulable `N`
//! the leader count per epoch is single-digit and the CLT/linear model is
//! off by whole agents per epoch. The exact equilibrium at `N = 1024` is
//! ≈ 600 (vs the asymptotic `m* = 768`).
//!
//! The suite is sharded into per-scenario `#[test]`s so the libtest harness
//! parallelizes across scenarios, and every trial loop inside a scenario
//! runs through [`BatchRunner`] (via `measure_drift` or directly), so the
//! runner parallelizes within one. Results are worker-count-independent by
//! the batch determinism contract.

use population_stability::analysis::drift::{drift_field, measure_drift};
use population_stability::analysis::equilibrium::{exact_epoch_drift, exact_equilibrium};
use population_stability::prelude::*;
use population_stability::sim::{BatchRunner, MetricsRecorder, RecordStats, RunSpec, Stride};

#[test]
fn drift_field_is_monotone_restoring() {
    // Sample far from the exact equilibrium where |E[Δ]| dominates noise:
    // at 0.4·m* the model drift is only ≈ +0.7/epoch (per-trial σ ≈ 4.6),
    // so a sign assertion there needs hundreds of trials; at 0.3·m* and
    // 1.7·m* the drift is ≈ +1.0 / −3.2 and 96 trials give a ≥ 2.4σ margin.
    let params = Params::for_target(1024).unwrap();
    let points = drift_field(
        &BatchRunner::default(),
        &params,
        &[0.3, 1.0, 1.7],
        1.0,
        96,
        2024,
    );
    assert_eq!(points.len(), 3);
    assert!(
        points[0].observed.mean() > 0.0,
        "drift at 0.3·m*: {}",
        points[0].observed.mean()
    );
    assert!(
        points[2].observed.mean() < 0.0,
        "drift at 1.7·m*: {}",
        points[2].observed.mean()
    );
    assert!(
        points[0].observed.mean() > points[2].observed.mean(),
        "restoring force not decreasing: {:?}",
        points.iter().map(|p| p.observed.mean()).collect::<Vec<_>>()
    );
}

/// Shared body of the `observed_drift_tracks_exact_model_*` shards: checks
/// the exact Poisson model at one starting population.
fn check_drift_tracks_model(frac_of_n: f64, trials: u32, seed: u64) {
    let params = Params::for_target(1024).unwrap();
    let m0 = (frac_of_n * 1024.0) as usize;
    let observed = measure_drift(&BatchRunner::default(), &params, m0, 1.0, trials, seed);
    let predicted = exact_epoch_drift(&params, m0 as f64, 1.0);
    let tolerance = 4.0 * observed.stderr() + 0.5;
    assert!(
        (observed.mean() - predicted).abs() <= tolerance,
        "m0={m0}: observed {} vs predicted {predicted} (tolerance {tolerance})",
        observed.mean()
    );
}

#[test]
fn observed_drift_tracks_exact_model_below_equilibrium() {
    check_drift_tracks_model(0.3, 48, 31);
}

#[test]
fn observed_drift_tracks_exact_model_near_equilibrium() {
    check_drift_tracks_model(0.75, 48, 32);
}

#[test]
fn observed_drift_tracks_exact_model_above_equilibrium() {
    check_drift_tracks_model(1.5, 48, 33);
}

#[test]
fn drift_scales_with_n() {
    // The restoring force far below equilibrium grows with N (the paper's
    // Ω(√N) at Θ(N) deviations, with finite-N constants). Compare the
    // measured drift at 0.3·N across two sizes.
    let p1 = Params::for_target(1024).unwrap();
    let p2 = Params::for_target(4096).unwrap();
    let runner = BatchRunner::default();
    let d1 = measure_drift(&runner, &p1, 307, 1.0, 96, 7);
    let d2 = measure_drift(&runner, &p2, 1228, 1.0, 96, 8);
    assert!(
        d1.mean() > 0.0 && d2.mean() > 0.0,
        "drifts must be positive: {} {}",
        d1.mean(),
        d2.mean()
    );
    let pred1 = exact_epoch_drift(&p1, 307.0, 1.0);
    let pred2 = exact_epoch_drift(&p2, 1228.0, 1.0);
    assert!(pred2 > 1.5 * pred1, "model sanity: {pred1} -> {pred2}");
    assert!(
        d2.mean() > d1.mean(),
        "drift failed to grow with N: {} -> {}",
        d1.mean(),
        d2.mean()
    );
}

#[test]
fn exact_equilibrium_matches_long_run_fixed_point() {
    // Run 200 epochs from the exact equilibrium; the time-average should
    // stay near it (within the wide OU wander of this small system). An
    // epoch-end `Stride` observer records exactly one sample per epoch.
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let m_eq = exact_equilibrium(&params, 1.0);
    let cfg = SimConfig::builder().seed(17).target(1024).build().unwrap();
    let mut engine =
        Engine::with_population(PopulationStability::new(params.clone()), cfg, m_eq as usize);
    let mut rec = MetricsRecorder::new();
    engine.run(
        RunSpec::rounds(200 * epoch),
        &mut Stride::new(epoch, RecordStats::new(&mut rec)),
    );
    let pops = rec.rounds();
    assert_eq!(pops.len(), 200);
    let mean = pops.iter().map(|s| s.population).sum::<usize>() as f64 / pops.len() as f64;
    assert!(
        (mean - m_eq).abs() < 0.35 * m_eq,
        "time-average {mean} far from exact equilibrium {m_eq}"
    );
}

#[test]
fn variance_estimator_tracks_population_changes() {
    // Run two systems of very different sizes as one batch; the estimator
    // must order them correctly and land within a factor 2.5 of each.
    // Each run records on the evaluation-round stride (`RecordStats` with
    // every = epoch, phase = eval round) — the recording-light path that
    // captures exactly the snapshots `push_trace` harvests.
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let estimates = BatchRunner::default().run(vec![(700usize, 5u64), (1500, 6)], |_, job| {
        let (pop0, seed) = job;
        let cfg = SimConfig::builder()
            .seed(seed)
            .target(1024)
            .build()
            .unwrap();
        let mut engine =
            Engine::with_population(PopulationStability::new(params.clone()), cfg, pop0);
        let mut rec = MetricsRecorder::new();
        engine.run(
            RunSpec::rounds(50 * epoch),
            &mut RecordStats::stride(&mut rec, epoch, epoch - 1),
        );
        let mut est = VarianceEstimator::new(&params);
        est.push_trace(&params, rec.rounds());
        (est.estimate().unwrap(), engine.population())
    });
    let (m_small, final_small) = estimates[0];
    let (m_large, final_large) = estimates[1];
    assert!(
        m_small < m_large,
        "estimator ordered sizes wrongly: {m_small} vs {m_large}"
    );
    assert!(
        m_small > final_small as f64 / 2.5 && m_small < final_small as f64 * 2.5,
        "small estimate {m_small} vs final {final_small}"
    );
    assert!(
        m_large > final_large as f64 / 2.5 && m_large < final_large as f64 * 2.5,
        "large estimate {m_large} vs final {final_large}"
    );
}

#[test]
fn eval_round_stride_records_exactly_the_estimator_samples() {
    // The offset stride must be a pure filter of full recording: an engine
    // recording every round and an engine recording only on the
    // (epoch, eval-round) stride produce identical evaluation snapshots —
    // and therefore identical estimates — at a fraction of the recording
    // cost.
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let eval = params.eval_round();
    let run = |strided: bool| {
        let cfg = SimConfig::builder().seed(41).target(1024).build().unwrap();
        let mut engine =
            Engine::with_population(PopulationStability::new(params.clone()), cfg, 1024);
        let mut rec = MetricsRecorder::new();
        let mut obs = if strided {
            RecordStats::stride(&mut rec, epoch, epoch - 1)
        } else {
            RecordStats::new(&mut rec)
        };
        engine.run(RunSpec::rounds(20 * epoch), &mut obs);
        rec.rounds().to_vec()
    };
    let full = run(false);
    let strided = run(true);
    assert_eq!(strided.len(), 20, "one record per epoch");
    let eval_only: Vec<_> = full
        .iter()
        .filter(|s| s.majority_round == Some(eval) && s.active > 0)
        .copied()
        .collect();
    assert_eq!(
        strided
            .iter()
            .filter(|s| s.majority_round == Some(eval) && s.active > 0)
            .copied()
            .collect::<Vec<_>>(),
        eval_only,
        "stride is not a filter of full recording"
    );
    let estimate = |stats: &[population_stability::sim::RoundStats]| {
        let mut est = VarianceEstimator::new(&params);
        est.push_trace(&params, stats);
        est.estimate()
    };
    assert_eq!(estimate(&full), estimate(&strided));
}

#[test]
fn trauma_recovery_moves_toward_equilibrium() {
    // Lose 70% of the population at N = 4096 (down to ~1230, far below the
    // exact equilibrium ≈ 2900) and check it recovers at a rate consistent
    // with the exact drift (≈ 3.5/epoch there). Two seeds beat the
    // per-trajectory noise (sd ≈ √epochs·10 ≈ 100) comfortably: the model
    // gain over 100 epochs is ≈ 300. Seeds run as one batch on the
    // recording-free fast path (only final populations matter here).
    use population_stability::adversary::{Trauma, TraumaKind};
    let params = Params::for_target(4096).unwrap();
    let epoch = u64::from(params.epoch_len());
    let m_eq = exact_equilibrium(&params, 1.0);
    let seeds: Vec<u64> = vec![0, 1];
    let outcomes = BatchRunner::default().run(seeds, |_, seed| {
        let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.7, 2 * epoch);
        let cfg = SimConfig::builder()
            .seed(seed)
            .target(4096)
            .adversary_budget(usize::MAX)
            .build()
            .unwrap();
        let mut engine =
            Engine::with_adversary(PopulationStability::new(params.clone()), adv, cfg, 4096);
        engine.run(RunSpec::rounds(2 * epoch + 1), &mut ());
        let wounded = engine.population() as f64;
        engine.run(RunSpec::rounds(100 * epoch), &mut ());
        (wounded, engine.population() as f64)
    });
    let seeds_run = outcomes.len() as f64;
    for &(wounded, _) in &outcomes {
        assert!(
            wounded < 0.6 * m_eq,
            "trauma did not wound: {wounded} vs m_eq {m_eq}"
        );
    }
    let mean_wounded = outcomes.iter().map(|o| o.0).sum::<f64>() / seeds_run;
    let mean_healed = outcomes.iter().map(|o| o.1).sum::<f64>() / seeds_run;
    let rate = exact_epoch_drift(&params, mean_wounded, 1.0);
    assert!(rate > 2.0, "model sanity: rate {rate}");
    assert!(
        mean_healed > mean_wounded + 100.0,
        "no recovery: {mean_wounded} -> {mean_healed} (model rate {rate}/epoch)"
    );
    assert!(
        mean_healed < 1.3 * m_eq,
        "overshoot: {mean_healed} vs m_eq {m_eq}"
    );
}
