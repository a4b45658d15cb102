//! Property-based tests for the substrate: matching validity, engine
//! accounting and budget enforcement, batch-execution determinism, and
//! scratch-buffer transparency.

use proptest::prelude::*;

use popstab_sim::batch::{job_seed, BatchRunner, ShardPool};
use popstab_sim::matching::{sample_matching, MatchingModel, RoundMatching, UNMATCHED};
use popstab_sim::protocols::{Inert, InertState};
use popstab_sim::rng::counter_seed;
use popstab_sim::{
    Action, Adversary, Alteration, Engine, MetricsRecorder, Observable, Observation, OnRound,
    Protocol, RecordStats, RoundContext, RoundReport, RunSpec, SimConfig, SimRng, Stride, Tee,
};

/// Splits, dies, or kills its partner when matched and the coin lands
/// right. Exercises every population-changing path (including the §1.2
/// partner-kill, whose cross-shard death indices stress the parallel
/// paths) with seed-dependent behavior.
#[derive(Clone, Copy)]
struct Flaky;

#[derive(Debug, Clone)]
struct FState;

impl Observable for FState {
    fn observe(&self) -> Observation {
        Observation::default()
    }
}

impl Protocol for Flaky {
    type State = FState;
    type Message = ();
    fn initial_state(&self, _rng: &mut SimRng) -> FState {
        FState
    }
    fn message(&self, _s: &FState) {}
    fn step(&self, _s: &mut FState, m: Option<&()>, rng: &mut SimRng) -> Action {
        use rand::Rng;
        if m.is_some() {
            match rng.random_range(0..8u8) {
                0 => Action::Split,
                1 => Action::Die,
                2 => Action::KillPartner,
                _ => Action::Continue,
            }
        } else {
            Action::Continue
        }
    }
}

/// Randomly deletes/inserts within the budget.
struct Chaos;

impl Adversary<FState> for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn act(
        &mut self,
        ctx: &RoundContext,
        agents: &[FState],
        rng: &mut SimRng,
    ) -> Vec<Alteration<FState>> {
        use rand::Rng;
        let mut out = Vec::new();
        for _ in 0..ctx.budget {
            if rng.random::<bool>() && !agents.is_empty() {
                out.push(Alteration::Delete(rng.random_range(0..agents.len())));
            } else {
                out.push(Alteration::Insert(FState));
            }
        }
        out
    }
}

fn chaos_config(seed: u64, budget: usize) -> SimConfig {
    SimConfig::builder()
        .seed(seed)
        .adversary_budget(budget)
        .matching(MatchingModel::RandomFraction { min_gamma: 0.3 })
        .build()
        .unwrap()
}

/// One batch job: a full adversarial simulation reduced to its trajectory.
fn chaos_trial(seed: u64, start: usize, rounds: u64) -> Vec<(u64, usize, usize, usize)> {
    let mut engine = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 3), start);
    let mut trace = Vec::new();
    engine.run(
        RunSpec::rounds(rounds),
        &mut OnRound(|r: &RoundReport| {
            trace.push((r.round, r.population_after, r.splits, r.deaths))
        }),
    );
    trace
}

proptest! {
    #[test]
    fn matching_is_a_valid_partial_matching(
        population in 0usize..2000,
        seed in 0u64..500,
        gamma in 0.05f64..=1.0,
    ) {
        let m = sample_matching(population, MatchingModel::ExactFraction(gamma), counter_seed(seed, 0, 0));
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in m.pairs() {
            prop_assert_ne!(a, b);
            prop_assert!((a as usize) < population && (b as usize) < population);
            prop_assert!(seen.insert(a));
            prop_assert!(seen.insert(b));
        }
        // Exactly ⌊γ·m/2⌋ pairs (capped by ⌊m/2⌋).
        let expect = (((gamma * population as f64).floor() as usize) / 2).min(population / 2);
        prop_assert_eq!(m.len(), expect);
    }

    #[test]
    fn random_fraction_never_undershoots(
        population in 2usize..1000,
        seed in 0u64..200,
        min_gamma in 0.1f64..=0.9,
    ) {
        let m = sample_matching(population, MatchingModel::RandomFraction { min_gamma }, counter_seed(seed, 1, 0));
        // matched = 2·⌊fraction·m/2⌋ ≥ 2·⌊min_gamma·m/2⌋ − rounding slack.
        let floor = ((min_gamma * population as f64).floor() as usize / 2) * 2;
        prop_assert!(m.matched_agents() + 1 >= floor, "matched {} < floor {}", m.matched_agents(), floor);
    }

    #[test]
    fn partner_table_roundtrips(population in 0usize..500, seed in 0u64..100) {
        let m = sample_matching(population, MatchingModel::Full, counter_seed(seed, 2, 0));
        let table = m.partner_table(population);
        for (i, &p) in table.iter().enumerate() {
            if p != UNMATCHED {
                prop_assert_eq!(table[p as usize], i as u32);
            }
        }
        let matched = table.iter().filter(|&&p| p != UNMATCHED).count();
        prop_assert_eq!(matched, m.matched_agents());
    }

    /// The engine's fused partner table, on both sides of the keyed
    /// permutation threshold and at every shard count: an involution with
    /// no self-matches, in range, and exactly `population − matched`
    /// unmatched slots.
    #[test]
    fn partner_builder_table_is_an_involution(
        population in prop_oneof![0usize..2000, 65_536usize..68_000],
        seed in 0u64..500,
        gamma in 0.05f64..=1.0,
        shards in 1usize..4,
    ) {
        let model = MatchingModel::ExactFraction(gamma);
        let key = counter_seed(seed, 3, 0);
        let mut table = Vec::new();
        let matched = ShardPool::with(shards, |pool| {
            let mut matching = RoundMatching::new(&mut table, &mut Vec::new(), population, model, key);
            matching.table(pool);
            matching.matched()
        });
        prop_assert_eq!(table.len(), population);
        for (i, &p) in table.iter().enumerate() {
            if p != UNMATCHED {
                prop_assert_ne!(p as usize, i, "self-match at {}", i);
                prop_assert!((p as usize) < population);
                prop_assert_eq!(table[p as usize], i as u32);
            }
        }
        let unmatched = table.iter().filter(|&&p| p == UNMATCHED).count();
        prop_assert_eq!(unmatched, population - matched);
    }

    #[test]
    fn engine_population_identity_holds_every_round(
        seed in 0u64..200,
        start in 1usize..200,
        budget in 0usize..10,
        rounds in 1u64..30,
    ) {
        let cfg = SimConfig::builder().seed(seed).adversary_budget(budget).build().unwrap();
        let mut engine = Engine::with_adversary(Flaky, Chaos, cfg, start);
        for _ in 0..rounds {
            let before = engine.population();
            let r = engine.run(RunSpec::rounds(1), &mut ()).last;
            prop_assert_eq!(r.population_before, before);
            prop_assert_eq!(
                r.population_after as i64,
                before as i64 + r.inserted as i64 - r.deleted as i64
                    + r.splits as i64 - r.deaths as i64
            );
            prop_assert!(r.inserted + r.deleted + r.modified <= budget);
            if engine.halted().is_some() { break; }
        }
    }

    #[test]
    fn engine_is_deterministic_per_seed(seed in 0u64..100, start in 2usize..100) {
        let run = |s: u64| {
            let cfg = SimConfig::builder()
                .seed(s)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.3 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(Inert, cfg, start);
            let mut rec = MetricsRecorder::new();
            e.run(RunSpec::rounds(5), &mut RecordStats::new(&mut rec));
            rec.rounds().to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn budget_zero_means_no_alterations(seed in 0u64..100, start in 1usize..100) {
        struct Greedy;
        impl Adversary<InertState> for Greedy {
            fn name(&self) -> &'static str { "greedy" }
            fn act(&mut self, _c: &RoundContext, agents: &[InertState], _r: &mut SimRng) -> Vec<Alteration<InertState>> {
                (0..agents.len()).map(Alteration::Delete).collect()
            }
        }
        let cfg = SimConfig::builder().seed(seed).adversary_budget(0).build().unwrap();
        let mut engine = Engine::with_adversary(Inert, Greedy, cfg, start);
        engine.run(RunSpec::rounds(5), &mut ());
        prop_assert_eq!(engine.population(), start);
    }

    /// The batch determinism contract: for random job sets, one worker and
    /// many workers return identical results (full per-round trajectories,
    /// not just finals).
    #[test]
    fn batch_runner_is_thread_count_independent(
        master in 0u64..1000,
        jobs in 1usize..12,
        start in 2usize..60,
        rounds in 1u64..25,
    ) {
        let seeds: Vec<u64> = (0..jobs as u64).map(|i| job_seed(master, i)).collect();
        let trial = |_: usize, seed: u64| chaos_trial(seed, start, rounds);
        let serial = BatchRunner::new(1).run(seeds.clone(), trial);
        let parallel = BatchRunner::new(8).run(seeds.clone(), trial);
        prop_assert_eq!(&serial, &parallel);
        let native = BatchRunner::default().run(seeds, trial);
        prop_assert_eq!(&serial, &native);
    }

    /// Scratch-buffer reuse across driver calls is semantically invisible:
    /// an engine driven one round per `run` call (reusing its persistent
    /// scratch between calls) matches an engine driven in one shot.
    #[test]
    fn incremental_runs_match_one_shot_run(
        seed in 0u64..300,
        start in 1usize..120,
        budget in 0usize..8,
        rounds in 1u64..40,
    ) {
        let mut stepped = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, budget), start);
        let mut trace = Vec::new();
        for _ in 0..rounds {
            let outcome = stepped.run(RunSpec::rounds(1), &mut ());
            if outcome.executed == 0 {
                break;
            }
            trace.push(outcome.last);
        }
        let mut oneshot = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, budget), start);
        let mut oneshot_trace = Vec::new();
        oneshot.run(
            RunSpec::rounds(rounds),
            &mut OnRound(|r: &RoundReport| oneshot_trace.push(*r)),
        );
        prop_assert_eq!(trace, oneshot_trace);
        prop_assert_eq!(stepped.population(), oneshot.population());
        prop_assert_eq!(stepped.halted(), oneshot.halted());
    }

    /// The tentpole guarantee: intra-round sharding is bit-identical to
    /// serial rounds (a one-shard pool) for every worker count — same
    /// per-round trajectory under adversarial churn, splits, deaths and
    /// partner-kills.
    #[test]
    fn sharded_run_matches_serial_for_every_worker_count(
        seed in 0u64..300,
        start in 2usize..120,
        rounds in 1u64..40,
        workers in 1usize..6,
    ) {
        let serial_trace = chaos_trial(seed, start, rounds);
        let mut engine = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 3), start);
        let mut par_trace = Vec::new();
        engine.run(
            RunSpec::rounds(rounds).sharded(workers),
            &mut OnRound(|r: &RoundReport| par_trace.push((r.round, r.population_after, r.splits, r.deaths))),
        );
        prop_assert_eq!(serial_trace, par_trace);
    }

    /// Sharded runs feed observers the same views as serial runs: identical
    /// recorded metrics and final state for any worker count.
    #[test]
    fn sharded_run_records_identically(
        seed in 0u64..200,
        start in 2usize..100,
        rounds in 1u64..30,
        workers in 1usize..5,
    ) {
        let mut serial = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 2), start);
        let mut serial_rec = MetricsRecorder::new();
        serial.run(RunSpec::rounds(rounds), &mut RecordStats::new(&mut serial_rec));
        let mut par = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 2), start);
        let mut par_rec = MetricsRecorder::new();
        par.run(
            RunSpec::rounds(rounds).sharded(workers),
            &mut RecordStats::new(&mut par_rec),
        );
        prop_assert_eq!(serial.population(), par.population());
        prop_assert_eq!(serial.round(), par.round());
        prop_assert_eq!(serial.halted(), par.halted());
        prop_assert_eq!(serial_rec.rounds(), par_rec.rounds());
    }

    /// Observers are spectators: wrapping a run in `Stride`/`Tee`/recording
    /// combinators never perturbs the trajectory, and the observed reports
    /// are exactly the fast path's.
    #[test]
    fn stride_and_tee_observers_do_not_perturb_the_run(
        seed in 0u64..300,
        start in 2usize..100,
        rounds in 1u64..30,
        every in 1u64..7,
    ) {
        let bare_trace = chaos_trial(seed, start, rounds);
        let mut observed = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 3), start);
        let mut full = Vec::new();
        let mut strided = Vec::new();
        let mut rec = MetricsRecorder::new();
        observed.run(
            RunSpec::rounds(rounds),
            &mut Tee::new(
                OnRound(|r: &RoundReport| full.push((r.round, r.population_after, r.splits, r.deaths))),
                Stride::new(every, Tee::new(
                    OnRound(|r: &RoundReport| strided.push(r.round)),
                    RecordStats::new(&mut rec),
                )),
            ),
        );
        prop_assert_eq!(&full, &bare_trace);
        // The strided observer saw exactly every `every`-th round, and the
        // recording observer recorded exactly those rounds.
        let expect: Vec<u64> = bare_trace
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % every as usize == 0)
            .map(|(_, r)| r.0)
            .collect();
        prop_assert_eq!(&strided, &expect);
        let recorded: Vec<u64> = rec.rounds().iter().map(|s| s.round).collect();
        prop_assert_eq!(&recorded, &expect);
    }

    /// An epoch grid is `epochs × epoch_len` rounds: an epoch-end `Stride`
    /// records exactly one sample per completed epoch and leaves the run
    /// identical to an unobserved one.
    #[test]
    fn epoch_specs_match_round_specs(
        seed in 0u64..300,
        start in 2usize..100,
        epochs in 1u64..5,
        epoch_len in 1u64..12,
    ) {
        let rounds = epochs * epoch_len;
        let mut flat = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 2), start);
        flat.run(RunSpec::rounds(rounds), &mut ());
        let mut epoched = Engine::with_adversary(Flaky, Chaos, chaos_config(seed, 2), start);
        let mut rec = MetricsRecorder::new();
        epoched.run(
            RunSpec::rounds(rounds),
            &mut Stride::new(epoch_len, RecordStats::new(&mut rec)),
        );
        prop_assert_eq!(flat.population(), epoched.population());
        prop_assert_eq!(flat.round(), epoched.round());
        prop_assert_eq!(flat.halted(), epoched.halted());
        // One sample per completed epoch.
        if epoched.halted().is_none() {
            prop_assert_eq!(rec.len() as u64, epochs);
        }
    }
}
