//! Integration: the columnar (struct-of-arrays) step path is bit-identical
//! to the scalar `Protocol::step` loop on the paper's protocol.
//!
//! The columnar store keeps the population resident across rounds and
//! transposes back only when something reads the vector, so these
//! properties drive every residency decision the engine makes: long
//! resident stretches, recording from the columns' stats kernel,
//! adversarial alterations applied in the resident columns, counted loads
//! and stores for adversaries, recording and checkpointing observers, snapshot/restore through the columnar path,
//! and reads after an observer's panic was caught mid-run — comparing
//! per-round reports, the **full agent state vector** (every field, every
//! slot), the halt state, and the encoded snapshot bytes across random
//! `(seed, rounds, workers)`, plus two fixed runs at the population where
//! the keyed-permutation matching takes over, one of them across an
//! evaluation round. The golden fixtures pin the
//! same trajectories against history; this suite pins the two live paths
//! against each other.

use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use proptest::prelude::*;

use population_stability::adversary::{
    Churn, DesyncInserter, LeaderSniper, RandomInserter, Throttle, Trauma, TraumaKind,
};
use population_stability::core::columns::StabilityColumns;
use population_stability::core::message::Message;
use population_stability::core::state::{AgentState, Color};
use population_stability::prelude::*;
use population_stability::sim::batch::ShardPool;
use population_stability::sim::matching::KEYED_PERMUTATION_MIN_POPULATION;
use population_stability::sim::{
    Action, Checkpoint, ColumnarStep, MetricsRecorder, NoOpAdversary, OnRound, Protocol,
    RecordStats, RoundReport, RoundStats, RunSpec, SimRng, Tee, Threads,
};

const TARGET: u64 = 1024;

fn clean_engine(target: u64, seed: u64) -> Engine<PopulationStability> {
    let params = Params::for_target(target).unwrap();
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(target)
        .build()
        .unwrap();
    Engine::with_population(PopulationStability::new(params), cfg, target as usize)
}

/// An unbudgeted engine under the adversary `make` builds from the params.
fn adversarial_engine<A: Adversary<AgentState>>(
    seed: u64,
    make: impl Fn(Params) -> A,
) -> Engine<PopulationStability, A> {
    let params = Params::for_target(TARGET).unwrap();
    let cfg = SimConfig::builder()
        .seed(seed)
        .target(TARGET)
        .adversary_budget(usize::MAX)
        .build()
        .unwrap();
    let adv = make(params.clone());
    Engine::with_adversary(PopulationStability::new(params), adv, cfg, TARGET as usize)
}

/// Injury trauma every third of an epoch: bulk deletes.
fn trauma_engine(seed: u64) -> Engine<PopulationStability, Trauma> {
    adversarial_engine(seed, |params| {
        let epoch = u64::from(params.epoch_len());
        Trauma::new(params, TraumaKind::Injury, 0.4, epoch / 3)
    })
}

/// Churn: four deletes and four blank inserts every round.
fn churn_engine(seed: u64) -> Engine<PopulationStability, Churn> {
    adversarial_engine(seed, |params| Churn::new(params, 8))
}

/// Two inserts at the majority round every round: pure growth.
fn inserter_engine(seed: u64) -> Engine<PopulationStability, RandomInserter> {
    adversarial_engine(seed, |params| RandomInserter::new(params, 2))
}

/// Four inserts five rounds off the majority clock on every third round:
/// mixed-round blocks, and resident rounds in between.
fn desync_engine(seed: u64) -> Engine<PopulationStability, Throttle<DesyncInserter>> {
    adversarial_engine(seed, |params| {
        Throttle::new(DesyncInserter::new(params, 4, 5), 3, 1)
    })
}

/// Proliferation trauma mid-epoch: a bulk insert of blank agents.
fn proliferation_engine(seed: u64) -> Engine<PopulationStability, Trauma> {
    adversarial_engine(seed, |params| {
        let epoch = u64::from(params.epoch_len());
        Trauma::new(params, TraumaKind::Proliferation, 0.3, epoch / 2)
    })
}

/// Runs `rounds` rounds and fingerprints everything observable afterwards:
/// the per-round report trace, the final agent vector, the round counter,
/// and the engine's snapshot bytes (label-free, so byte-comparable).
fn fingerprint<P, A>(
    mut engine: Engine<P, A>,
    columnar: bool,
    rounds: u64,
    threads: Threads,
) -> (Vec<RoundReport>, Vec<AgentState>, u64, Vec<u8>)
where
    P: Protocol<State = AgentState> + Sync,
    P::Message: Send,
    A: Adversary<AgentState>,
{
    engine.set_columnar(columnar);
    assert_eq!(engine.columnar_enabled(), columnar);
    let mut trace = Vec::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut OnRound(|r: &RoundReport| trace.push(*r)),
    );
    let bytes = engine.snapshot().to_bytes();
    (trace, engine.agents().to_vec(), engine.round(), bytes)
}

/// Fingerprints the engine `make` builds after `rounds` rounds on the
/// scalar and on the columnar path, serial and sharded over `workers`, and
/// asserts all four agree.
fn assert_paths_agree<A: Adversary<AgentState>>(
    what: &str,
    make: impl Fn() -> Engine<PopulationStability, A>,
    rounds: u64,
    workers: usize,
) {
    let serial = fingerprint(make(), false, rounds, Threads::Serial);
    for threads in [Threads::Serial, Threads::Sharded(workers)] {
        for columnar in [false, true] {
            let run = fingerprint(make(), columnar, rounds, threads);
            let what = format!("{what}, {threads:?}, columnar {columnar}");
            assert_eq!(serial.0, run.0, "{what}: report traces diverged");
            assert_eq!(serial.1, run.1, "{what}: agent vectors diverged");
            assert_eq!(serial.2, run.2, "{what}: rounds diverged");
            assert_eq!(serial.3, run.3, "{what}: snapshot bytes diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean runs: the resident fast path (an `OnRound` observer never
    /// needs the vector, so the columns stay loaded for the entire run)
    /// equals the scalar loop for every worker count.
    #[test]
    fn columnar_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..1100,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let scalar = fingerprint(clean_engine(TARGET, seed), false, rounds, threads);
            let columnar = fingerprint(clean_engine(TARGET, seed), true, rounds, threads);
            prop_assert_eq!(&scalar.0, &columnar.0, "report traces diverged");
            prop_assert_eq!(&scalar.1, &columnar.1, "agent vectors diverged");
            prop_assert_eq!(scalar.2, columnar.2);
            prop_assert_eq!(&scalar.3, &columnar.3, "snapshot bytes diverged");
        }
    }

    /// Adversarial runs: the adversaries read only the round context, so
    /// their alterations land in the resident columns, never in a stored
    /// vector; the end-of-run store must still reproduce the scalar loop.
    /// Trauma deletes or inserts in bulk once; churn deletes and inserts on
    /// every round; the inserter grows the population every round; the
    /// throttled desync inserter makes mixed-round blocks every third
    /// round. Serial and sharded rounds must agree too.
    #[test]
    fn columnar_adversarial_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..700,
        workers in 2usize..5,
    ) {
        assert_paths_agree("trauma", || trauma_engine(seed), rounds, workers);
        assert_paths_agree("proliferation", || proliferation_engine(seed), rounds, workers);
        assert_paths_agree("churn", || churn_engine(seed), rounds, workers);
        assert_paths_agree("inserter", || inserter_engine(seed), rounds, workers);
        assert_paths_agree("desync", || desync_engine(seed), rounds, workers);
    }
}

/// A recording observer reads its stats from the resident columns on the
/// columnar path and from the agent vector on the scalar path — the stats
/// and the trajectory must match exactly.
#[test]
fn columnar_recorded_stats_match_scalar() {
    let params = Params::for_target(TARGET).unwrap();
    let rounds = 2 * u64::from(params.epoch_len()) + 7;
    let run = |columnar: bool| {
        let mut engine = clean_engine(TARGET, 0xC01);
        engine.set_columnar(columnar);
        let mut rec = MetricsRecorder::new();
        engine.run(RunSpec::rounds(rounds), &mut RecordStats::new(&mut rec));
        (
            rec.rounds().to_vec(),
            engine.agents().to_vec(),
            engine.population(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// Snapshot mid-run on the columnar path, restore, continue columnar: the
/// stitched trajectory equals both the uninterrupted columnar run and the
/// scalar run — the snapshot format passes through the columns unchanged.
#[test]
fn columnar_snapshot_resume_round_trips() {
    let params = Params::for_target(TARGET).unwrap();
    let epoch = u64::from(params.epoch_len());
    let (r, total) = (epoch / 2 + 3, epoch + 11);

    let scalar = fingerprint(clean_engine(TARGET, 7), false, total, Threads::Serial);
    let straight = fingerprint(clean_engine(TARGET, 7), true, total, Threads::Serial);
    assert_eq!(scalar.1, straight.1);
    assert_eq!(scalar.3, straight.3);

    let mut prefix = clean_engine(TARGET, 7);
    let mut sink = Vec::new();
    prefix.run(
        RunSpec::rounds(r),
        &mut OnRound(|rep: &RoundReport| sink.push(*rep)),
    );
    let snap = Snapshot::from_bytes(&prefix.snapshot().to_bytes()).expect("round-trip");
    let restored =
        Engine::restore(PopulationStability::new(params), NoOpAdversary, &snap).expect("restore");
    let tail = fingerprint(restored, true, total - r, Threads::Serial);
    assert_eq!(tail.1, straight.1, "resumed columnar agents diverged");
    assert_eq!(tail.2, straight.2);
    assert_eq!(tail.3, straight.3, "resumed snapshot bytes diverged");
}

/// At `KEYED_PERMUTATION_MIN_POPULATION` agents the partner table comes
/// from the keyed permutation, built in one pass split across word shards,
/// and the columnar kernels run over a thousand 64-agent blocks. Scalar and
/// columnar must agree there on serial and sharded rounds alike, and the
/// two thread configurations must agree with each other.
#[test]
fn columnar_matches_scalar_at_the_keyed_permutation_threshold() {
    const LARGE: u64 = 1 << 16;
    const ROUNDS: u64 = 40;
    assert_eq!(LARGE as usize, KEYED_PERMUTATION_MIN_POPULATION);
    let mut runs = Vec::new();
    for threads in [Threads::Serial, Threads::Sharded(3)] {
        let scalar = fingerprint(clean_engine(LARGE, 2018), false, ROUNDS, threads);
        let columnar = fingerprint(clean_engine(LARGE, 2018), true, ROUNDS, threads);
        assert!(scalar
            .0
            .iter()
            .all(|r| r.population_before >= LARGE as usize));
        assert_eq!(scalar.0, columnar.0, "{threads:?}: report traces diverged");
        assert_eq!(scalar.1, columnar.1, "{threads:?}: agent vectors diverged");
        assert_eq!(scalar.2, columnar.2);
        assert_eq!(scalar.3, columnar.3, "{threads:?}: snapshot bytes diverged");
        runs.push(columnar);
    }
    assert_eq!(runs[0], runs[1], "serial and sharded rounds diverged");
}

/// The paper's protocol, but every agent starts two rounds before the
/// evaluation round: active with either color, or inactive.
#[derive(Debug)]
struct NearEval(PopulationStability);

impl Protocol for NearEval {
    type State = AgentState;
    type Message = Message;

    fn initial_state(&self, rng: &mut SimRng) -> AgentState {
        use rand::Rng;
        let params = self.0.params();
        let round = params.eval_round() - 1;
        match rng.random::<u32>() % 3 {
            0 => AgentState::active_at(params, round, Color::Zero),
            1 => AgentState::active_at(params, round, Color::One),
            _ => AgentState::desynced(params, round),
        }
    }

    fn message(&self, state: &AgentState) -> Message {
        self.0.message(state)
    }

    fn step(&self, state: &mut AgentState, incoming: Option<&Message>, rng: &mut SimRng) -> Action {
        self.0.step(state, incoming, rng)
    }

    fn columnar(&self) -> Option<Box<dyn ColumnarStep<AgentState>>> {
        self.0.columnar()
    }
}

/// An evaluation round at the keyed-permutation scale: rounds `T−2`, `T−1`
/// and 0 over uniform blocks of both colors, where the evaluation round
/// splits and kills and the columns refill the deaths with daughters.
/// Scalar and columnar must agree on serial and sharded rounds alike.
#[test]
fn columnar_matches_scalar_across_an_evaluation_round_at_scale() {
    const LARGE: u64 = 1 << 16;
    let engine = || {
        let params = Params::for_target(LARGE).unwrap();
        let cfg = SimConfig::builder()
            .seed(2019)
            .target(LARGE)
            .build()
            .unwrap();
        Engine::with_population(
            NearEval(PopulationStability::new(params)),
            cfg,
            LARGE as usize,
        )
    };
    let mut runs = Vec::new();
    for threads in [Threads::Serial, Threads::Sharded(3)] {
        let scalar = fingerprint(engine(), false, 3, threads);
        let columnar = fingerprint(engine(), true, 3, threads);
        let eval = &scalar.0[1];
        assert!(
            eval.splits > 0 && eval.deaths > 0,
            "the evaluation round split {} and killed {}",
            eval.splits,
            eval.deaths
        );
        assert_eq!(scalar.0, columnar.0, "{threads:?}: report traces diverged");
        assert_eq!(scalar.1, columnar.1, "{threads:?}: agent vectors diverged");
        assert_eq!(scalar.2, columnar.2);
        assert_eq!(scalar.3, columnar.3, "{threads:?}: snapshot bytes diverged");
        runs.push(columnar);
    }
    assert_eq!(runs[0], runs[1], "serial and sharded rounds diverged");
}

/// Recording under an adversary that inserts agents off the majority
/// round: every round reloads the columns after the inserts, the stepped
/// blocks are desynced, and on the columnar path `RecordStats` reads the
/// stats kernel while the scalar path observes the vector. Recorders,
/// reports and final agents must agree, serial and sharded.
#[test]
fn columnar_recorded_desynced_runs_match_scalar() {
    let params = Params::for_target(TARGET).unwrap();
    let rounds = u64::from(params.epoch_len()) + 9;
    let run = |columnar: bool, threads: Threads| {
        let cfg = SimConfig::builder()
            .seed(0xDE5)
            .target(TARGET)
            .adversary_budget(6)
            .build()
            .unwrap();
        let adv = DesyncInserter::new(params.clone(), 6, 5);
        let proto = PopulationStability::new(params.clone());
        let mut engine = Engine::with_adversary(proto, adv, cfg, TARGET as usize);
        engine.set_columnar(columnar);
        let (mut rec, mut reports) = (MetricsRecorder::new(), Vec::new());
        engine.run(
            RunSpec::rounds(rounds).threads(threads),
            &mut Tee(
                RecordStats::new(&mut rec),
                OnRound(|r: &RoundReport| reports.push(*r)),
            ),
        );
        (rec.rounds().to_vec(), reports, engine.agents().to_vec())
    };
    for threads in [Threads::Serial, Threads::Sharded(3)] {
        let scalar = run(false, threads);
        assert!(
            scalar.0.iter().any(|s| s.wrong_round > 0),
            "the inserts never desynced the population"
        );
        let columnar = run(true, threads);
        assert_eq!(scalar.0, columnar.0, "{threads:?}: recorders diverged");
        assert_eq!(scalar.1, columnar.1, "{threads:?}: report traces diverged");
        assert_eq!(scalar.2, columnar.2, "{threads:?}: agent vectors diverged");
    }
}

/// How often a [`Counting`] stepper transposed the population.
#[derive(Debug, Default)]
struct Transposes {
    loads: AtomicUsize,
    stores: AtomicUsize,
}

impl Transposes {
    /// (loads, stores) so far.
    fn get(&self) -> (usize, usize) {
        (self.loads.load(Relaxed), self.stores.load(Relaxed))
    }
}

/// The paper's protocol with its stepper wrapped in [`Counting`].
#[derive(Debug)]
struct Counted {
    inner: PopulationStability,
    counts: Arc<Transposes>,
    forward_stats: bool,
}

/// A stepper that counts its `load` and `store` calls, forwards `alter`,
/// and forwards its stats kernel only when asked to.
#[derive(Debug)]
struct Counting {
    inner: StabilityColumns,
    counts: Arc<Transposes>,
    forward_stats: bool,
}

impl Protocol for Counted {
    type State = AgentState;
    type Message = Message;

    fn initial_state(&self, rng: &mut SimRng) -> AgentState {
        self.inner.initial_state(rng)
    }

    fn message(&self, state: &AgentState) -> Message {
        self.inner.message(state)
    }

    fn step(&self, state: &mut AgentState, incoming: Option<&Message>, rng: &mut SimRng) -> Action {
        self.inner.step(state, incoming, rng)
    }

    fn columnar(&self) -> Option<Box<dyn ColumnarStep<AgentState>>> {
        Some(Box::new(Counting {
            inner: StabilityColumns::new(self.inner.params().clone()),
            counts: Arc::clone(&self.counts),
            forward_stats: self.forward_stats,
        }))
    }
}

impl ColumnarStep<AgentState> for Counting {
    fn load(&mut self, agents: &[AgentState], pool: Option<&ShardPool>) {
        self.counts.loads.fetch_add(1, Relaxed);
        self.inner.load(agents, pool);
    }

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        self.inner.step(partners, round_key, pool, splits, deaths);
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        self.inner.apply(splits, deaths);
    }

    fn alter(
        &mut self,
        inserted: &[AgentState],
        modified: &[(usize, AgentState)],
        deleted: &[usize],
    ) -> bool {
        self.inner.alter(inserted, modified, deleted)
    }

    fn store(&self, agents: &mut Vec<AgentState>) {
        self.counts.stores.fetch_add(1, Relaxed);
        self.inner.store(agents);
    }

    fn stats(&self) -> Option<RoundStats> {
        if self.forward_stats {
            self.inner.stats()
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// An engine over [`Counted`] under `adversary` with budget `budget`, and
/// its transpose counters.
fn counted_engine_under<A: Adversary<AgentState>>(
    forward_stats: bool,
    adversary: A,
    budget: usize,
) -> (Engine<Counted, A>, Arc<Transposes>) {
    let params = Params::for_target(TARGET).unwrap();
    let cfg = SimConfig::builder()
        .seed(31)
        .target(TARGET)
        .adversary_budget(budget)
        .build()
        .unwrap();
    let counts = Arc::new(Transposes::default());
    let proto = Counted {
        inner: PopulationStability::new(params),
        counts: Arc::clone(&counts),
        forward_stats,
    };
    let engine = Engine::with_adversary(proto, adversary, cfg, TARGET as usize);
    (engine, counts)
}

/// A clean engine over [`Counted`], and its transpose counters.
fn counted_engine(forward_stats: bool) -> (Engine<Counted>, Arc<Transposes>) {
    counted_engine_under(forward_stats, NoOpAdversary, 0)
}

/// Records three 10-round runs and returns the stats and the store count
/// after each run.
fn record_three_runs(forward_stats: bool) -> (Vec<RoundStats>, Vec<usize>) {
    let (mut engine, counts) = counted_engine(forward_stats);
    let mut rec = MetricsRecorder::new();
    let counts = (0..3)
        .map(|_| {
            engine.run(RunSpec::rounds(10), &mut RecordStats::new(&mut rec));
            counts.get().1
        })
        .collect();
    (rec.rounds().to_vec(), counts)
}

/// The (loads, stores) seen after each round of an `R`-round run under
/// `adversary`, and after the run's end-of-run store.
fn transposes_per_round<A: Adversary<AgentState>>(
    adversary: A,
    rounds: u64,
) -> (Vec<(usize, usize)>, (usize, usize)) {
    let (mut engine, counts) = counted_engine_under(true, adversary, 8);
    let mut seen = Vec::new();
    engine.run(
        RunSpec::rounds(rounds),
        &mut OnRound(|_: &RoundReport| seen.push(counts.get())),
    );
    (seen, counts.get())
}

/// Churn decides from the round context alone, and its alterations land in
/// the resident columns: a run loads once, at its start, and never stores
/// until its end. The leader sniper reads states, so every round after the
/// first stores the vector for it, but its deletes land in the columns
/// too, which are not reloaded.
#[test]
fn summary_only_adversaries_keep_the_population_resident() {
    const ROUNDS: u64 = 40;
    let params = Params::for_target(TARGET).unwrap();
    let (churn, end) = transposes_per_round(Churn::new(params, 8), ROUNDS);
    assert_eq!(
        churn,
        vec![(1, 0); ROUNDS as usize],
        "churn transposed mid-run"
    );
    assert_eq!(end, (1, 1), "one end-of-run store");

    let (sniper, end) = transposes_per_round(LeaderSniper::new(8, None), ROUNDS);
    let want: Vec<(usize, usize)> = (0..ROUNDS as usize).map(|r| (1, r)).collect();
    assert_eq!(sniper, want, "one store per round after the first");
    assert_eq!(end, (1, ROUNDS as usize));
}

/// With a stats kernel, recording never materializes the vector mid-run:
/// the only store is each run's end-of-run materialize. Without one, every
/// recorded round stores, and the end of the run finds the vector current.
/// The two record the same stats.
#[test]
fn recording_stores_once_per_run_with_a_stats_kernel() {
    let (kernel, kernel_stores) = record_three_runs(true);
    assert_eq!(kernel_stores, [1, 2, 3]);
    let (fallback, fallback_stores) = record_three_runs(false);
    assert_eq!(fallback_stores, [10, 20, 30]);
    assert_eq!(kernel, fallback);
    assert_eq!(kernel.len(), 30);
}

/// A checkpoint every 5 rounds of a 12-round run stores on its snapshot
/// rounds 5 and 10 only, plus the end-of-run materialize after round 12.
#[test]
fn checkpointing_stores_only_on_snapshot_rounds() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("columnar-checkpoint-stores");
    let (mut engine, counts) = counted_engine(true);
    let mut ckpt = Checkpoint::every(5, &base).keep(2);
    engine.run(RunSpec::rounds(12), &mut ckpt);
    assert!(ckpt.errors().is_empty(), "{:?}", ckpt.errors());
    assert_eq!(ckpt.written(), 2);
    assert_eq!(counts.get().1, 3);
    for slot in 0..2 {
        let _ = std::fs::remove_file(Checkpoint::slot_path(&base, slot));
    }
}

/// An observer's panic, caught mid-run, leaves the engine whole: the
/// population is read from whichever form is current, so `agents()` and
/// `snapshot()` see the rounds the columns ran, not the vector the run
/// started from, and the round scratch survives for the next run.
#[test]
fn engine_reads_the_current_population_after_a_caught_observer_panic() {
    const N: u64 = 4096;
    let mut panicked = clean_engine(N, 17);
    assert!(panicked.columnar_enabled());
    panicked.run(RunSpec::rounds(3), &mut ());
    let before = panicked.approx_mem_bytes();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        panicked.run(
            RunSpec::rounds(10),
            &mut OnRound(|r: &RoundReport| assert_ne!(r.round, 3, "observer fails")),
        )
    }));
    assert!(caught.is_err(), "the observer's panic was swallowed");
    assert_eq!(
        panicked.approx_mem_bytes(),
        before,
        "the unwinding run dropped the round scratch"
    );

    let mut straight = clean_engine(N, 17);
    straight.run(RunSpec::rounds(4), &mut ());
    assert_eq!(panicked.round(), 4);
    assert_eq!(panicked.round(), straight.round());
    assert_eq!(panicked.population(), straight.population());
    assert!(
        panicked.agents() == straight.agents(),
        "agents() differs from the uninterrupted run's"
    );
    assert!(
        panicked.snapshot().to_bytes() == straight.snapshot().to_bytes(),
        "snapshot() differs from the uninterrupted run's"
    );
}
