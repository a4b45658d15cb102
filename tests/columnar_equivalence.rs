//! Integration: the columnar (struct-of-arrays) step path is bit-identical
//! to the scalar `Protocol::step` loop on the paper's protocol.
//!
//! The columnar store keeps the population resident across rounds and
//! transposes back only when something reads the vector, so these
//! properties drive every residency decision the engine makes: long
//! resident stretches, recording from the columns' stats kernel, column
//! reloads after adversarial churn, counted stores for recording and
//! checkpointing observers, snapshot/restore through the columnar path,
//! and reads after an observer's panic was caught mid-run — comparing
//! per-round reports, the **full agent state vector** (every field, every
//! slot), the halt state, and the encoded snapshot bytes across random
//! `(seed, rounds, workers)`, plus one fixed run at the population where
//! the keyed-permutation matching takes over. The golden fixtures pin the
//! same trajectories against history; this suite pins the two live paths
//! against each other.

use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use proptest::prelude::*;

use population_stability::adversary::{Churn, DesyncInserter, Trauma, TraumaKind};
use population_stability::core::columns::StabilityColumns;
use population_stability::core::message::Message;
use population_stability::core::state::AgentState;
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

/// Runs `rounds` rounds and fingerprints everything observable afterwards:
/// the per-round report trace, the final agent vector, the round counter,
/// and the engine's snapshot bytes (label-free, so byte-comparable).
fn fingerprint<A>(
    mut engine: Engine<PopulationStability, A>,
    columnar: bool,
    rounds: u64,
    threads: Threads,
) -> (Vec<RoundReport>, Vec<AgentState>, u64, Vec<u8>)
where
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
/// scalar and on the columnar path and asserts the two agree.
fn assert_paths_agree<A: Adversary<AgentState>>(
    what: &str,
    make: impl Fn() -> Engine<PopulationStability, A>,
    rounds: u64,
    threads: Threads,
) {
    let scalar = fingerprint(make(), false, rounds, threads);
    let columnar = fingerprint(make(), true, rounds, threads);
    assert_eq!(scalar.0, columnar.0, "{what}: report traces diverged");
    assert_eq!(scalar.1, columnar.1, "{what}: agent vectors diverged");
    assert_eq!(scalar.2, columnar.2, "{what}: rounds diverged");
    assert_eq!(scalar.3, columnar.3, "{what}: snapshot bytes diverged");
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

    /// Adversarial runs: every round materializes the vector for the
    /// adversary and reloads the columns after its alterations, so the
    /// load/store transposes round-trip mid-run, not just at the edges.
    /// Trauma deletes in bulk on some rounds; churn deletes and inserts on
    /// every round.
    #[test]
    fn columnar_adversarial_runs_bit_identical_to_scalar(
        seed in 0u64..1000,
        rounds in 1u64..700,
        workers in 2usize..5,
    ) {
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            assert_paths_agree("trauma", || trauma_engine(seed), rounds, threads);
            assert_paths_agree("churn", || churn_engine(seed), rounds, threads);
        }
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

/// The paper's protocol with its stepper wrapped in [`Counting`].
#[derive(Debug)]
struct Counted {
    inner: PopulationStability,
    stores: Arc<AtomicUsize>,
    forward_stats: bool,
}

/// A stepper that counts its `store` calls and forwards its stats kernel
/// only when asked to.
#[derive(Debug)]
struct Counting {
    inner: StabilityColumns,
    stores: Arc<AtomicUsize>,
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
            stores: Arc::clone(&self.stores),
            forward_stats: self.forward_stats,
        }))
    }
}

impl ColumnarStep<AgentState> for Counting {
    fn load(&mut self, agents: &[AgentState], pool: Option<&ShardPool>) {
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

    fn store(&self, agents: &mut Vec<AgentState>) {
        self.stores.fetch_add(1, Relaxed);
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

/// A clean engine over [`Counted`], and its store counter.
fn counted_engine(forward_stats: bool) -> (Engine<Counted>, Arc<AtomicUsize>) {
    let params = Params::for_target(TARGET).unwrap();
    let cfg = SimConfig::builder()
        .seed(31)
        .target(TARGET)
        .build()
        .unwrap();
    let stores = Arc::new(AtomicUsize::new(0));
    let proto = Counted {
        inner: PopulationStability::new(params),
        stores: Arc::clone(&stores),
        forward_stats,
    };
    (Engine::with_population(proto, cfg, TARGET as usize), stores)
}

/// Records three 10-round runs and returns the stats and the store count
/// after each run.
fn record_three_runs(forward_stats: bool) -> (Vec<RoundStats>, Vec<usize>) {
    let (mut engine, stores) = counted_engine(forward_stats);
    let mut rec = MetricsRecorder::new();
    let counts = (0..3)
        .map(|_| {
            engine.run(RunSpec::rounds(10), &mut RecordStats::new(&mut rec));
            stores.load(Relaxed)
        })
        .collect();
    (rec.rounds().to_vec(), counts)
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
    let (mut engine, stores) = counted_engine(true);
    let mut ckpt = Checkpoint::every(5, &base).keep(2);
    engine.run(RunSpec::rounds(12), &mut ckpt);
    assert!(ckpt.errors().is_empty(), "{:?}", ckpt.errors());
    assert_eq!(ckpt.written(), 2);
    assert_eq!(stores.load(Relaxed), 3);
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
