//! The unified run driver: [`RunSpec`] + composable [`Observer`]s.
//!
//! Until PR 5 the engine had grown eight near-duplicate entry points
//! (`run_round`, `run_rounds`, `run_until`, `run_range`, `run_epochs`,
//! `par_round`, `run_rounds_par`, `run_until_par`) plus two recording side
//! channels (`set_recording`, `SimConfig::metrics_phase`). They all ran the
//! same round loop and differed only along three orthogonal axes, which this
//! module makes explicit:
//!
//! * **when to stop** — [`Stop`]: a fixed round count, a per-round
//!   predicate, or an epoch grid,
//! * **who executes a round** — [`Threads`]: how many shards the round's
//!   [`ShardPool`](crate::batch::ShardPool) has (one for `Serial`),
//! * **what to observe** — [`Observer`]: anything from the zero-cost `()`
//!   to a [`RecordStats`] metrics adapter, composed with [`Stride`] /
//!   [`Tee`] / [`OnRound`].
//!
//! [`Engine::run`](crate::Engine::run) takes one [`RunSpec`] and one
//! observer and returns a [`RunOutcome`]. Everything is monomorphized: with
//! the `()` observer the driver compiles to exactly the old recording-free
//! fast path (the golden fixtures under `tests/golden/` pin this byte for
//! byte), and by the engine's determinism contract `Threads::Serial` and
//! `Threads::Sharded(n)` produce identical trajectories for every `n`.
//!
//! # Example
//!
//! ```
//! use popstab_sim::{protocols::Inert, Engine, MetricsRecorder, RecordStats, RunSpec, SimConfig};
//!
//! let cfg = SimConfig::builder().seed(7).build().unwrap();
//! let mut engine = Engine::with_population(Inert, cfg, 64);
//!
//! // Fast path: no recording, nothing observed.
//! let outcome = engine.run(RunSpec::rounds(10), &mut ());
//! assert_eq!(outcome.executed, 10);
//! assert_eq!(outcome.population_range(), (64, 64));
//!
//! // Same trajectory, now recording stats every round into a recorder the
//! // caller owns.
//! let mut rec = MetricsRecorder::new();
//! engine.run(RunSpec::rounds(10), &mut RecordStats::new(&mut rec));
//! assert_eq!(rec.len(), 10);
//! ```

use std::cell::{Cell, OnceCell};
use std::fmt;

use crate::agent::Protocol;
use crate::columns::ColumnarStep;
use crate::config::SimConfig;
use crate::engine::{HaltReason, RoundReport};
use crate::metrics::{MetricsRecorder, RoundStats};

/// The predicate type of specs that never stop early ([`RunSpec::rounds`] /
/// [`RunSpec::epochs`]). A plain function pointer, so those constructors
/// need no generics at the call site.
pub type NoStop = fn(&RoundReport) -> bool;

/// When a run stops (in addition to the engine halting).
#[derive(Debug, Clone, Copy)]
pub enum Stop<F = NoStop> {
    /// Run exactly this many rounds.
    Rounds(u64),
    /// Run up to `max_rounds` rounds, stopping early when `stop` returns
    /// `true` for the round just executed.
    Until {
        /// Hard cap on executed rounds.
        max_rounds: u64,
        /// Early-exit predicate, evaluated after every round.
        stop: F,
    },
    /// Run `epochs × epoch_len` rounds. Purely descriptive sugar over
    /// [`Stop::Rounds`]: pair it with [`Stride::new`]`(epoch_len, …)` to
    /// observe epoch boundaries only.
    Epochs {
        /// Number of epochs.
        epochs: u64,
        /// Rounds per epoch.
        epoch_len: u64,
    },
}

/// How each round executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// One shard on the calling thread.
    Serial,
    /// Shard the `O(population)` phases of every round (step scan, matching
    /// construction) across a persistent pool of this many workers (`0` is
    /// clamped to 1). The trajectory is bit-identical to [`Threads::Serial`]
    /// for every worker count; worth it only when single rounds are large
    /// (the pool synchronizes several times per round).
    Sharded(usize),
}

impl Threads {
    /// The process-wide intra-round thread configuration: `Sharded(n)` when
    /// `--round-threads`/`POPSTAB_ROUND_THREADS` asked for `n > 1` workers
    /// (see [`crate::batch::round_threads`]), else `Serial`.
    pub fn from_env() -> Threads {
        match crate::batch::round_threads() {
            0 | 1 => Threads::Serial,
            n => Threads::Sharded(n),
        }
    }

    /// The shard count of the pool [`Engine::run`](crate::Engine::run)
    /// executes rounds on: `1` for [`Threads::Serial`], `n.max(1)` for
    /// `Sharded(n)`.
    #[must_use]
    pub fn shards(self) -> usize {
        match self {
            Threads::Serial => 1,
            Threads::Sharded(n) => n.max(1),
        }
    }
}

/// A declarative description of one [`Engine::run`](crate::Engine::run)
/// call: stop condition plus thread configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<F = NoStop> {
    /// When to stop.
    pub stop: Stop<F>,
    /// How rounds execute.
    pub threads: Threads,
}

impl RunSpec<NoStop> {
    /// Runs exactly `n` rounds (fewer if the engine halts), serially.
    pub fn rounds(n: u64) -> RunSpec {
        RunSpec {
            stop: Stop::Rounds(n),
            threads: Threads::Serial,
        }
    }

    /// Runs `epochs` epochs of `epoch_len` rounds each, serially.
    pub fn epochs(epochs: u64, epoch_len: u64) -> RunSpec {
        RunSpec {
            stop: Stop::Epochs { epochs, epoch_len },
            threads: Threads::Serial,
        }
    }
}

impl<F: FnMut(&RoundReport) -> bool> RunSpec<F> {
    /// Runs up to `max_rounds` rounds, stopping early when `stop` returns
    /// `true` for the round just executed.
    pub fn until(max_rounds: u64, stop: F) -> RunSpec<F> {
        RunSpec {
            stop: Stop::Until { max_rounds, stop },
            threads: Threads::Serial,
        }
    }

    /// Sets the thread configuration.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Shards every round over `workers` threads
    /// ([`Threads::Sharded`]; `0` is clamped to 1).
    pub fn sharded(self, workers: usize) -> Self {
        self.threads(Threads::Sharded(workers.max(1)))
    }

    /// Total rounds this spec may execute.
    pub(crate) fn max_rounds(&self) -> u64 {
        match self.stop {
            Stop::Rounds(n) => n,
            Stop::Until { max_rounds, .. } => max_rounds,
            Stop::Epochs { epochs, epoch_len } => epochs.saturating_mul(epoch_len),
        }
    }
}

/// What one [`Engine::run`](crate::Engine::run) call did.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Rounds actually executed.
    pub executed: u64,
    /// Why the engine halted, if it did.
    pub halted: Option<HaltReason>,
    /// Whether a [`Stop::Until`] predicate ended the run early.
    pub stopped_early: bool,
    /// Report of the last executed round; an inert snapshot of the current
    /// state if no round executed (halted engine or a zero-round spec).
    pub last: RoundReport,
    /// Smallest post-round population over the executed rounds (the current
    /// population if none executed).
    pub min_population: usize,
    /// Largest post-round population over the executed rounds (the current
    /// population if none executed).
    pub max_population: usize,
}

impl RunOutcome {
    /// The `(min, max)` population band of the run — what the stability
    /// suites assert on (the old `Engine::run_range`, folded into every
    /// outcome at `O(1)` per round).
    pub fn population_range(&self) -> (usize, usize) {
        (self.min_population, self.max_population)
    }
}

/// The post-round agent vector behind [`EngineView::agents`]: either
/// current already, or stored from the resident columns on the first read.
///
/// The engine lends its own vector for the callback (so a store refills the
/// buffer it already owns), and dropping this hands the vector back. A read
/// that materialized it leaves the vector current: the engine clears its
/// stale flag. Dropping restores the engine on unwinding too, so a
/// panicking observer cannot lose the population.
pub(crate) struct LazyAgents<'a, S> {
    agents: OnceCell<Vec<S>>,
    /// The engine's vector buffer while `agents` is unfilled.
    buf: Cell<Vec<S>>,
    /// The resident columns, while the vector is stale.
    columns: Option<&'a dyn ColumnarStep<S>>,
    home: &'a mut Vec<S>,
    stale: &'a mut bool,
}

impl<'a, S> LazyAgents<'a, S> {
    /// Borrows the engine's vector `home` for one callback. `columns` is
    /// the engine's stepper, which must be `Some` when `*stale`.
    pub(crate) fn new(
        home: &'a mut Vec<S>,
        stale: &'a mut bool,
        columns: Option<&'a dyn ColumnarStep<S>>,
    ) -> LazyAgents<'a, S> {
        let vec = std::mem::take(home);
        let (agents, buf, columns) = if *stale {
            (OnceCell::new(), Cell::new(vec), columns)
        } else {
            (OnceCell::from(vec), Cell::default(), None)
        };
        LazyAgents {
            agents,
            buf,
            columns,
            home,
            stale,
        }
    }

    fn get(&self) -> &[S] {
        self.agents.get_or_init(|| {
            let mut vec = self.buf.take();
            self.columns
                .expect("a stale vector has resident columns")
                .store(&mut vec);
            vec
        })
    }
}

impl<S> Drop for LazyAgents<'_, S> {
    fn drop(&mut self) {
        match self.agents.take() {
            Some(vec) => {
                *self.home = vec;
                *self.stale = false;
            }
            None => *self.home = self.buf.take(),
        }
    }
}

impl<S> fmt::Debug for LazyAgents<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyAgents")
            .field("materialized", &self.agents.get().is_some())
            .finish_non_exhaustive()
    }
}

/// A read-only view of the engine handed to observers after each round.
///
/// The view is lazy: on the columnar path the population lives in the
/// resident columns ([`crate::columns`], "Residency"), and
/// [`agents`](Self::agents) transposes it into `Vec<P::State>` only on its
/// first call in a round. [`population`](Self::population) and
/// [`stats`](Self::stats) do not need the vector, so an observer that reads
/// only those never costs a store.
#[derive(Debug)]
pub struct EngineView<'a, P: Protocol> {
    pub(crate) agents: &'a LazyAgents<'a, P::State>,
    pub(crate) population: usize,
    pub(crate) round: u64,
    pub(crate) halted: Option<HaltReason>,
    pub(crate) config: &'a SimConfig,
    pub(crate) adv_rng_state: u64,
}

impl<'a, P: Protocol> EngineView<'a, P> {
    /// All agent states, post-round. On the columnar path the first call
    /// in a round stores the columns into the engine's vector; later calls
    /// (from this or any other observer) return the same slice.
    pub fn agents(&self) -> &'a [P::State] {
        self.agents.get()
    }

    /// Population size, post-round.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The observation part of the [`RoundStats`] of the round just
    /// executed: `round` and every field [`RoundStats::observe`] fills.
    /// The per-round counts (splits, deaths, alterations) are the
    /// caller's to add from the [`RoundReport`].
    ///
    /// Reads the resident columns when the stepper has a stats kernel
    /// ([`ColumnarStep::stats`]); otherwise observes
    /// [`agents`](Self::agents), materializing them if needed. Both give
    /// the same stats.
    pub fn stats(&self) -> RoundStats {
        let round = self.round.saturating_sub(1);
        match self.agents.columns.and_then(|c| c.stats()) {
            Some(stats) => {
                debug_assert_eq!(stats.population, self.population);
                RoundStats { round, ..stats }
            }
            None => RoundStats::observe(round, self.agents()),
        }
    }

    /// Rounds executed so far (the *next* round number).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether the round just executed halted the engine.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// The engine's configuration.
    pub fn config(&self) -> &'a SimConfig {
        self.config
    }

    /// The raw post-round position of the engine-owned adversary RNG
    /// stream — together with [`agents`](Self::agents), [`round`](Self::round)
    /// and [`config`](Self::config) this is everything the engine's future
    /// depends on, which is what lets [`EngineView::snapshot`] (and thus
    /// the [`Checkpoint`](crate::Checkpoint) combinator) checkpoint a run
    /// from inside an observer.
    pub fn adv_rng_state(&self) -> u64 {
        self.adv_rng_state
    }
}

/// Something that watches a run, one callback per executed round.
///
/// Observers compose ([`Stride`], [`Tee`], [`OnRound`], [`RecordStats`])
/// and are monomorphized into the round loop: the `()` implementation
/// compiles away entirely, so the recording-free fast path pays nothing for
/// the abstraction. Observers see the engine *after* the round's splits and
/// deaths were applied; they cannot perturb the trajectory (the
/// `stride_and_tee_observers_do_not_perturb_the_run` property test pins
/// this).
pub trait Observer<P: Protocol> {
    /// Called once after every executed round.
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>);

    /// Whether this observer reads the agent state slice
    /// ([`EngineView::agents`]) from its callback. The engine no longer
    /// consults it: the view materializes the slice on first read, so an
    /// observer that never reads it never costs a store, and there is no
    /// declaration to get wrong. The method remains because the benchmark
    /// package's `RoundClock` observer still implements it and its tests
    /// pin the values: `true` by default, `false` for `()` and [`OnRound`].
    /// Combinators do not forward it.
    fn needs_engine_state(&self) -> bool {
        true
    }
}

/// The zero-cost null observer.
impl<P: Protocol> Observer<P> for () {
    #[inline(always)]
    fn on_round(&mut self, _report: &RoundReport, _view: &EngineView<'_, P>) {}

    fn needs_engine_state(&self) -> bool {
        false
    }
}

/// Mutable references forward, so observers can be reused across runs.
impl<P: Protocol, O: Observer<P>> Observer<P> for &mut O {
    #[inline]
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        (**self).on_round(report, view);
    }
}

/// Forwards every `every`-th round to the inner observer (rounds
/// `every, 2·every, …` of this run) — e.g. epoch boundaries when `every`
/// is the epoch length.
#[derive(Debug)]
pub struct Stride<O> {
    every: u64,
    seen: u64,
    inner: O,
}

impl<O> Stride<O> {
    /// Forwards one round in `every` (`0` is clamped to 1) to `inner`.
    pub fn new(every: u64, inner: O) -> Stride<O> {
        Stride {
            every: every.max(1),
            seen: 0,
            inner,
        }
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<P: Protocol, O: Observer<P>> Observer<P> for Stride<O> {
    #[inline]
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.inner.on_round(report, view);
        }
    }
}

/// Forwards every round to both observers, `a` first.
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A, B> Tee<A, B> {
    /// Combines two observers.
    pub fn new(a: A, b: B) -> Tee<A, B> {
        Tee(a, b)
    }
}

impl<P: Protocol, A: Observer<P>, B: Observer<P>> Observer<P> for Tee<A, B> {
    #[inline]
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        self.0.on_round(report, view);
        self.1.on_round(report, view);
    }
}

/// Adapts a closure over the per-round report into an observer (e.g. to
/// collect a trace while a [`Stop::Rounds`] spec runs).
#[derive(Debug)]
pub struct OnRound<F>(pub F);

impl<P: Protocol, F: FnMut(&RoundReport)> Observer<P> for OnRound<F> {
    #[inline]
    fn on_round(&mut self, report: &RoundReport, _view: &EngineView<'_, P>) {
        (self.0)(report);
    }

    fn needs_engine_state(&self) -> bool {
        false
    }
}

/// The [`MetricsRecorder`] adapter: observes the population and records one
/// [`RoundStats`] per selected round.
///
/// This subsumes the engine's former built-in recording
/// (`Engine::set_recording` / `SimConfig::metrics_every` /
/// `SimConfig::metrics_phase`): the recorder now lives with the caller, and
/// the stride is part of the observer. [`RecordStats::new`] records every
/// round; [`RecordStats::stride`] reproduces the old config stride —
/// a round is recorded when `rounds_executed % every == phase` (counting
/// the engine's global round counter after the round) — plus any round
/// that ends in extinction, so a collapsing run always keeps its final
/// sample. The stats come from [`EngineView::stats`], so on the columnar
/// path recording reads the resident columns and never stores mid-run.
#[derive(Debug)]
pub struct RecordStats<'a> {
    rec: &'a mut MetricsRecorder,
    every: u64,
    phase: u64,
}

impl<'a> RecordStats<'a> {
    /// Records every round into `rec`.
    pub fn new(rec: &'a mut MetricsRecorder) -> RecordStats<'a> {
        RecordStats::stride(rec, 1, 0)
    }

    /// Records the rounds where the engine's post-round global counter
    /// satisfies `round % every == phase`, plus extinction rounds.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero or `phase ≥ every`.
    pub fn stride(rec: &'a mut MetricsRecorder, every: u64, phase: u64) -> RecordStats<'a> {
        assert!(every > 0, "stride must be positive");
        assert!(
            phase < every,
            "phase {phase} must be smaller than the stride {every}"
        );
        RecordStats { rec, every, phase }
    }
}

impl<P: Protocol> Observer<P> for RecordStats<'_> {
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        if view.round() % self.every != self.phase && report.population_after != 0 {
            return;
        }
        self.rec.record(RoundStats {
            splits: report.splits,
            deaths: report.deaths,
            adv_inserted: report.inserted,
            adv_deleted: report.deleted,
            adv_modified: report.modified,
            ..view.stats()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Engine;
    use crate::protocols::Inert;

    fn engine(seed: u64, n: usize) -> Engine<Inert> {
        let cfg = SimConfig::builder().seed(seed).build().unwrap();
        Engine::with_population(Inert, cfg, n)
    }

    #[test]
    fn stride_forwards_every_kth_round() {
        let mut hits = Vec::new();
        engine(1, 16).run(
            RunSpec::rounds(10),
            &mut Stride::new(3, OnRound(|r: &RoundReport| hits.push(r.round))),
        );
        assert_eq!(hits, vec![2, 5, 8]);
    }

    #[test]
    fn tee_forwards_to_both_in_order() {
        let mut log = Vec::new();
        {
            let log = std::cell::RefCell::new(&mut log);
            engine(2, 8).run(
                RunSpec::rounds(2),
                &mut Tee::new(
                    OnRound(|r: &RoundReport| log.borrow_mut().push(("a", r.round))),
                    OnRound(|r: &RoundReport| log.borrow_mut().push(("b", r.round))),
                ),
            );
        }
        assert_eq!(log, vec![("a", 0), ("b", 0), ("a", 1), ("b", 1)]);
    }

    #[test]
    fn record_stats_stride_matches_global_round_counter() {
        let mut rec = MetricsRecorder::new();
        let mut e = engine(3, 8);
        e.run(
            RunSpec::rounds(20),
            &mut RecordStats::stride(&mut rec, 5, 0),
        );
        assert_eq!(rec.len(), 4);
        assert_eq!(
            rec.rounds().iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![4, 9, 14, 19]
        );
        // A later run continues the global stride rather than restarting it.
        e.run(RunSpec::rounds(5), &mut RecordStats::stride(&mut rec, 5, 0));
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.last().unwrap().round, 24);
    }

    #[test]
    #[should_panic(expected = "phase 5 must be smaller than the stride 5")]
    fn record_stats_rejects_phase_outside_stride() {
        let mut rec = MetricsRecorder::new();
        let _ = RecordStats::stride(&mut rec, 5, 5);
    }

    #[test]
    fn thread_configs_map_to_pool_shard_counts() {
        assert_eq!(Threads::Serial.shards(), 1);
        assert_eq!(Threads::Sharded(0).shards(), 1);
        assert_eq!(Threads::Sharded(1).shards(), 1);
        assert_eq!(Threads::Sharded(4).shards(), 4);
    }

    // `Threads::from_env` is covered by `batch::tests::round_threads_default_is_serial`,
    // the one test that owns the process-global round-thread override — a
    // second test touching it here would race it across test threads.
}
