//! The synchronous round engine.
//!
//! Round structure (matching §2 of the paper):
//!
//! 1. the **adversary** observes the full state of every agent and commits up
//!    to `K` alterations (insert / delete / modify),
//! 2. a random **matching** covering the configured fraction of the surviving
//!    agents is sampled (the adversary cannot see it in advance),
//! 3. matched agents simultaneously **exchange messages** composed from their
//!    pre-round states; every agent then **steps** once,
//! 4. **splits** and **deaths** decided during the step are applied.
//!
//! The engine is generic over the [`Protocol`] and the [`Adversary`] and
//! halts on extinction or population explosion (a safety cap for baselines
//! that are *supposed* to diverge).
//!
//! All execution goes through one generic driver, [`Engine::run`], which
//! takes a [`RunSpec`] (stop condition + thread configuration) and a
//! composable [`Observer`] (see [`crate::driver`]). Recording is an
//! observer concern ([`RecordStats`](crate::RecordStats)); the engine
//! itself holds no metrics.
//!
//! Agent randomness is **counter-based** (see [`crate::rng::counter_seed`]):
//! agent slot `s` in round `r` flips coins from a stateless stream keyed on
//! `(seed, r, s)`, so the step phase has no serial RNG dependency between
//! agents and can be sharded across threads
//! ([`Threads::Sharded`]) with results
//! bit-identical for every worker count. Every round runs through one
//! body on a [`ShardPool`]: [`Threads::Serial`] is simply a pool of one
//! shard, which spawns no threads and runs inline. The matching
//! is counter-keyed the same way (see [`crate::matching`]): round `r`'s
//! pairs are a pure function of `round_key(match_key, r)`, and for large
//! populations the pass that writes them into the partner table shards
//! across the same pool as the step phase.
//!
//! The population lives in a crate-private `Population` (see
//! [`crate::columns`], "Residency"): the agent vector, plus the resident
//! columns when the protocol has a columnar step. It alone decides which
//! form is current, so every accessor here reads a current population at
//! any time, also after an observer's panic was caught mid-run.
//!
//! [`Threads::Sharded`]: crate::Threads::Sharded
//! [`Threads::Serial`]: crate::Threads::Serial

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::adversary::{Adversary, NoOpAdversary, RoundContext};
use crate::agent::{Action, Protocol};
use crate::batch::{shard_chunks, shard_range, ShardPool};
use crate::columns::Population;
use crate::config::SimConfig;
use crate::driver::{EngineView, Observer, RunOutcome, RunSpec, Stop};
use crate::matching::{sample_partners_into, UNMATCHED};
use crate::rng::{derive_seed, derive_stream, round_key, slot_rng, SimRng};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotState};

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every agent died or was deleted.
    Extinct,
    /// The population exceeded [`SimConfig::max_population`].
    Exploded,
}

/// Summary of a single executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundReport {
    /// Global round number of this report.
    pub round: u64,
    /// Population before the adversary acted.
    pub population_before: usize,
    /// Population after splits/deaths were applied.
    pub population_after: usize,
    /// Adversarial insertions applied.
    pub inserted: usize,
    /// Adversarial deletions applied.
    pub deleted: usize,
    /// Adversarial modifications applied.
    pub modified: usize,
    /// Agents matched this round (`2 ×` the sampled pairs). Pins the
    /// matching stream in golden traces even when no agent acts on its
    /// partner (an inert population's counts are otherwise invariant).
    pub matched: usize,
    /// Protocol splits this round.
    pub splits: usize,
    /// Protocol deaths this round.
    pub deaths: usize,
}

/// Persistent per-round working memory.
///
/// The engine's round loop needs several population-sized buffers (the
/// partner table with its small-population shuffle scratch, the
/// simultaneous message snapshot, the split/death work lists, the second
/// also serving as the adversary's delete list); the matching
/// itself is never held as pairs, since [`sample_partners_into`] samples it
/// straight into `partners`. Allocating the buffers fresh every round
/// dominated the hot path at large `N`, so they live here and are reused;
/// buffer reuse is invisible to the simulation semantics (asserted
/// round-for-round by the `scratch_engine_matches_fresh_allocation_engine`
/// property test and by the golden-trace fixtures under `tests/golden/`).
#[derive(Debug)]
struct RoundScratch<M> {
    shuffle: Vec<u32>,
    partners: Vec<u32>,
    messages: Vec<Option<M>>,
    splits: Vec<usize>,
    deaths: Vec<usize>,
}

impl<M> Default for RoundScratch<M> {
    fn default() -> Self {
        RoundScratch {
            shuffle: Vec::new(),
            partners: Vec::new(),
            messages: Vec::new(),
            splits: Vec::new(),
            deaths: Vec::new(),
        }
    }
}

/// Per-shard output of the scalar step phase: the split/death work lists
/// one shard's slot range produced. Appended to shard 0's lists in shard
/// (= slot) order, so the merged lists are independent of the shard count.
#[derive(Debug, Default)]
struct StepShard {
    splits: Vec<usize>,
    deaths: Vec<usize>,
}

/// A running simulation: population, protocol, adversary, RNG streams.
#[derive(Debug)]
pub struct Engine<P: Protocol, A: Adversary<P::State> = NoOpAdversary> {
    protocol: P,
    adversary: A,
    cfg: SimConfig,
    /// The agents, as a vector and — when the protocol opts in
    /// ([`Protocol::columnar`]) — as resident columns that the step phase
    /// advances instead; bit-identical by the determinism contract of
    /// [`crate::columns`], so the columns are invisible to observers,
    /// adversaries, traces and snapshots.
    pop: Population<P::State>,
    round: u64,
    adv_rng: SimRng,
    halted: Option<HaltReason>,
    scratch: RoundScratch<P::Message>,
}

impl<P: Protocol> Engine<P, NoOpAdversary> {
    /// Creates an engine with `population` fresh agents and no adversary.
    pub fn with_population(protocol: P, cfg: SimConfig, population: usize) -> Self {
        Engine::with_adversary(protocol, NoOpAdversary, cfg, population)
    }
}

impl<P: Protocol, A: Adversary<P::State>> Engine<P, A> {
    /// Creates an engine with `population` fresh agents and an adversary.
    pub fn with_adversary(protocol: P, adversary: A, cfg: SimConfig, population: usize) -> Self {
        // Initial states draw from a sequential stream (construction is not
        // a round and runs once); per-round agent flips use the counter key.
        let mut init_rng = derive_stream(cfg.seed, "agents");
        let adv_rng = derive_stream(cfg.seed, "adversary");
        let agents = (0..population)
            .map(|_| protocol.initial_state(&mut init_rng))
            .collect();
        let pop = Population::new(agents, protocol.columnar());
        Engine {
            protocol,
            adversary,
            cfg,
            pop,
            round: 0,
            adv_rng,
            halted: None,
            scratch: RoundScratch::default(),
        }
    }

    /// Current population size.
    pub fn population(&self) -> usize {
        self.pop.len()
    }

    /// Read access to all agent states (what the adversary sees).
    pub fn agents(&self) -> &[P::State] {
        self.pop.agents()
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Why the engine halted, if it did.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Whether the step phase currently runs on the columnar
    /// (struct-of-arrays) path.
    pub fn columnar_enabled(&self) -> bool {
        self.pop.is_columnar()
    }

    /// Enables or disables the columnar step path. It is on by default
    /// whenever the protocol opts in ([`Protocol::columnar`]); disabling
    /// forces the scalar [`Protocol::step`] loop. Both paths produce the
    /// same trajectory by the determinism contract of [`crate::columns`] —
    /// this switch exists so equivalence tests and benches can pin them
    /// against each other.
    pub fn set_columnar(&mut self, enabled: bool) {
        let columns = if enabled {
            self.protocol.columnar()
        } else {
            None
        };
        self.pop.set_columns(columns);
    }

    /// Approximate resident bytes of the simulation state: the agent
    /// vector, the reusable round scratch, and the columnar stepper's
    /// retained column buffers. Capacities (not lengths) are counted where
    /// available — this is the figure behind the bench harness's
    /// `mem_bytes_per_agent`.
    pub fn approx_mem_bytes(&self) -> usize {
        let s = &self.scratch;
        let scratch = s.shuffle.capacity() * std::mem::size_of::<u32>()
            + s.partners.capacity() * std::mem::size_of::<u32>()
            + s.messages.capacity() * std::mem::size_of::<Option<P::Message>>()
            + (s.splits.capacity() + s.deaths.capacity()) * std::mem::size_of::<usize>();
        self.pop.mem_bytes() + scratch
    }

    /// Checkpoints the engine into a [`Snapshot`]: config, round counter,
    /// halt flag, adversary-stream position, and every agent's encoded
    /// state. [`Engine::restore`] of the result continues bit-for-bit
    /// identically to this engine (see the [`crate::snapshot`] module docs
    /// for what is and is not captured).
    pub fn snapshot(&self) -> Snapshot
    where
        P::State: SnapshotState,
    {
        Snapshot::capture(
            self.pop.agents(),
            &self.cfg,
            self.round,
            self.halted,
            self.adv_rng.raw_state(),
        )
    }

    /// Rebuilds an engine from a [`Snapshot`], resuming exactly where
    /// [`Engine::snapshot`] left off — no `initial_state` calls, the
    /// per-round agent/matching keys derived from the snapshot's seed,
    /// the adversary stream repositioned. The caller supplies the protocol
    /// and adversary instances (they are not serialized); supplying a
    /// *different* adversary, or a [`Snapshot::fork`] branch, is how
    /// counterfactual futures are spawned.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateTagMismatch`] when the snapshot holds a
    /// different protocol's states, [`SnapshotError::Truncated`] /
    /// [`SnapshotError::Malformed`] when the agent column does not decode
    /// to exactly the captured population.
    pub fn restore(protocol: P, adversary: A, snap: &Snapshot) -> Result<Self, SnapshotError>
    where
        P::State: SnapshotState,
    {
        let expected = P::State::state_tag();
        if snap.state_tag != expected {
            return Err(SnapshotError::StateTagMismatch {
                found: snap.state_tag.clone(),
                expected,
            });
        }
        let mut reader = SnapshotReader::new(&snap.agent_bytes);
        reader.set_section("agent states");
        if snap.agent_count > crate::snapshot::MAX_SNAPSHOT_AGENTS {
            return Err(reader.malformed("agent count exceeds the sanity cap"));
        }
        let count = usize::try_from(snap.agent_count)
            .map_err(|_| reader.malformed("population too large"))?;
        // Pre-reserve from the *byte column*, not the claimed count: a
        // hand-sealed snapshot may claim billions of agents over an empty
        // column, and the column decoder below errors out long before the Vec
        // would grow that far.
        let mut agents = Vec::with_capacity(count.min(snap.agent_bytes.len().max(1024)));
        P::State::decode_all(&mut reader, count, &mut agents)?;
        if reader.remaining() != 0 {
            return Err(reader.malformed("agent column longer than the captured population"));
        }
        let pop = Population::new(agents, protocol.columnar());
        Ok(Engine {
            protocol,
            adversary,
            cfg: snap.config.clone(),
            pop,
            round: snap.round,
            adv_rng: SimRng::from_raw_state(snap.adv_rng_state),
            halted: snap.halted,
            scratch: RoundScratch::default(),
        })
    }

    /// Phases 1–2: adversary alterations, then the matching over survivors,
    /// sampled straight into its compact partner table. The matching is
    /// counter-keyed per round, so every shard count of `pool` produces the
    /// identical table — `pool` only changes who computes it.
    fn phase_adversary_and_matching(
        &mut self,
        scratch: &mut RoundScratch<P::Message>,
        report: &mut RoundReport,
        pool: &ShardPool,
    ) {
        // Phase 1: adversary (sees everything, blind to the coming matching).
        // Every adversary but the declared no-op ([`Adversary::is_noop`])
        // gets the population summary, from the columns' stats kernel
        // when it has one. Only one that reads states gets the vector, so
        // the columnar path keeps its columns resident across rounds for
        // the rest, whose alterations apply in the columns.
        let noop = self.adversary.is_noop();
        let majority_round = if noop {
            None
        } else {
            self.pop.stats().majority_round
        };
        let ctx = RoundContext {
            round: self.round,
            budget: self.cfg.adversary_budget,
            target: self.cfg.target,
            population: self.pop.len(),
            majority_round,
        };
        let agents = if self.adversary.reads_states() {
            self.pop.agents()
        } else {
            &[]
        };
        let alterations = self.adversary.act(&ctx, agents, &mut self.adv_rng);
        if !alterations.is_empty() {
            debug_assert!(!noop, "is_noop adversary altered");
            // `deaths` is free until the step phase clears it.
            self.pop.apply_alterations(
                alterations,
                self.cfg.adversary_budget,
                &mut scratch.deaths,
                report,
            );
        }

        // Phase 2: matching over survivors. Round `r`'s pairs are a pure
        // function of `round_key(match_key, r)` — addressable per round,
        // shardable within one (see [`crate::matching`]).
        let population = self.pop.len();
        let match_key = derive_seed(self.cfg.seed, "matching");
        let mkey = round_key(match_key, self.round);
        report.matched = sample_partners_into(
            &mut scratch.partners,
            &mut scratch.shuffle,
            population,
            self.cfg.matching,
            mkey,
            pool,
        );
    }

    /// Phase 4 plus bookkeeping: apply splits (append daughters) then
    /// deaths (swap-remove, descending index order so earlier indices stay
    /// valid; kills may duplicate an own-death, so dedup first), and check
    /// the halt conditions. After a columnar step the lists are applied to
    /// the resident columns instead — same order, same semantics.
    fn phase_apply(&mut self, scratch: &mut RoundScratch<P::Message>, report: &mut RoundReport) {
        let RoundScratch { splits, deaths, .. } = scratch;
        deaths.sort_unstable();
        deaths.dedup();
        report.splits = splits.len();
        report.deaths = deaths.len();
        self.pop.apply(splits, deaths);

        let population = self.pop.len();
        report.population_after = population;
        assert_eq!(
            population + report.deleted + report.deaths,
            report.population_before + report.inserted + report.splits,
            "round {}: population after ≠ before + inserted + splits − deleted − deaths",
            report.round
        );
        self.round += 1;

        if population == 0 {
            self.halted = Some(HaltReason::Extinct);
        } else if population > self.cfg.max_population {
            self.halted = Some(HaltReason::Exploded);
        }
    }
}

/// The unified run driver.
///
/// Every round runs on one persistent [`ShardPool`], whose shard count
/// comes from [`Threads::shards`]: the two `O(population)` stretches of a
/// round — the step phase and the partner-table pass of the matching —
/// shard across it, and the per-agent counter RNG and the counter-keyed
/// matching permutation make the results **bit-identical for every shard
/// count** (asserted by the `sharded_run_*` property tests and the CI
/// determinism diff). [`Threads::Serial`] is the one-shard pool: it spawns
/// no threads and runs each dispatch inline. The remaining phases
/// (adversary, split/death application) stay on the calling thread — they
/// are `O(K + splits + deaths)` work against the `O(population)` passes —
/// as does the keyed shuffle that matches populations under
/// [`KEYED_PERMUTATION_MIN_POPULATION`](crate::matching::KEYED_PERMUTATION_MIN_POPULATION).
/// Sharding is worth it only when single rounds are large: the pool
/// synchronizes several times per round, so at small populations
/// [`Threads::Serial`] wins.
///
/// [`Threads::shards`]: crate::Threads::shards
/// [`Threads::Serial`]: crate::Threads::Serial
impl<P, A> Engine<P, A>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
    P::Message: Send,
    A: Adversary<P::State>,
{
    /// Runs the engine per `spec`, notifying `obs` after every executed
    /// round.
    ///
    /// This is the one execution entry point: the stop condition
    /// ([`Stop::Rounds`] / [`Stop::Until`]) and the
    /// thread configuration ([`Threads::Serial`] / [`Threads::Sharded`],
    /// one pool persisting across all rounds) live in
    /// the [`RunSpec`]; recording and any other instrumentation live in the
    /// [`Observer`]. With the `()` observer the loop is the allocation-free
    /// fast path; with [`RecordStats`](crate::RecordStats) it reproduces the
    /// engine's former built-in stats recording. The trajectory is a pure
    /// function of the seed: the spec's thread configuration and the
    /// observer never change it.
    ///
    /// The `Send`/`Sync` bounds on this impl block are what sharding a
    /// round across threads needs; every protocol in this workspace
    /// satisfies them.
    ///
    /// [`Threads::Serial`]: crate::Threads::Serial
    /// [`Threads::Sharded`]: crate::Threads::Sharded
    pub fn run<F, O>(&mut self, spec: RunSpec<F>, obs: &mut O) -> RunOutcome
    where
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        let shards = spec.threads.shards();
        let mut scratch = std::mem::take(&mut self.scratch);
        // The scalar step phase's work lists of shards `1..` (shard 0
        // writes straight into the round scratch).
        let mut lists: Vec<StepShard> = (1..shards).map(|_| StepShard::default()).collect();
        // The scratch goes back even when the run unwinds (an observer's
        // panic a caller catches), so the next run reuses its buffers.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            ShardPool::with(shards, |pool| {
                self.drive(spec, obs, &mut scratch, &mut lists, pool)
            })
        }));
        self.scratch = scratch;
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// The run loop: executes rounds on `pool` until the spec is exhausted,
    /// the engine halts, or an [`Stop::Until`] predicate fires, notifying
    /// `obs` after every round.
    fn drive<F, O>(
        &mut self,
        spec: RunSpec<F>,
        obs: &mut O,
        scratch: &mut RoundScratch<P::Message>,
        lists: &mut [StepShard],
        pool: &ShardPool,
    ) -> RunOutcome
    where
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        let max_rounds = spec.max_rounds();
        let mut stop = spec.stop;
        let mut executed = 0u64;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        let mut last: Option<RoundReport> = None;
        let mut stopped_early = false;
        while executed < max_rounds {
            if self.halted.is_some() {
                break;
            }
            let report = self.round_on(scratch, lists, pool);
            executed += 1;
            lo = lo.min(report.population_after);
            hi = hi.max(report.population_after);
            // The view stores the vector from the columns only if the
            // observer reads it.
            let view = EngineView {
                pop: &self.pop,
                round: self.round,
                halted: self.halted,
                config: &self.cfg,
                adv_rng_state: self.adv_rng.raw_state(),
            };
            obs.on_round(&report, &view);
            last = Some(report);
            if let Stop::Until { stop, .. } = &mut stop {
                if stop(&report) {
                    stopped_early = true;
                    break;
                }
            }
        }
        // One store at the end of a resident run, so the run that left the
        // vector stale pays for it and the vector is current between runs.
        let population = self.pop.agents().len();
        if executed == 0 {
            lo = population;
            hi = population;
        }
        RunOutcome {
            executed,
            halted: self.halted,
            stopped_early,
            last: last.unwrap_or(RoundReport {
                round: self.round,
                population_before: population,
                population_after: population,
                ..RoundReport::default()
            }),
            min_population: lo,
            max_population: hi,
        }
    }

    /// One synchronous round on `pool`, against explicit scratch buffers.
    fn round_on(
        &mut self,
        scratch: &mut RoundScratch<P::Message>,
        lists: &mut [StepShard],
        pool: &ShardPool,
    ) -> RoundReport {
        let mut report = RoundReport {
            round: self.round,
            population_before: self.pop.len(),
            ..RoundReport::default()
        };
        if self.halted.is_some() {
            report.population_after = report.population_before;
            return report;
        }
        self.phase_adversary_and_matching(scratch, &mut report, pool);
        self.phase_step(scratch, lists, pool);
        self.phase_apply(scratch, &mut report);
        report
    }

    /// Phase 3: simultaneous message exchange, then one step per agent
    /// under its `(round, slot)`-keyed RNG, sharded over `pool`.
    ///
    /// With a columnar form, the population steps in the columns (reloaded
    /// first if the vector was written since they were last current),
    /// leaving the vector stale until something reads it.
    ///
    /// Otherwise the scalar loop shards the message composition and the
    /// step/split/death scan, merging per-shard work lists in slot order.
    /// The result is the same for every shard count because
    ///
    /// * each agent's coin flips come from its own `(round, slot)` counter
    ///   stream, not from a shared sequential stream,
    /// * messages are composed from pre-step state for every matched agent
    ///   before any agent steps,
    /// * shards cover contiguous disjoint slot ranges in order, so the
    ///   concatenated split lists are in ascending slot order, and the
    ///   death lists are sorted + deduped afterwards either way.
    fn phase_step(
        &mut self,
        scratch: &mut RoundScratch<P::Message>,
        lists: &mut [StepShard],
        pool: &ShardPool,
    ) {
        let RoundScratch {
            partners,
            messages,
            splits,
            deaths,
            ..
        } = scratch;
        // Agent `slot`'s coin flips in round `r` are
        // `slot_rng(round_key(agent_key, r), slot)` — addressable per agent,
        // independent of execution order.
        let agent_key = derive_seed(self.cfg.seed, "agent-counter");
        let rkey = round_key(agent_key, self.round);
        splits.clear();
        deaths.clear();
        if self.pop.step_columns(partners, rkey, pool, splits, deaths) {
            return;
        }
        let agents = self.pop.agents_mut();
        let n = agents.len();
        let nshards = pool.shards();
        assert_eq!(lists.len(), nshards - 1);
        let partners: &[u32] = partners;
        let protocol = &self.protocol;

        // Message composition: every shard reads agent states (no one
        // mutates them during this dispatch) and fills the message slots
        // of its own range.
        messages.clear();
        messages.resize_with(n, || None);
        let states: &[P::State] = agents;
        pool.dispatch_parts(&mut shard_chunks(messages, nshards), &|s, msgs| {
            let (lo, hi) = shard_range(n, nshards, s);
            for (msg, &p) in msgs.iter_mut().zip(&partners[lo..hi]) {
                if p != UNMATCHED {
                    *msg = Some(protocol.message(&states[p as usize]));
                }
            }
        });

        // Step scan: each shard mutates only its own agents, reads only its
        // own messages, and collects splits/deaths into its own lists —
        // shard 0 into the round's, so a one-shard pool needs no merge.
        let mut first = StepShard {
            splits: std::mem::take(splits),
            deaths: std::mem::take(deaths),
        };
        let mut parts: Vec<_> = shard_chunks(agents, nshards)
            .into_iter()
            .zip(shard_chunks(messages, nshards))
            .zip(std::iter::once(&mut first).chain(lists.iter_mut()))
            .collect();
        pool.dispatch_parts(&mut parts, &|s, ((states, msgs), out)| {
            let (lo, _) = shard_range(n, nshards, s);
            out.splits.clear();
            out.deaths.clear();
            for (k, (state, incoming)) in states.iter_mut().zip(msgs.iter()).enumerate() {
                let i = lo + k;
                let mut rng = slot_rng(rkey, i as u64);
                match protocol.step(state, incoming.as_ref(), &mut rng) {
                    Action::Continue => {}
                    Action::Split => out.splits.push(i),
                    Action::Die => out.deaths.push(i),
                    // Extended model (§1.2): remove the matched partner. A
                    // kill and a same-round split of the victim both take
                    // effect: the daughter survives, the victim does not.
                    Action::KillPartner => {
                        let j = partners[i];
                        if j != UNMATCHED {
                            out.deaths.push(j as usize);
                        }
                    }
                }
            }
        });

        // Deterministic merge in slot order (shard s covers smaller slots
        // than shard s+1).
        *splits = first.splits;
        *deaths = first.deaths;
        for out in lists.iter() {
            splits.extend_from_slice(&out.splits);
            deaths.extend_from_slice(&out.deaths);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Alteration;
    use crate::agent::{Observable, Observation};
    use crate::driver::Threads;
    use crate::matching::MatchingModel;
    use crate::protocols::{Inert, InertState};
    use rand::Rng;

    /// Every matched agent splits once, then goes quiet. Used to test split
    /// application.
    struct SplitOnce;

    #[derive(Debug, Clone)]
    struct SplitState {
        done: bool,
    }
    impl Observable for SplitState {
        fn observe(&self) -> Observation {
            Observation {
                active: self.done,
                ..Observation::default()
            }
        }
    }

    impl Protocol for SplitOnce {
        type State = SplitState;
        type Message = ();
        fn initial_state(&self, _rng: &mut SimRng) -> SplitState {
            SplitState { done: false }
        }
        fn message(&self, _s: &SplitState) {}
        fn step(&self, s: &mut SplitState, incoming: Option<&()>, _rng: &mut SimRng) -> Action {
            if !s.done && incoming.is_some() {
                s.done = true;
                Action::Split
            } else {
                Action::Continue
            }
        }
    }

    /// Everyone dies immediately.
    struct DieAll;
    #[derive(Debug, Clone)]
    struct Unit;
    impl Observable for Unit {
        fn observe(&self) -> Observation {
            Observation::default()
        }
    }
    impl Protocol for DieAll {
        type State = Unit;
        type Message = ();
        fn initial_state(&self, _rng: &mut SimRng) -> Unit {
            Unit
        }
        fn message(&self, _s: &Unit) {}
        fn step(&self, _s: &mut Unit, _m: Option<&()>, _rng: &mut SimRng) -> Action {
            Action::Die
        }
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::builder().seed(seed).build().unwrap()
    }

    /// One round through the driver, returning its report.
    fn round<P, A>(engine: &mut Engine<P, A>) -> RoundReport
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
        P::Message: Send,
        A: Adversary<P::State>,
    {
        engine.run(RunSpec::rounds(1), &mut ()).last
    }

    #[test]
    fn inert_population_is_stable() {
        let mut engine = Engine::with_population(Inert, cfg(1), 50);
        let mut rec = crate::MetricsRecorder::new();
        let outcome = engine.run(RunSpec::rounds(20), &mut crate::RecordStats::new(&mut rec));
        assert_eq!(outcome.executed, 20);
        assert_eq!(engine.population(), 50);
        assert_eq!(engine.halted(), None);
        assert_eq!(outcome.population_range(), (50, 50));
        assert_eq!(rec.len(), 20);
    }

    #[test]
    fn splits_double_matched_agents() {
        let mut engine = Engine::with_population(SplitOnce, cfg(2), 10);
        let report = round(&mut engine);
        // Full matching on 10 agents: all matched, all split.
        assert_eq!(report.splits, 10);
        assert_eq!(engine.population(), 20);
    }

    #[test]
    fn extinction_halts_engine() {
        let mut engine = Engine::with_population(DieAll, cfg(3), 8);
        let report = round(&mut engine);
        assert_eq!(report.deaths, 8);
        assert_eq!(engine.population(), 0);
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
        // Further rounds are inert.
        let outcome = engine.run(RunSpec::rounds(5), &mut ());
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.population_before, 0);
    }

    #[test]
    fn explosion_cap_halts_engine() {
        /// Splits every round forever.
        struct Exploder;
        impl Protocol for Exploder {
            type State = Unit;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> Unit {
                Unit
            }
            fn message(&self, _s: &Unit) {}
            fn step(&self, _s: &mut Unit, _m: Option<&()>, _r: &mut SimRng) -> Action {
                Action::Split
            }
        }
        let cfg = SimConfig::builder()
            .seed(4)
            .max_population(100)
            .build()
            .unwrap();
        let mut engine = Engine::with_population(Exploder, cfg, 10);
        engine.run(RunSpec::rounds(10), &mut ());
        assert_eq!(engine.halted(), Some(HaltReason::Exploded));
        assert!(engine.population() > 100);
    }

    #[test]
    fn budget_truncates_alterations() {
        struct GreedyDeleter;
        impl Adversary<InertState> for GreedyDeleter {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                agents: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                (0..agents.len()).map(Alteration::Delete).collect()
            }
        }
        let cfg = SimConfig::builder()
            .seed(5)
            .adversary_budget(3)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, GreedyDeleter, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 3);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn duplicate_and_out_of_range_deletes_are_ignored() {
        struct Sloppy;
        impl Adversary<InertState> for Sloppy {
            fn name(&self) -> &'static str {
                "sloppy"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![
                    Alteration::Delete(0),
                    Alteration::Delete(0),
                    Alteration::Delete(999),
                ]
            }
        }
        let cfg = SimConfig::builder()
            .seed(6)
            .adversary_budget(10)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Sloppy, cfg, 5);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 1);
        assert_eq!(engine.population(), 4);
    }

    #[test]
    fn inserts_and_modifies_are_applied() {
        struct Meddler;
        impl Adversary<InertState> for Meddler {
            fn name(&self) -> &'static str {
                "meddler"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![
                    Alteration::Insert(InertState),
                    Alteration::Insert(InertState),
                    Alteration::Modify(0, InertState),
                ]
            }
        }
        let cfg = SimConfig::builder()
            .seed(7)
            .adversary_budget(10)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Meddler, cfg, 5);
        let report = round(&mut engine);
        assert_eq!(report.inserted, 2);
        assert_eq!(report.modified, 1);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn kill_partner_removes_the_matched_agent() {
        /// Agents alternate: even seeds kill, odd do nothing. Using a state
        /// flag: killers kill any partner.
        struct Killer;
        #[derive(Debug, Clone)]
        struct KState {
            lethal: bool,
        }
        impl Observable for KState {
            fn observe(&self) -> Observation {
                Observation {
                    active: self.lethal,
                    ..Observation::default()
                }
            }
        }
        impl Protocol for Killer {
            type State = KState;
            type Message = bool;
            fn initial_state(&self, _r: &mut SimRng) -> KState {
                KState { lethal: false }
            }
            fn message(&self, s: &KState) -> bool {
                s.lethal
            }
            fn step(&self, s: &mut KState, m: Option<&bool>, _r: &mut SimRng) -> Action {
                match m {
                    Some(_) if s.lethal => Action::KillPartner,
                    _ => Action::Continue,
                }
            }
        }
        struct ArmHalf;
        impl Adversary<KState> for ArmHalf {
            fn name(&self) -> &'static str {
                "arm-half"
            }
            fn act(
                &mut self,
                ctx: &RoundContext,
                agents: &[KState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<KState>> {
                if ctx.round == 0 {
                    (0..agents.len() / 2)
                        .map(|i| Alteration::Modify(i, KState { lethal: true }))
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
        let cfg = SimConfig::builder()
            .seed(21)
            .adversary_budget(100)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Killer, ArmHalf, cfg, 20);
        let report = round(&mut engine);
        // Full matching pairs all 20 agents: with k killer-killer pairs there
        // are also k victim-victim pairs (no deaths) and 10 − 2k mixed pairs
        // (victim dies), so exactly 2k + (10 − 2k) = 10 agents die whatever
        // the matching.
        assert_eq!(report.deaths, 10, "deaths={}", report.deaths);
        assert_eq!(engine.population(), 20 - report.deaths);
        // Killers never die to non-killers, so the missing killers come in
        // killer-killer pairs: an even number is gone.
        let lethal_left = engine.agents().iter().filter(|a| a.lethal).count();
        assert_eq!(
            (10 - lethal_left) % 2,
            0,
            "killers died singly: lethal_left={lethal_left}"
        );
    }

    #[test]
    fn mutual_kills_remove_both_without_double_count() {
        /// Everyone kills their partner.
        struct AllKill;
        impl Protocol for AllKill {
            type State = Unit;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> Unit {
                Unit
            }
            fn message(&self, _s: &Unit) {}
            fn step(&self, _s: &mut Unit, m: Option<&()>, _r: &mut SimRng) -> Action {
                if m.is_some() {
                    Action::KillPartner
                } else {
                    Action::Continue
                }
            }
        }
        let cfg = SimConfig::builder().seed(22).build().unwrap();
        let mut engine = Engine::with_population(AllKill, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deaths, 10);
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
    }

    #[test]
    fn population_accounting_identity() {
        // end = start + inserted - deleted + splits - deaths, on every round.
        struct Churn;
        impl Adversary<SplitState> for Churn {
            fn name(&self) -> &'static str {
                "churn"
            }
            fn act(
                &mut self,
                ctx: &RoundContext,
                agents: &[SplitState],
                rng: &mut SimRng,
            ) -> Vec<Alteration<SplitState>> {
                let mut out = Vec::new();
                if !agents.is_empty() && rng.random::<bool>() {
                    out.push(Alteration::Delete(rng.random_range(0..agents.len())));
                }
                if ctx.round.is_multiple_of(2) {
                    out.push(Alteration::Insert(SplitState { done: false }));
                }
                out
            }
        }
        let cfg = SimConfig::builder()
            .seed(8)
            .adversary_budget(4)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(SplitOnce, Churn, cfg, 30);
        for _ in 0..20 {
            let before = engine.population();
            let r = round(&mut engine);
            assert_eq!(r.population_before, before);
            assert_eq!(
                r.population_after,
                before + r.inserted - r.deleted + r.splits - r.deaths,
                "round {} accounting mismatch",
                r.round
            );
            assert_eq!(r.population_after, engine.population());
        }
    }

    #[test]
    fn metrics_stride_reduces_records() {
        let mut engine = Engine::with_population(Inert, cfg(9), 10);
        let mut rec = crate::MetricsRecorder::new();
        engine.run(
            RunSpec::rounds(20),
            &mut crate::RecordStats::stride(&mut rec, 5, 0),
        );
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            // A random matched fraction makes the trajectory seed-dependent.
            let cfg = SimConfig::builder()
                .seed(seed)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.25 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(SplitOnce, cfg, 64);
            let mut pops = Vec::new();
            e.run(
                RunSpec::rounds(5),
                &mut crate::OnRound(|r: &RoundReport| pops.push(r.population_after)),
            );
            pops
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn partial_matching_leaves_agents_unmatched() {
        let cfg = SimConfig::builder()
            .seed(10)
            .matching(MatchingModel::ExactFraction(0.5))
            .build()
            .unwrap();
        let mut engine = Engine::with_population(SplitOnce, cfg, 100);
        let report = round(&mut engine);
        // Exactly half are matched; only those split.
        assert_eq!(report.splits, 50);
    }

    #[test]
    fn serial_and_sharded_specs_agree() {
        let run = |threads: Threads| {
            let cfg = SimConfig::builder()
                .seed(77)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
                .build()
                .unwrap();
            let mut e = Engine::with_population(SplitOnce, cfg, 120);
            let mut trace = Vec::new();
            let outcome = e.run(
                RunSpec::rounds(12).threads(threads),
                &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
            );
            (
                trace,
                outcome.executed,
                outcome.population_range(),
                e.population(),
            )
        };
        let serial = run(Threads::Serial);
        for workers in [0usize, 1, 2, 4] {
            assert_eq!(serial, run(Threads::Sharded(workers)), "{workers} workers");
        }
    }

    #[test]
    fn until_spec_stops_early_and_reports_it() {
        let mut engine = Engine::with_population(SplitOnce, cfg(14), 64);
        let outcome = engine.run(RunSpec::until(50, |r| r.population_after > 100), &mut ());
        assert!(outcome.stopped_early);
        assert_eq!(outcome.executed, 1);
        assert!(outcome.last.population_after > 100);
        // Exhausting the cap is not an early stop.
        let outcome = engine.run(RunSpec::until(3, |_| false), &mut ());
        assert!(!outcome.stopped_early);
        assert_eq!(outcome.executed, 3);
    }

    #[test]
    fn epochs_spec_runs_the_full_grid() {
        let mut engine = Engine::with_population(Inert, cfg(15), 10);
        let outcome = engine.run(RunSpec::rounds(4 * 7), &mut ());
        assert_eq!(outcome.executed, 28);
        assert_eq!(engine.round(), 28);
    }

    #[test]
    fn zero_budget_silences_adversary() {
        struct Deleter;
        impl Adversary<InertState> for Deleter {
            fn name(&self) -> &'static str {
                "del"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                vec![Alteration::Delete(0)]
            }
        }
        let mut engine = Engine::with_adversary(Inert, Deleter, cfg(11), 5);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 0);
        assert_eq!(engine.population(), 5);
    }

    #[test]
    fn bulk_duplicate_deletes_still_dedup_and_consume_budget() {
        // A repeat delete consumes budget without freeing a second agent —
        // the first-seen semantics the O(budget²) `contains` probe used to
        // implement, now via sort+dedup.
        struct Hammer;
        impl Adversary<InertState> for Hammer {
            fn name(&self) -> &'static str {
                "hammer"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                // 6 in-budget alterations: indices 2,2,0,5,2,0 → uniques {0,2,5}.
                vec![2usize, 2, 0, 5, 2, 0]
                    .into_iter()
                    .map(Alteration::Delete)
                    .collect()
            }
        }
        let cfg = SimConfig::builder()
            .seed(23)
            .adversary_budget(6)
            .build()
            .unwrap();
        let mut engine = Engine::with_adversary(Inert, Hammer, cfg, 10);
        let report = round(&mut engine);
        assert_eq!(report.deleted, 3);
        assert_eq!(engine.population(), 7);
    }

    #[test]
    fn zero_round_spec_reports_the_live_engine() {
        let mut engine = Engine::with_population(Inert, cfg(31), 12);
        engine.run(RunSpec::rounds(3), &mut ());
        let outcome = engine.run(RunSpec::rounds(0), &mut ());
        assert_eq!(outcome.executed, 0);
        assert!(!outcome.stopped_early);
        assert_eq!(outcome.halted, None);
        // The synthetic `last` report mirrors the live engine exactly.
        assert_eq!(outcome.population_range(), (12, 12));
        assert_eq!(outcome.last.round, engine.round());
        assert_eq!(outcome.last.population_before, engine.population());
        assert_eq!(outcome.last.population_after, engine.population());
    }

    #[test]
    fn halted_engine_outcome_agrees_with_live_state() {
        let mut engine = Engine::with_population(DieAll, cfg(32), 6);
        engine.run(RunSpec::rounds(1), &mut ());
        assert_eq!(engine.halted(), Some(HaltReason::Extinct));
        let outcome = engine.run(RunSpec::rounds(10), &mut ());
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.round, engine.round());
        assert_eq!(outcome.last.population_before, 0);
        assert_eq!(outcome.last.population_after, 0);
    }

    #[test]
    fn halt_on_first_round_still_counts_the_round() {
        let mut engine = Engine::with_population(DieAll, cfg(33), 5);
        let outcome = engine.run(RunSpec::rounds(5), &mut ());
        // The extinction round executed; only the remaining four were cut.
        assert_eq!(outcome.executed, 1);
        assert_eq!(outcome.halted, Some(HaltReason::Extinct));
        assert_eq!(outcome.population_range(), (0, 0));
        assert_eq!(outcome.last.population_before, 5);
        assert_eq!(outcome.last.population_after, 0);
        assert_eq!(outcome.last.deaths, 5);
        assert_eq!(engine.population(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let cfg = || {
            SimConfig::builder()
                .seed(0x5EED)
                .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
                .build()
                .unwrap()
        };
        let mut straight = Engine::with_population(Inert, cfg(), 40);
        let mut full = Vec::new();
        straight.run(
            RunSpec::rounds(20),
            &mut crate::OnRound(|r: &RoundReport| full.push(*r)),
        );

        let mut prefix = Engine::with_population(Inert, cfg(), 40);
        prefix.run(RunSpec::rounds(7), &mut ());
        let snap = prefix.snapshot();
        assert_eq!(snap.round(), 7);
        assert_eq!(snap.population(), 40);

        // Round-trip through the byte format into a fresh engine.
        let bytes = snap.to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let mut resumed = Engine::restore(Inert, NoOpAdversary, &snap).unwrap();
        let mut tail = Vec::new();
        resumed.run(
            RunSpec::rounds(13),
            &mut crate::OnRound(|r: &RoundReport| tail.push(*r)),
        );
        assert_eq!(&full[7..], &tail[..]);
        assert_eq!(resumed.round(), straight.round());
        assert_eq!(resumed.population(), straight.population());
    }

    #[test]
    fn restore_rejects_a_foreign_state_tag() {
        let engine = Engine::with_population(Inert, cfg(40), 4);
        let snap = engine.snapshot();
        // InertState's tag is "inert"; decoding it as a different protocol
        // must fail loudly rather than misinterpret bytes.
        #[derive(Debug, Clone)]
        struct OtherState;
        impl Observable for OtherState {
            fn observe(&self) -> Observation {
                Observation::default()
            }
        }
        impl crate::snapshot::SnapshotState for OtherState {
            fn state_tag() -> String {
                "other".to_string()
            }
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(OtherState)
            }
        }
        #[derive(Debug)]
        struct Other;
        impl Protocol for Other {
            type State = OtherState;
            type Message = ();
            fn initial_state(&self, _r: &mut SimRng) -> OtherState {
                OtherState
            }
            fn message(&self, _s: &OtherState) {}
            fn step(&self, _s: &mut OtherState, _m: Option<&()>, _r: &mut SimRng) -> Action {
                Action::Continue
            }
        }
        match Engine::restore(Other, NoOpAdversary, &snap) {
            Err(SnapshotError::StateTagMismatch { found, expected }) => {
                assert_eq!(found, "inert");
                assert_eq!(expected, "other");
            }
            other => panic!("expected a state-tag mismatch, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_of_a_halted_engine_restores_halted() {
        let cap_cfg = SimConfig::builder()
            .seed(42)
            .adversary_budget(4)
            .max_population(2)
            .build()
            .unwrap();
        struct Bomb;
        impl Adversary<InertState> for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn act(
                &mut self,
                _c: &RoundContext,
                _a: &[InertState],
                _r: &mut SimRng,
            ) -> Vec<Alteration<InertState>> {
                (0..4).map(|_| Alteration::Insert(InertState)).collect()
            }
        }
        let mut exploding = Engine::with_adversary(Inert, Bomb, cap_cfg, 2);
        exploding.run(RunSpec::rounds(3), &mut ());
        assert_eq!(exploding.halted(), Some(HaltReason::Exploded));
        let snap = exploding.snapshot();
        assert_eq!(snap.halted(), Some(HaltReason::Exploded));
        let mut restored = Engine::restore(Inert, NoOpAdversary, &snap).unwrap();
        assert_eq!(restored.halted(), Some(HaltReason::Exploded));
        // A halted engine stays inert after restore, too.
        assert_eq!(restored.run(RunSpec::rounds(5), &mut ()).executed, 0);
    }
}
