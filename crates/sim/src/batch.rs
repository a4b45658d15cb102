//! Parallel batch execution of independent simulation jobs.
//!
//! The paper's guarantees are asymptotic: observing the `1/(8√N)` leader
//! probability or the `K = N^{1/4−ε}` tolerance threshold cleanly takes many
//! independent trials at large `N`. Every such trial is an isolated
//! `(protocol, adversary, config, seed)` job, so the natural unit of scaling
//! is the *batch*: [`BatchRunner`] fans a vector of jobs across a
//! [`std::thread::scope`] worker pool and collects the results **in job
//! order**.
//!
//! # Determinism contract
//!
//! Results are bit-identical regardless of worker count and of how the OS
//! schedules the workers:
//!
//! * every job carries its own seed (derive it with [`job_seed`] or any
//!   scheme of your choosing) and builds its own [`Engine`] /
//!   RNG streams from it — jobs share no mutable state,
//! * workers claim jobs from an atomic counter, but each result is written
//!   to the slot of *its own* job index, so the output `Vec` order never
//!   depends on scheduling,
//! * `BatchRunner::new(1)` executes inline on the calling thread; the
//!   `batch_runner_is_thread_count_independent` property test asserts it
//!   produces exactly the same results as any multi-worker configuration.
//!
//! Consequently a batch over jobs seeded from a single master seed is as
//! reproducible as one serial run — `--jobs 32` and `--jobs 1` print the
//! same tables.
//!
//! # Failure semantics
//!
//! A panicking job is fatal to its batch: [`BatchRunner::run`] stops
//! claiming new jobs, lets the jobs already claimed finish, and re-raises
//! the panic of the lowest-indexed failing job on the calling thread —
//! the same payload a one-worker run raises, whatever the worker count.
//! Surviving crashes is the job of checkpoints ([`crate::Checkpoint`]),
//! not of the batch layer. [`ShardPool`] is panic-safe as well: a
//! panicking shard body cannot wedge the barrier, the panic is re-raised
//! on the dispatching thread once every shard has finished, and the pool
//! stays usable for later dispatches.
//!
//! ```
//! use popstab_sim::batch::{job_seed, BatchRunner, Scenario};
//! use popstab_sim::{protocols::Inert, RunSpec, SimConfig};
//!
//! let jobs: Vec<u64> = (0..8).map(|i| job_seed(42, i)).collect();
//! let runner = BatchRunner::new(4);
//! let finals = runner.run(jobs.clone(), |_, seed| {
//!     let cfg = SimConfig::builder().seed(seed).build().unwrap();
//!     let (engine, _) = Scenario::new(Inert, cfg, 64).run(RunSpec::rounds(50), &mut ());
//!     engine.population()
//! });
//! assert_eq!(finals, BatchRunner::new(1).run(jobs, |_, _| 64));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::adversary::{Adversary, NoOpAdversary};
use crate::agent::Protocol;
use crate::config::SimConfig;
use crate::driver::{Observer, RunOutcome, RunSpec};
use crate::engine::{Engine, RoundReport};
use crate::rng::derive_seed;
use crate::snapshot::SnapshotState;

/// Derives the master seed for job `index` of a batch seeded by `master`.
///
/// Golden-rule of the determinism contract: the job seed depends only on
/// `(master, index)` — never on worker identity, scheduling order, or wall
/// time. Internally the index is mixed into the master seed (SplitMix64
/// increment) and the result is pushed through the same FNV fold as
/// [`derive_stream`](crate::rng::derive_stream), so job streams are
/// independent of each other *and* of any streams the caller derives from
/// `master` directly.
pub fn job_seed(master: u64, index: u64) -> u64 {
    derive_seed(
        master.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        "batch-job",
    )
}

/// Fans independent jobs across a scoped worker pool.
///
/// See the [module docs](crate::batch) for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    workers: usize,
}

/// A runner with one worker per core
/// ([`std::thread::available_parallelism`], else 1).
impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl BatchRunner {
    /// A runner with exactly `workers` worker threads (`0` is clamped to 1).
    /// One worker executes inline on the calling thread.
    pub fn new(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `run(index, job)` for every job and returns the results in
    /// job order. `run` must be a pure function of its arguments for the
    /// determinism contract to hold (in particular: seed all randomness from
    /// the job, never from global state).
    ///
    /// Worker threads claim jobs through an atomic cursor (work stealing
    /// without queues: jobs are taken in index order, so long jobs at the
    /// front do not serialize the batch).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed failing job once every
    /// claimed job has finished; no job is claimed after a failure. Since
    /// claims go in index order, every lower-indexed job was claimed before
    /// any failure, so the payload is the one a one-worker run raises.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, run: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| run(i, job))
                .collect();
        }

        let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let failure: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        let run = &run;
        let slots = &slots;
        let results = &results;
        let cursor = &cursor;
        let failure = &failure;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    // AssertUnwindSafe: a failed job's state is never
                    // looked at again; its payload is re-raised below.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i, job))) {
                        Ok(result) => {
                            *results[i].lock().expect("result slot poisoned") = Some(result)
                        }
                        Err(payload) => {
                            // Exhausting the cursor stops every worker's claims.
                            cursor.fetch_max(n, Ordering::Relaxed);
                            let mut first = failure.lock().expect("failure slot poisoned");
                            if first.as_ref().is_none_or(|&(j, _)| i < j) {
                                *first = Some((i, payload));
                            }
                        }
                    }
                });
            }
        });
        if let Some((_, payload)) = failure.lock().expect("failure slot poisoned").take() {
            std::panic::resume_unwind(payload);
        }
        results
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("job finished without a result")
            })
            .collect()
    }
}

/// A declarative, self-contained simulation job: the `(protocol, adversary,
/// config, initial population)` tuple every trial loop in the workspace
/// used to hand-roll.
///
/// A `Scenario` is plain data (`Clone` when its parts are), so sweeps can
/// build one per grid cell and fan them out over a [`BatchRunner`] — each
/// job builds its own [`Engine`] from its own seed, which is exactly the
/// batch determinism contract. Named, concrete scenarios (the paper's
/// protocol against each suite adversary, the baselines, …) live in the
/// `popstab-bench` registry (`experiments --list`); this type is the
/// generic substrate they are built from.
///
/// ```
/// use popstab_sim::{protocols::Inert, RunSpec, Scenario, SimConfig};
///
/// let cfg = SimConfig::builder().seed(3).build().unwrap();
/// let (engine, outcome) = Scenario::new(Inert, cfg, 32).run(RunSpec::rounds(5), &mut ());
/// assert_eq!(outcome.executed, 5);
/// assert_eq!(engine.population(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario<P, A = NoOpAdversary> {
    /// The protocol every agent runs.
    pub protocol: P,
    /// The adversary acting each round.
    pub adversary: A,
    /// Engine configuration (seed, matching model, budget, caps).
    pub config: SimConfig,
    /// Initial population size.
    pub initial: usize,
}

impl<P: Protocol> Scenario<P, NoOpAdversary> {
    /// A scenario with no adversary.
    pub fn new(protocol: P, config: SimConfig, initial: usize) -> Self {
        Scenario {
            protocol,
            adversary: NoOpAdversary,
            config,
            initial,
        }
    }
}

impl<P: Protocol, A: Adversary<P::State>> Scenario<P, A> {
    /// Replaces the adversary (builder-style, so `Scenario::new(..)
    /// .against(adv)` reads declaratively).
    pub fn against<B: Adversary<P::State>>(self, adversary: B) -> Scenario<P, B> {
        Scenario {
            protocol: self.protocol,
            adversary,
            config: self.config,
            initial: self.initial,
        }
    }

    /// Builds the engine this scenario describes (on the columnar step
    /// path whenever the protocol offers one, like every engine).
    pub fn engine(self) -> Engine<P, A> {
        Engine::with_adversary(self.protocol, self.adversary, self.config, self.initial)
    }

    /// Builds the engine and drives it through `spec` under `obs`,
    /// returning the engine (for state inspection) and the outcome.
    pub fn run<F, O>(self, spec: RunSpec<F>, obs: &mut O) -> (Engine<P, A>, RunOutcome)
    where
        P: Sync,
        P::State: Send + Sync,
        P::Message: Send,
        F: FnMut(&RoundReport) -> bool,
        O: Observer<P>,
    {
        let mut engine = self.engine();
        let outcome = engine.run(spec, obs);
        (engine, outcome)
    }

    /// Runs the shared prefix once (serially, to `at_round`), snapshots it,
    /// and branches the frozen state into one divergent future per entry of
    /// `branches`, fanned out over `runner`.
    ///
    /// Each branch restores its own [`Engine`] from
    /// [`Snapshot::fork`](crate::Snapshot::fork)`(seed_salt)` — optionally
    /// with a different adversary budget — pairs it with the branch's own
    /// adversary, and hands it to `eval(index, engine)`, which drives the
    /// future however it likes (spec, observer, measurements) and returns
    /// the branch result. Results come back in branch order, and, like any
    /// batch, are bit-identical for every worker count.
    ///
    /// A branch with `seed_salt = 0`, the prefix adversary, and no budget
    /// override continues *exactly* the uninterrupted run — the
    /// counterfactual baseline comes for free.
    ///
    /// ```
    /// use popstab_sim::batch::{BatchRunner, ForkBranch, Scenario};
    /// use popstab_sim::{protocols::Inert, NoOpAdversary, RunSpec, SimConfig};
    ///
    /// let cfg = SimConfig::builder().seed(9).build().unwrap();
    /// let branches = (0..4u64)
    ///     .map(|salt| ForkBranch::new(salt, NoOpAdversary))
    ///     .collect();
    /// let finals = Scenario::new(Inert, cfg, 32).fork(
    ///     10,
    ///     branches,
    ///     &BatchRunner::new(2),
    ///     |_, mut engine| {
    ///         engine.run(RunSpec::rounds(10), &mut ());
    ///         engine.population()
    ///     },
    /// );
    /// assert_eq!(finals, vec![32; 4]);
    /// ```
    pub fn fork<B, R, F>(
        self,
        at_round: u64,
        branches: Vec<ForkBranch<B>>,
        runner: &BatchRunner,
        eval: F,
    ) -> Vec<R>
    where
        P: Clone + Send + Sync,
        P::State: SnapshotState + Send + Sync,
        P::Message: Send,
        B: Adversary<P::State> + Send,
        R: Send,
        F: Fn(usize, Engine<P, B>) -> R + Sync,
    {
        let protocol = self.protocol.clone();
        let mut prefix = self.engine();
        prefix.run(RunSpec::rounds(at_round), &mut ());
        let snap = prefix.snapshot();
        drop(prefix);
        let protocol = &protocol;
        let snap = &snap;
        runner.run(branches, move |index, branch| {
            let mut snap = snap.fork(branch.seed_salt);
            if let Some(budget) = branch.budget {
                snap.config_mut().adversary_budget = budget;
            }
            // Same-process, same protocol type: the tag always matches and
            // the agent column decodes exactly as it was encoded.
            let engine = Engine::restore(protocol.clone(), branch.adversary, &snap)
                .expect("a freshly taken snapshot restores under its own protocol");
            eval(index, engine)
        })
    }
}

/// One branch of a [`Scenario::fork`]: the seed perturbation and adversary
/// (plus optional budget override) its future diverges under.
///
/// `seed_salt = 0` leaves the snapshot's streams untouched (the branch
/// replays the original future as long as its adversary behaves
/// identically); any other salt derives fresh, decorrelated agent/matching/
/// adversary streams for the rounds after the fork point.
#[derive(Debug, Clone)]
pub struct ForkBranch<B> {
    /// Stream perturbation, mixed into the snapshot seed; `0` = unperturbed.
    pub seed_salt: u64,
    /// The adversary this branch runs under after the fork point.
    pub adversary: B,
    /// Replacement adversary budget, if the branch varies it.
    pub budget: Option<usize>,
}

impl<B> ForkBranch<B> {
    /// A branch with the given salt and adversary, keeping the snapshot's
    /// budget.
    pub fn new(seed_salt: u64, adversary: B) -> Self {
        ForkBranch {
            seed_salt,
            adversary,
            budget: None,
        }
    }

    /// Overrides the adversary budget for this branch (builder-style).
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// The slot range shard `s` of `nshards` owns over `n` items: contiguous,
/// disjoint, covering `0..n`, balanced to within one item.
#[inline]
pub(crate) fn shard_range(n: usize, nshards: usize, s: usize) -> (usize, usize) {
    let chunk = n / nshards;
    let rem = n % nshards;
    let lo = s * chunk + s.min(rem);
    (lo, lo + chunk + usize::from(s < rem))
}

/// `items` cut at the [`shard_range`] bounds of `nshards` shards, in shard
/// order: the parts of a [`ShardPool::dispatch_parts`] over `items`.
pub(crate) fn shard_chunks<T>(mut items: &mut [T], nshards: usize) -> Vec<&mut [T]> {
    let n = items.len();
    (0..nshards)
        .map(|s| {
            let (lo, hi) = shard_range(n, nshards, s);
            items
                .split_off_mut(..hi - lo)
                .expect("shard ranges cover `items`")
        })
        .collect()
}

/// One dispatched shard body, type- and lifetime-erased so the persistent
/// workers can hold it across their `recv` loop.
struct ShardTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is executed concurrently by every
// worker), and `ShardPool::dispatch` does not return until every worker has
// finished running it, so the pointer never outlives the closure it points
// to.
unsafe impl Send for ShardTask {}

/// Dispatch-protocol state shared between the pool owner and its workers.
struct PoolState {
    /// The body of the generation currently being executed, if any.
    task: Option<ShardTask>,
    /// Bumped once per dispatch; workers run each generation exactly once.
    generation: u64,
    /// Workers still executing the current generation.
    outstanding: usize,
    /// First panic caught from a worker shard this generation.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once by [`ShardPool::with`] on the way out.
    shutdown: bool,
}

/// A persistent intra-round worker pool.
///
/// [`BatchRunner`] parallelizes *across* independent jobs; `ShardPool`
/// parallelizes *inside* one simulation round. `with(n, f)` spawns `n − 1`
/// scoped worker threads that live for the whole closure `f` — one `Engine`
/// run can dispatch thousands of rounds without paying a thread spawn per
/// round. Each [`dispatch`](ShardPool::dispatch) runs `body(shard)` exactly
/// once for every shard index in `0..n` (shard 0 on the calling thread,
/// the rest on the workers) and returns only when all of them finished, so
/// the body may borrow from the caller's stack;
/// [`dispatch_parts`](ShardPool::dispatch_parts) additionally hands each
/// shard its own `&mut` part.
///
/// The pool imposes no determinism by itself — callers get bit-identical
/// results for every shard count by keying all randomness on data (see
/// [`crate::rng::counter_seed`]) and merging per-shard output in slot
/// order, which is exactly what [`Engine::run`] does.
pub struct ShardPool {
    shards: usize,
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Guards against concurrent `dispatch` calls (the pool is `Sync`, but
    /// the dispatch protocol is single-dispatcher; see [`ShardPool::dispatch`]).
    dispatching: std::sync::atomic::AtomicBool,
}

impl ShardPool {
    /// Runs `f` with a pool of `shards` shards (`0` is clamped to 1), then
    /// joins the workers. With one shard no threads are spawned and
    /// dispatches run inline.
    pub fn with<R>(shards: usize, f: impl FnOnce(&ShardPool) -> R) -> R {
        let pool = ShardPool {
            shards: shards.max(1),
            state: Mutex::new(PoolState {
                task: None,
                generation: 0,
                outstanding: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            dispatching: std::sync::atomic::AtomicBool::new(false),
        };
        if pool.shards == 1 {
            return f(&pool);
        }
        /// Shuts the workers down when dropped — including when `f`
        /// unwinds, without which the scope join below would hang forever.
        struct Shutdown<'a>(&'a ShardPool);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.state().shutdown = true;
                self.0.work_ready.notify_all();
            }
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..pool.shards)
                .map(|shard| {
                    let pool = &pool;
                    scope.spawn(move || pool.worker_loop(shard))
                })
                .collect();
            let out = {
                let _shutdown = Shutdown(&pool);
                f(&pool)
            };
            // The scope only waits for each worker's closure; joining waits
            // for the thread's exit too, whose frees would otherwise race
            // the caller's next allocations.
            for worker in workers {
                worker.join().expect("workers catch every task panic");
            }
            out
        })
    }

    /// The shard count `n`: every dispatch runs shard indices `0..n`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Locks the protocol state, recovering from poisoning. Every mutation
    /// of `PoolState` keeps it consistent at every intermediate point (the
    /// fields are plain counters and options), so a panic while the lock is
    /// held — which can only come from the caller's `body` via the unwind
    /// paths — leaves valid state behind and the lock may be safely
    /// re-entered. Treating poison as fatal here would turn one reported
    /// shard panic into a permanently wedged pool.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `body(shard)` for every shard index in `0..self.shards()`,
    /// each exactly once (shard 0 inline on the caller), returning when all
    /// have finished. `body` must tolerate running concurrently with itself
    /// under distinct shard indices.
    ///
    /// A panic on any shard is re-raised here on the calling thread — but
    /// only **after** every shard has finished, so the stack frame the body
    /// borrows from stays alive for as long as any worker can touch it
    /// (the same all-shards barrier the success path uses).
    ///
    /// # Panics
    ///
    /// Panics if called while another `dispatch` on the same pool is still
    /// running. The pool is one team of workers executing one generation at
    /// a time; overlapping dispatches would let a worker outlive the stack
    /// frame its task borrows, so the protocol refuses them outright.
    pub fn dispatch(&self, body: &(dyn Fn(usize) + Sync)) {
        if self.shards == 1 {
            body(0);
            return;
        }
        assert!(
            !self.dispatching.swap(true, Ordering::Acquire),
            "concurrent ShardPool::dispatch calls on one pool"
        );
        {
            // SAFETY (lifetime erasure): the pointer is only dereferenced by
            // workers between this publication and the `outstanding == 0`
            // wait below, during which `body` is borrowed by `self`.
            let erased: &'static (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
            let mut st = self.state();
            st.task = Some(ShardTask(erased));
            st.generation += 1;
            st.outstanding = self.shards - 1;
        }
        self.work_ready.notify_all();
        // Shard 0's panic is caught so that the barrier below holds before
        // it unwinds (the workers borrow this frame); AssertUnwindSafe, as
        // the payload is re-raised, not handled.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(0)));
        let mut st = self.state();
        while st.outstanding > 0 {
            st = self
                .work_done
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.task = None;
        let worker_panic = st.panic.take();
        drop(st);
        self.dispatching.store(false, Ordering::Release);
        if let Some(payload) = own.err().or(worker_panic) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `body(s, &mut parts[s])` for every shard index `s`, with the
    /// barrier and panic behavior of [`dispatch`](ShardPool::dispatch):
    /// the safe way to hand each shard its own disjoint `&mut` data
    /// (typically column windows cut with `split_at_mut` at
    /// [`word_shard_range`](crate::columns::word_shard_range) bounds).
    ///
    /// # Panics
    ///
    /// Panics if `parts.len() != self.shards()`, and on concurrent
    /// dispatches, exactly like `dispatch`.
    pub fn dispatch_parts<T: Send>(&self, parts: &mut [T], body: &(dyn Fn(usize, &mut T) + Sync)) {
        assert_eq!(
            parts.len(),
            self.shards,
            "dispatch_parts needs one part per shard"
        );
        // Shard `s` is the only one to lock `parts[s]`, once, so every lock
        // is uncontended and none can be poisoned when taken.
        let parts: Vec<Mutex<&mut T>> = parts.iter_mut().map(Mutex::new).collect();
        self.dispatch(&|s| {
            body(s, &mut parts[s].lock().expect("each part is locked once"));
        });
    }

    fn worker_loop(&self, shard: usize) {
        let mut seen = 0u64;
        loop {
            let task = {
                let mut st = self.state();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen {
                        seen = st.generation;
                        break st.task.as_ref().expect("generation without task").0;
                    }
                    st = self
                        .work_ready
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            // SAFETY: `dispatch` blocks until `outstanding` drops to
            // zero, so the closure behind the pointer is still alive. The
            // panic guard keeps that true on the unwinding path too: a
            // panicking shard still decrements `outstanding` (the payload is
            // reported to the dispatcher, never dropped on the floor).
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*task)(shard)
            }));
            let mut st = self.state();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.outstanding -= 1;
            if st.outstanding == 0 {
                self.work_done.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let runner = BatchRunner::new(4);
        let out = runner.run((0..100usize).collect(), |i, job| {
            assert_eq!(i, job);
            job * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let runner = BatchRunner::new(1);
        let id = std::thread::current().id();
        let out = runner.run(vec![(); 4], |i, ()| {
            assert_eq!(std::thread::current().id(), id);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let compute = |_, seed: u64| {
            // A little seed-dependent arithmetic standing in for a trial.
            let mut x = seed;
            for _ in 0..10 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            x
        };
        let jobs: Vec<u64> = (0..33).map(|i| job_seed(7, i)).collect();
        let serial = BatchRunner::new(1).run(jobs.clone(), compute);
        for workers in [2, 3, 8, 64] {
            assert_eq!(BatchRunner::new(workers).run(jobs.clone(), compute), serial);
        }
    }

    #[test]
    fn a_failing_batch_reraises_its_lowest_failing_jobs_own_panic() {
        for workers in 1..=4 {
            let payload = std::panic::catch_unwind(|| {
                BatchRunner::new(workers).run((0..10usize).collect(), |i, job| match i {
                    3 => panic!("job 3 failed"),
                    6 => panic!("job 6 failed"),
                    _ => job,
                })
            })
            .expect_err("a job panic was swallowed");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"job 3 failed"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = BatchRunner::new(8).run(Vec::<u8>::new(), |_, j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        assert_eq!(BatchRunner::new(0).workers(), 1);
    }

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| job_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| job_seed(1, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "job seeds collide");
        assert!(a.iter().all(|&s| s != job_seed(2, 0)));
    }

    #[test]
    fn shard_pool_runs_every_shard_exactly_once_per_dispatch() {
        use std::sync::atomic::AtomicU32;
        for shards in [1usize, 2, 3, 8] {
            ShardPool::with(shards, |pool| {
                assert_eq!(pool.shards(), shards);
                let hits: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
                for _ in 0..50 {
                    pool.dispatch(&|s| {
                        hits[s].fetch_add(1, Ordering::Relaxed);
                    });
                }
                for (s, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 50, "shard {s}");
                }
            });
        }
    }

    #[test]
    fn shard_pool_dispatch_borrows_caller_stack() {
        // Disjoint writes into a stack buffer, one chunk per shard: the
        // dispatch barrier makes the borrow sound and the result visible.
        let mut buf = vec![0u64; 97];
        ShardPool::with(4, |pool| {
            pool.dispatch_parts(&mut shard_chunks(&mut buf, 4), &|s, chunk| {
                let (lo, _) = shard_range(97, 4, s);
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (lo + k) as u64 + 1;
                }
            });
        });
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn dispatch_parts_visits_every_part_once_with_its_own_index() {
        for shards in [1usize, 2, 3, 8] {
            ShardPool::with(shards, |pool| {
                let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
                for _ in 0..20 {
                    pool.dispatch_parts(&mut parts, &|s, part| part.push(s));
                }
                for (s, part) in parts.iter().enumerate() {
                    assert_eq!(part, &vec![s; 20], "shard {s} of {shards}");
                }
            });
        }
    }

    #[test]
    fn dispatch_parts_reraises_a_panic_after_every_other_part_is_written() {
        use std::sync::atomic::AtomicBool;
        let mut parts = [0u32; 4];
        let panicking = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardPool::with(4, |pool| {
                pool.dispatch_parts(&mut parts, &|s, part| {
                    if s == 1 {
                        panicking.store(true, Ordering::SeqCst);
                        panic!("shard boom");
                    }
                    // Write only once shard 1 is already unwinding.
                    while !panicking.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    *part = s as u32 + 10;
                });
            });
        }));
        assert!(result.is_err(), "shard panic was swallowed");
        assert_eq!(parts, [10, 0, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "one part per shard")]
    fn dispatch_parts_rejects_a_part_count_other_than_the_shard_count() {
        ShardPool::with(2, |pool| pool.dispatch_parts(&mut [0u8; 3], &|_, _| {}));
    }

    #[test]
    fn shard_pool_returns_only_after_its_workers_have_exited() {
        // A thread-local destructor runs while the worker thread exits,
        // after its closure has returned: the point a scope stops waiting.
        // The sleep holds the exit open long enough to lose that race.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: OnExit = const { OnExit };
        }
        ShardPool::with(4, |pool| {
            pool.dispatch(&|s| {
                if s > 0 {
                    ON_EXIT.with(|_| {});
                }
            });
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn shard_pool_propagates_worker_panics() {
        use std::sync::atomic::AtomicU32;
        for shards in [1, 4] {
            ShardPool::with(shards, |pool| {
                let result = std::panic::catch_unwind(|| {
                    pool.dispatch(&|s| {
                        if s == shards / 2 {
                            panic!("shard boom");
                        }
                    });
                });
                let payload = result.expect_err("worker panic was swallowed");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard boom"));
                // The pool stays usable for later generations even though a
                // shard of the previous dispatch panicked.
                let ran = AtomicU32::new(0);
                pool.dispatch(&|s| {
                    ran.fetch_or(1 << s, Ordering::Relaxed);
                });
                assert_eq!(ran.into_inner(), (1 << shards) - 1, "{shards} shards");
            });
        }
    }

    #[test]
    fn shard_pool_holds_the_barrier_when_shard_zero_panics() {
        use std::sync::atomic::AtomicU32;
        let finished = AtomicU32::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardPool::with(3, |pool| {
                pool.dispatch(&|s| {
                    if s == 0 {
                        panic!("caller boom");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "caller panic was swallowed");
        // Every worker shard ran to completion before the panic propagated:
        // the all-shards barrier must hold on the unwinding path too, or
        // workers would race a dead stack frame.
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shard_pool_zero_clamps_to_one_inline_shard() {
        let id = std::thread::current().id();
        ShardPool::with(0, |pool| {
            assert_eq!(pool.shards(), 1);
            pool.dispatch(&|s| {
                assert_eq!(s, 0);
                assert_eq!(std::thread::current().id(), id);
            });
        });
    }

    /// Coin-flip splitter/dier: every round each agent splits or dies on a
    /// fair draw, so the trajectory is maximally seed-sensitive — exactly
    /// what fork-divergence tests need.
    #[derive(Debug, Clone, Copy)]
    struct Drift;
    #[derive(Debug, Clone)]
    struct DriftState;
    impl crate::Observable for DriftState {
        fn observe(&self) -> crate::Observation {
            crate::Observation::default()
        }
    }
    impl crate::snapshot::SnapshotState for DriftState {
        fn state_tag() -> String {
            "drift-test".to_string()
        }
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(
            _r: &mut crate::snapshot::SnapshotReader<'_>,
        ) -> Result<Self, crate::snapshot::SnapshotError> {
            Ok(DriftState)
        }
    }
    impl Protocol for Drift {
        type State = DriftState;
        type Message = ();
        fn initial_state(&self, _rng: &mut crate::SimRng) -> DriftState {
            DriftState
        }
        fn message(&self, _s: &DriftState) {}
        fn step(
            &self,
            _s: &mut DriftState,
            _m: Option<&()>,
            rng: &mut crate::SimRng,
        ) -> crate::Action {
            use rand::Rng;
            if rng.random_bool(0.5) {
                crate::Action::Split
            } else {
                crate::Action::Die
            }
        }
    }

    fn drift_scenario() -> Scenario<Drift> {
        let cfg = SimConfig::builder().seed(0xF0_4B).build().unwrap();
        Scenario::new(Drift, cfg, 64)
    }

    fn trace_of<A: Adversary<DriftState>>(
        engine: &mut Engine<Drift, A>,
        rounds: u64,
    ) -> Vec<RoundReport> {
        let mut trace = Vec::new();
        engine.run(
            RunSpec::rounds(rounds),
            &mut crate::OnRound(|r: &RoundReport| trace.push(*r)),
        );
        trace
    }

    #[test]
    fn fork_identity_branch_reproduces_the_straight_line_run() {
        let mut straight = drift_scenario().engine();
        let full = trace_of(&mut straight, 20);

        let branches = vec![ForkBranch::new(0, NoOpAdversary)];
        let tails = drift_scenario().fork(7, branches, &BatchRunner::new(1), |_, mut engine| {
            (trace_of(&mut engine, 13), engine.population())
        });
        let (tail, final_pop) = &tails[0];
        assert_eq!(&full[7..], &tail[..]);
        assert_eq!(*final_pop, straight.population());
    }

    #[test]
    fn fork_branches_are_worker_count_invariant_and_salts_diverge() {
        let branches = || -> Vec<_> {
            (0..4u64)
                .map(|s| ForkBranch::new(s, NoOpAdversary))
                .collect()
        };
        let run = |workers| {
            drift_scenario().fork(
                5,
                branches(),
                &BatchRunner::new(workers),
                |_, mut engine| trace_of(&mut engine, 10),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(3));
        // Salted branches decorrelate from the unperturbed future.
        assert_ne!(serial[0], serial[1]);
        assert_ne!(serial[1], serial[2]);
    }

    #[test]
    fn fork_budget_override_rearms_the_adversary() {
        struct Nibbler;
        impl Adversary<DriftState> for Nibbler {
            fn name(&self) -> &'static str {
                "nibbler"
            }
            fn act(
                &mut self,
                _c: &crate::RoundContext,
                agents: &[DriftState],
                _r: &mut crate::SimRng,
            ) -> Vec<crate::Alteration<DriftState>> {
                (0..agents.len().min(8))
                    .map(crate::Alteration::Delete)
                    .collect()
            }
        }
        // The prefix config has budget 0; one branch re-arms it to 8.
        // Heterogeneous adversaries per branch go through `Box<dyn …>`.
        type Boxed = Box<dyn Adversary<DriftState> + Send>;
        let branches = vec![
            ForkBranch::new(0, Box::new(NoOpAdversary) as Boxed),
            ForkBranch::new(0, Box::new(Nibbler) as Boxed).budget(8),
        ];
        let deleted = drift_scenario().fork(3, branches, &BatchRunner::new(2), |_, mut engine| {
            let trace = trace_of(&mut engine, 6);
            trace.iter().map(|r| r.deleted).sum::<usize>()
        });
        assert_eq!(deleted[0], 0, "no-op branch must not delete");
        assert!(deleted[1] > 0, "re-armed deleter branch must delete");
    }
}
