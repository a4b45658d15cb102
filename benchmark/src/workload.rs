//! The three workloads and the passes that run them.
//!
//! A workload is a set of jobs, each one engine run for a fixed number of
//! rounds from a seed-derived configuration. One *rep* builds every job's
//! engine (the set-up), runs the jobs on a [`BatchRunner`] (the run loop),
//! and checks every round against the workload's reference trajectory. A
//! *pass* repeats reps until its time budget is spent; each rep replays the
//! same trajectory, so one reference covers them all.

use std::collections::BTreeMap;
use std::time::Duration;

use popstab_adversary::Churn;
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::AgentState;
use popstab_sim::batch::{job_seed, ShardPool};
use popstab_sim::matching::{sample_matching_into, sample_matching_into_par, Matching};
use popstab_sim::rng::{derive_seed, round_key};
use popstab_sim::{
    Adversary, BatchRunner, Engine, MetricsRecorder, NoOpAdversary, OnRound, Protocol, RecordStats,
    RoundReport, RunSpec, SimConfig, Snapshot, Threads,
};

use crate::digest::{digest, Reference};
use crate::trace::{self, now_ns, RoundClock, RoundLog, Span, TimedAdversary, TimedProtocol};

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Initial population of every job (a power of four).
    pub n: usize,
    /// Jobs per rep.
    pub jobs: usize,
    /// Rounds per job per rep.
    pub rounds: u64,
    /// How each job's rounds execute.
    pub threads: Threads,
    /// Record [`RecordStats`] every round.
    pub record: bool,
    /// Checkpoint cycle after every this many rounds, inside the run loop.
    pub chunk: Option<u64>,
    /// Per-round [`Churn`] budget `k`; `None` runs the no-op adversary.
    pub churn: Option<usize>,
    /// [`digest`] of the reference trajectory at [`DEFAULT_SEED`].
    pub pinned_digest: u64,
}

/// Seed of every workload when the CLI gives none.
pub const DEFAULT_SEED: u64 = 2018;

/// The benchmark's workloads (`README.md` gives the reasons in full). Every
/// engine holds 2^20 agents: on a 2-vCPU VM sharing its machine with other
/// tenants, only working sets well past what they churn in the shared cache
/// give steady figures (engines of 2^16 to 2^18 agents spread 0.2–0.45 run
/// to run).
pub const WORKLOADS: [Workload; 3] = [
    // Matching, partner scatter and the columnar step do nearly all the
    // work; the columns stay resident for the whole run.
    Workload {
        name: "large-clean-sharded",
        n: 1 << 20,
        jobs: 1,
        rounds: 64,
        threads: Threads::Sharded(2),
        record: false,
        chunk: None,
        churn: None,
        pinned_digest: 0xba06_369b_5446_c225,
    },
    // The columns are read, not only stepped: a store and an observe every
    // round, a snapshot codec cycle and a reload every 16 rounds.
    Workload {
        name: "recorded-checkpointed",
        n: 1 << 20,
        jobs: 1,
        rounds: 64,
        threads: Threads::Serial,
        record: true,
        chunk: Some(16),
        churn: None,
        pinned_digest: 0xba06_369b_5446_c225,
    },
    // The paper's insert-and-delete adversary: its scan, the store and
    // reload it forces every round, and a 2-worker batch.
    Workload {
        name: "churn-sweep",
        n: 1 << 20,
        jobs: 2,
        rounds: 32,
        threads: Threads::Serial,
        record: false,
        chunk: None,
        churn: Some(8),
        pinned_digest: 0xc9dd_082b_188f_3325,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Protocol parameters at the workload's population.
    pub fn params(&self) -> Params {
        Params::for_target(self.n as u64).expect("workload sizes are powers of four")
    }

    /// Seed of job `j`: the run seed itself for a one-job workload.
    pub fn job_seed(&self, seed: u64, j: usize) -> u64 {
        if self.jobs == 1 {
            seed
        } else {
            job_seed(seed, j as u64)
        }
    }

    /// Engine configuration of job `j`.
    pub fn config(&self, seed: u64, j: usize) -> SimConfig {
        SimConfig::builder()
            .seed(self.job_seed(seed, j))
            .target(self.n as u64)
            .adversary_budget(self.churn.unwrap_or(0))
            .build()
            .expect("workload configurations are valid")
    }

    /// The other thread configuration: the one whose cost the traced run
    /// compares against the workload's own.
    pub fn other_threads(&self) -> Threads {
        match self.threads {
            Threads::Serial => Threads::Sharded(2),
            Threads::Sharded(_) => Threads::Serial,
        }
    }

    /// [`BatchRunner`] workers for jobs whose rounds run under `threads`:
    /// as many jobs at once as keep every busy thread within
    /// [`MAX_THREADS`], so sharded jobs of a many-job workload run one
    /// after another.
    pub fn workers(&self, threads: Threads) -> usize {
        (MAX_THREADS / shards(threads)).clamp(1, self.jobs)
    }
}

/// Busy threads the benchmark may use at once: the `nproc` of the 2-vCPU
/// VM it was tuned on.
pub const MAX_THREADS: usize = 2;

/// Threads one job keeps busy under `threads` (a `ShardPool` of `n` shards
/// runs shard 0 on the calling thread).
pub fn shards(threads: Threads) -> usize {
    match threads {
        Threads::Serial => 1,
        Threads::Sharded(n) => n.max(1),
    }
}

/// Something to run once per protocol/adversary pairing. The pairing is a
/// type-level choice (bare or timed, no-op or churn), so it is dispatched
/// by [`with_arms`] rather than boxed: every pass runs the same monomorphic
/// code a user of the library would.
pub trait ArmFn {
    /// What the call returns.
    type Out;
    /// Runs with these protocol and adversary prototypes.
    fn call<P, A>(self, protocol: P, adversary: A) -> Self::Out
    where
        P: Protocol<State = AgentState> + Clone + Send + Sync,
        P::Message: Send,
        A: Adversary<AgentState> + Clone + Send + Sync;
}

/// Calls `f` with the workload's protocol and adversary, wrapped in the
/// timing wrappers when `traced`.
pub fn with_arms<F: ArmFn>(w: &Workload, traced: bool, f: F) -> F::Out {
    let params = w.params();
    let protocol = PopulationStability::new(params.clone());
    match (w.churn, traced) {
        (None, false) => f.call(protocol, NoOpAdversary),
        (None, true) => f.call(TimedProtocol(protocol), TimedAdversary(NoOpAdversary)),
        (Some(k), false) => f.call(protocol, Churn::new(params, k)),
        (Some(k), true) => f.call(
            TimedProtocol(protocol),
            TimedAdversary(Churn::new(params, k)),
        ),
    }
}

/// Computes the reference trajectory: the scalar step loop, serial rounds,
/// uninterrupted, jobs in order.
pub struct ReferenceRun<'a> {
    /// Workload.
    pub w: &'a Workload,
    /// Run seed.
    pub seed: u64,
}

impl ArmFn for ReferenceRun<'_> {
    type Out = Reference;

    fn call<P, A>(self, protocol: P, adversary: A) -> Reference
    where
        P: Protocol<State = AgentState> + Clone + Send + Sync,
        P::Message: Send,
        A: Adversary<AgentState> + Clone + Send + Sync,
    {
        let w = self.w;
        let jobs: Vec<Vec<RoundReport>> = (0..w.jobs)
            .map(|j| {
                let mut engine = Engine::with_adversary(
                    protocol.clone(),
                    adversary.clone(),
                    w.config(self.seed, j),
                    w.n,
                );
                engine.set_columnar(false);
                let mut reports = Vec::new();
                engine.run(
                    RunSpec::rounds(w.rounds),
                    &mut OnRound(|r: &RoundReport| reports.push(*r)),
                );
                reports
            })
            .collect();
        Reference::from_reports(&jobs)
    }
}

/// Timings of one job of one rep.
#[derive(Debug, Clone, Copy)]
pub struct JobTime {
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

/// What one job did.
struct JobOut<P: Protocol, A: Adversary<P::State>> {
    engine: Engine<P, A>,
    log: RoundLog,
    checkpoint_ns: Vec<u64>,
    time: JobTime,
    mem_bytes: usize,
    spans: Vec<Span>,
    recorded: usize,
}

/// One measured rep.
#[derive(Debug, Default)]
pub struct Rep {
    /// Engine construction, ns.
    pub setup_ns: u64,
    /// Run loop (the batch), ns.
    pub loop_ns: u64,
    /// When the batch started, ns since the trace origin.
    pub batch_start: u64,
    /// [`BatchRunner`] workers the jobs ran on.
    pub workers: usize,
    /// Σ `population_before` over every executed round.
    pub agent_rounds: u64,
    /// Per-round host latency, every job pooled.
    pub round_ns: Vec<u64>,
    /// Checkpoint cycle durations.
    pub checkpoint_ns: Vec<u64>,
    /// Rounds attempted (jobs × planned rounds).
    pub attempted: u64,
    /// Rounds that differ from the reference.
    pub failed: u64,
    /// Digest of this rep's trajectory.
    pub digest: u64,
    /// Largest `approx_mem_bytes` of any job, per agent of the workload.
    pub mem_bytes_per_agent: f64,
    /// Per-job timings.
    pub jobs: Vec<JobTime>,
    /// Per-job spans (traced reps only).
    pub spans: Vec<Vec<Span>>,
    /// Per-job reports.
    pub reports: Vec<Vec<RoundReport>>,
    /// Whether `RecordStats` kept one sample per round.
    pub recorded_ok: bool,
}

impl Rep {
    /// Agent-rounds per second of the run loop.
    pub fn agent_rounds_per_s(&self) -> f64 {
        self.agent_rounds as f64 / (self.loop_ns as f64 * 1e-9)
    }
}

/// A pass: reps of one pairing under one thread configuration until a time
/// budget is spent.
pub struct Pass<'a> {
    /// Workload.
    pub w: &'a Workload,
    /// Run seed.
    pub seed: u64,
    /// Thread configuration of every job.
    pub threads: Threads,
    /// Time budget (set-up and run loop of all reps).
    pub budget: Duration,
    /// Fewest reps, whatever the budget.
    pub min_reps: usize,
    /// Fewest pooled round samples, whatever the budget.
    pub min_rounds: usize,
    /// Record spans.
    pub traced: bool,
    /// The trajectory every rep is checked against.
    pub reference: &'a Reference,
}

impl ArmFn for Pass<'_> {
    type Out = Vec<Rep>;

    fn call<P, A>(self, protocol: P, adversary: A) -> Vec<Rep>
    where
        P: Protocol<State = AgentState> + Clone + Send + Sync,
        P::Message: Send,
        A: Adversary<AgentState> + Clone + Send + Sync,
    {
        let start = now_ns();
        let mut reps: Vec<Rep> = Vec::new();
        loop {
            let pooled: usize = reps.iter().map(|r| r.round_ns.len()).sum();
            let spent = Duration::from_nanos(now_ns() - start);
            if reps.len() >= self.min_reps && pooled >= self.min_rounds && spent >= self.budget {
                return reps;
            }
            reps.push(self.rep(&protocol, &adversary));
        }
    }
}

impl Pass<'_> {
    fn rep<P, A>(&self, protocol: &P, adversary: &A) -> Rep
    where
        P: Protocol<State = AgentState> + Clone + Send + Sync,
        P::Message: Send,
        A: Adversary<AgentState> + Clone + Send + Sync,
    {
        let w = self.w;
        // The timed set-up is the rep's first build, first touches of the
        // pages included; every rep after a pass's first starts from the
        // allocator state the previous rep's frees left.
        let t0 = now_ns();
        let engines: Vec<Engine<P, A>> = (0..w.jobs)
            .map(|j| {
                Engine::with_adversary(
                    protocol.clone(),
                    adversary.clone(),
                    w.config(self.seed, j),
                    w.n,
                )
            })
            .collect();
        let t1 = now_ns();
        let workers = w.workers(self.threads);
        let outs = BatchRunner::new(workers).run(engines, |_, engine| {
            run_job(w, engine, protocol, adversary, self.threads, self.traced)
        });
        let t2 = now_ns();

        let mut rep = Rep {
            setup_ns: t1 - t0,
            batch_start: t1,
            loop_ns: t2 - t1,
            workers,
            recorded_ok: true,
            ..Rep::default()
        };
        // Workloads without a checkpoint cycle in their loop still report
        // its cost: one cycle per job, after the loop and outside its time.
        for (j, out) in outs.into_iter().enumerate() {
            let JobOut {
                engine,
                log,
                mut checkpoint_ns,
                time,
                mem_bytes,
                mut spans,
                recorded,
            } = out;
            if w.chunk.is_none() {
                if self.traced {
                    trace::install(spans);
                }
                let (_, ns) = checkpoint_cycle(&engine, protocol, adversary);
                spans = trace::take();
                checkpoint_ns.push(ns);
            }
            rep.failed += self.reference.failed_rounds(j, &log.reports, w.rounds);
            rep.attempted += w.rounds;
            rep.agent_rounds += log
                .reports
                .iter()
                .map(|r| r.population_before as u64)
                .sum::<u64>();
            rep.round_ns.extend_from_slice(&log.round_ns);
            rep.checkpoint_ns.append(&mut checkpoint_ns);
            rep.mem_bytes_per_agent = rep.mem_bytes_per_agent.max(mem_bytes as f64 / w.n as f64);
            rep.recorded_ok &= !w.record || recorded == log.reports.len();
            rep.jobs.push(time);
            rep.spans.push(spans);
            rep.reports.push(log.reports);
        }
        rep.digest = digest(rep.reports.iter().map(Vec::as_slice));
        rep
    }
}

/// Runs one job: `w.rounds` rounds in chunks, a checkpoint cycle after
/// each chunk when the workload has one.
fn run_job<P, A>(
    w: &Workload,
    mut engine: Engine<P, A>,
    protocol: &P,
    adversary: &A,
    threads: Threads,
    traced: bool,
) -> JobOut<P, A>
where
    P: Protocol<State = AgentState> + Clone + Send + Sync,
    P::Message: Send,
    A: Adversary<AgentState> + Clone,
{
    if traced {
        trace::install(Vec::new());
    }
    let start = now_ns();
    let job_span = trace::begin_at("batch.job", start);
    let mut log = RoundLog::default();
    let mut rec = MetricsRecorder::new();
    let mut checkpoint_ns = Vec::new();
    let mut mem_bytes = 0;
    let chunk = w.chunk.unwrap_or(w.rounds);
    let mut done = 0;
    while done < w.rounds {
        let spec = RunSpec::rounds(chunk.min(w.rounds - done)).threads(threads);
        log.run_started();
        let outcome = if w.record {
            let inner = RecordStats::new(&mut rec);
            engine.run(
                spec,
                &mut RoundClock {
                    log: &mut log,
                    inner,
                },
            )
        } else {
            engine.run(
                spec,
                &mut RoundClock {
                    log: &mut log,
                    inner: (),
                },
            )
        };
        log.run_finished();
        mem_bytes = mem_bytes.max(engine.approx_mem_bytes());
        done += outcome.executed;
        if outcome.halted.is_some() || outcome.executed == 0 {
            break;
        }
        if w.chunk.is_some() {
            let (restored, ns) = checkpoint_cycle(&engine, protocol, adversary);
            checkpoint_ns.push(ns);
            engine = restored;
        }
    }
    let end = now_ns();
    trace::end_at(job_span, end, 0, None);
    JobOut {
        engine,
        log,
        checkpoint_ns,
        time: JobTime { start, end },
        mem_bytes,
        spans: trace::take(),
        recorded: rec.len(),
    }
}

/// One in-memory checkpoint cycle: snapshot → encode → decode → restore.
/// Returns the restored engine and the cycle's ns; when tracing, the
/// `checkpoint` span's value is the snapshot's size in bytes.
fn checkpoint_cycle<P, A>(engine: &Engine<P, A>, protocol: &P, adversary: &A) -> (Engine<P, A>, u64)
where
    P: Protocol<State = AgentState> + Clone,
    A: Adversary<AgentState> + Clone,
{
    let start = now_ns();
    let id = trace::begin_at("checkpoint", start);
    let snap = trace::span(
        "snapshot.capture",
        || engine.snapshot(),
        |s| s.population() as u64,
    );
    let bytes = trace::span("snapshot.encode", || snap.to_bytes(), |b| b.len() as u64);
    drop(snap);
    let decoded = trace::span(
        "snapshot.decode",
        || Snapshot::from_bytes(&bytes).expect("a snapshot this process encoded decodes"),
        |s| s.population() as u64,
    );
    let len = bytes.len() as u64;
    drop(bytes);
    let restored = trace::span(
        "snapshot.restore",
        || {
            Engine::restore(protocol.clone(), adversary.clone(), &decoded)
                .expect("a decoded snapshot restores into its own protocol")
        },
        |e| e.population() as u64,
    );
    drop(decoded);
    let end = now_ns();
    trace::end_at(id, end, len, None);
    assert_eq!(
        (restored.round(), restored.population()),
        (engine.round(), engine.population()),
        "restore must resume where the snapshot was taken"
    );
    (restored, end - start)
}

/// The matching of every round of a trajectory, recomputed outside the
/// engine from the same public sampler and round key.
#[derive(Debug, Default)]
pub struct Replay {
    /// Rounds replayed.
    pub rounds: u64,
    /// Σ serial `sample_matching_into` ns.
    pub sample_ns: u64,
    /// Σ `sample_matching_into_par` ns on a 2-shard pool.
    pub sample_par2_ns: u64,
    /// Σ `partner_table_into` ns.
    pub partner_table_ns: u64,
    /// Σ matched agents.
    pub matched: u64,
    /// Σ agents alive when the matching was sampled.
    pub survivors: u64,
    /// Rounds whose replayed matching size differs from `RoundReport::matched`.
    pub mismatches: u64,
}

/// Replays the matching of every round in `jobs` (job `j`'s reports, seeds
/// from `seed`), adding to `out`.
pub fn replay_matching(w: &Workload, seed: u64, jobs: &[Vec<RoundReport>], out: &mut Replay) {
    let mut matching = Matching::default();
    let mut shuffle = Vec::new();
    let mut partners = Vec::new();
    ShardPool::with(2, |pool| {
        for (j, reports) in jobs.iter().enumerate() {
            let cfg = w.config(seed, j);
            let match_key = derive_seed(cfg.seed, "matching");
            for r in reports {
                let survivors = r.population_before + r.inserted - r.deleted;
                let key = round_key(match_key, r.round);
                let t0 = now_ns();
                sample_matching_into(&mut matching, &mut shuffle, survivors, cfg.matching, key);
                let t1 = now_ns();
                let serial = matching.matched_agents();
                matching.partner_table_into(&mut partners, survivors);
                let t2 = now_ns();
                sample_matching_into_par(
                    &mut matching,
                    &mut shuffle,
                    survivors,
                    cfg.matching,
                    key,
                    pool,
                );
                let t3 = now_ns();
                out.rounds += 1;
                out.sample_ns += t1 - t0;
                out.partner_table_ns += t2 - t1;
                out.sample_par2_ns += t3 - t2;
                out.matched += r.matched as u64;
                out.survivors += survivors as u64;
                if serial != r.matched || matching.matched_agents() != r.matched {
                    out.mismatches += 1;
                }
            }
        }
    });
}

/// Span totals of a pass, by name.
#[derive(Debug, Default)]
pub struct Layers {
    /// `round` spans.
    pub rounds: u64,
    /// Σ `round` span ns.
    pub round_ns: u64,
    /// Σ ns of spans whose parent is a `round` span.
    pub round_children_ns: u64,
    /// Per span name: (count, Σ ns, Σ value).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// `batch.job` durations.
    pub job_ns: Vec<f64>,
    /// Job start minus batch start.
    pub job_wait_ns: Vec<f64>,
    /// Σ job busy ns and Σ worker-available ns over reps.
    pub busy: (u64, u64),
}

impl Layers {
    /// Folds the spans and job timings of `reps`.
    pub fn of(reps: &[Rep]) -> Layers {
        let mut l = Layers::default();
        for rep in reps {
            for spans in &rep.spans {
                for s in spans {
                    let e = l.by_name.entry(s.name).or_default();
                    e.0 += 1;
                    e.1 += s.ns();
                    e.2 += s.value;
                    if s.name == "round" {
                        l.rounds += 1;
                        l.round_ns += s.ns();
                    } else if spans
                        .get(s.parent as usize)
                        .is_some_and(|p| p.name == "round")
                    {
                        l.round_children_ns += s.ns();
                    }
                }
            }
            let busy: u64 = rep.jobs.iter().map(|j| j.end - j.start).sum();
            l.busy.0 += busy;
            l.busy.1 += rep.workers as u64 * rep.loop_ns;
            for j in &rep.jobs {
                l.job_ns.push((j.end - j.start) as f64);
                l.job_wait_ns
                    .push(j.start.saturating_sub(rep.batch_start) as f64);
            }
        }
        l
    }

    /// `(count, Σ ns, Σ value)` of spans named `name`.
    pub fn get(&self, name: &str) -> (u64, u64, u64) {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Σ ns of `name` spans per round.
    pub fn per_round_ns(&self, name: &str) -> f64 {
        self.get(name).1 as f64 / self.rounds.max(1) as f64
    }

    /// Mean `round` span ns.
    pub fn round_ns(&self) -> f64 {
        self.round_ns as f64 / self.rounds.max(1) as f64
    }
}
