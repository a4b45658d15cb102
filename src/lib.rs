//! # population-stability
//!
//! Facade crate for the reproduction of *Population Stability: Regulating
//! Size in the Presence of an Adversary* (Goldwasser, Ostrovsky, Scafuro,
//! Sealfon — PODC 2018).
//!
//! This crate re-exports the whole workspace so downstream users can depend
//! on a single crate:
//!
//! * [`sim`] — the synchronous population-model substrate (rounds, random
//!   matchings, split/die semantics, adversary interface, the unified
//!   `RunSpec`/`Observer` run driver, metrics),
//! * [`core`] — the paper's protocol (Algorithms 1–7): coloring epochs,
//!   three-bit messages, `polylog(N)` states,
//! * [`adversary`] — the attack library (leader snipers, color flooders,
//!   round desynchronizers, churn, trauma events, …),
//! * [`baselines`] — the strawman protocols the paper discusses (Attempt 1,
//!   Attempt 2, the empty protocol, the high-memory unique-ID protocol),
//! * [`analysis`] — statistics, invariant checkers for
//!   the paper's lemmas, the finite-size equilibrium models and the
//!   variance-based population estimator,
//! * [`extensions`] — the §1.2 extended model in which agents can remove
//!   maliciously-programmed partners they detect.
//!
//! # Quickstart
//!
//! Everything runs through one driver: build an [`Engine`](prelude::Engine),
//! describe the run with a [`RunSpec`](prelude::RunSpec) (stop condition +
//! thread configuration) and watch it with an
//! [`Observer`](prelude::Observer) (`()` observes nothing; a
//! [`RecordStats`](prelude::RecordStats) adapter collects a
//! [`MetricsRecorder`](prelude::MetricsRecorder) trace).
//!
//! ```
//! use population_stability::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's protocol with target N = 1024 agents.
//! let params = Params::for_target(1024)?;
//! let protocol = PopulationStability::new(params.clone());
//! let cfg = SimConfig::builder().seed(7).target(1024).build()?;
//! let mut engine = Engine::with_population(protocol, cfg, 1024);
//!
//! // Run three epochs on the recording-free fast path and check the
//! // population stayed near the finite-size equilibrium m* = N − 8√N.
//! let epoch = u64::from(params.epoch_len());
//! let outcome = engine.run(RunSpec::rounds(3 * epoch), &mut ());
//! let m_star = equilibrium_population(&params);
//! assert!((engine.population() as f64 - m_star).abs() < 0.5 * m_star);
//!
//! // Same API, now with a metrics trace (recorded every round) and the
//! // step phase of each round sharded over 2 workers — the trajectory is
//! // bit-identical by the determinism contract.
//! let (min, max) = outcome.population_range();
//! let mut rec = MetricsRecorder::new();
//! engine.run(
//!     RunSpec::rounds(epoch).sharded(2),
//!     &mut RecordStats::new(&mut rec),
//! );
//! assert_eq!(rec.len() as u64, epoch);
//! assert!(min <= max);
//! # Ok(())
//! # }
//! ```
//!
//! # Migrating from the pre-driver API
//!
//! PR 5 collapsed the engine's eight `run_*` entry points and two recording
//! side channels into `Engine::run(RunSpec, &mut impl Observer)`:
//!
//! | old entry point | replacement |
//! |---|---|
//! | `engine.run_round()` | `engine.run(RunSpec::rounds(1), &mut obs).last` |
//! | `engine.run_rounds(n)` | `engine.run(RunSpec::rounds(n), &mut obs).executed` |
//! | `engine.run_until(max, pred)` | `engine.run(RunSpec::until(max, pred), &mut obs)` |
//! | `engine.run_range(n)` | `engine.run(RunSpec::rounds(n), &mut ()).population_range()` |
//! | `engine.run_epochs(e, len)` | `engine.run(RunSpec::rounds(e * len), &mut Stride::new(len, RecordStats::new(&mut rec)))` |
//! | `engine.par_round(w)` | `engine.run(RunSpec::rounds(1).sharded(w), &mut obs).last` |
//! | `engine.run_rounds_par(n, w)` | `engine.run(RunSpec::rounds(n).sharded(w), &mut obs)` |
//! | `engine.run_until_par(max, w, pred)` | `engine.run(RunSpec::until(max, pred).sharded(w), &mut obs)` |
//! | `engine.set_recording(false)` | pass `&mut ()` as the observer |
//! | `engine.metrics()` / `engine.trajectory()` | own a `MetricsRecorder`, fill it via `RecordStats::new(&mut rec)`; `rec.epoch_end_populations(len)` / `rec.max_epoch_deviation(len)` |
//! | `SimConfig::metrics_every` / `metrics_phase` | `RecordStats::stride(&mut rec, every, phase)` |
//!
//! `Engine::run` carries the `P: Sync, P::State: Send + Sync, P::Message:
//! Send` bounds that sharding a round needs (every protocol in this
//! workspace satisfies them). `Threads::Serial` runs the same round body on
//! a one-shard pool, so there is no separate serial path.
//!
//! The named `(protocol, adversary, config)` combos the experiment harness
//! runs are declared as [`sim::Scenario`] values; `experiments --list`
//! prints the registry and `experiments scenario <name>` runs one.
//!
//! # Checkpoint, resume, fork
//!
//! [`Engine::snapshot`](prelude::Engine) serializes an engine mid-run into
//! a versioned, dependency-free [`Snapshot`](prelude::Snapshot) (config,
//! round counter, halt state, every agent's protocol state, and the
//! adversary RNG's exact stream position — the protocol and adversary
//! *instances* are rebuilt by the caller). Because every other per-round
//! random quantity is counter-addressable, `Engine::restore` + run to `2R`
//! is bit-identical to the uninterrupted run, serial or sharded.
//! [`Scenario::fork`](prelude::Scenario) runs the shared prefix once and
//! fans N [`ForkBranch`](prelude::ForkBranch)es (seed salt + adversary +
//! optional budget override) over a [`BatchRunner`](prelude::BatchRunner)
//! for counterfactual "what if the attack had differed from round R?"
//! ensembles; salt `0` is the identity branch. On the CLI:
//! `experiments snapshot <name> --at <round> -o <file>`,
//! `experiments resume <file> --rounds <n> [--trace]`, and the
//! `fork-recovery-1024` registry scenario.
//!
//! # Memory layout & scaling
//!
//! The engine stores agents as a plain `Vec<AgentState>` and, for a
//! protocol that offers one, mirrors them into a struct-of-arrays column
//! store tuned for million-agent populations:
//!
//! * **On wherever offered, never a semantic switch.** Every engine
//!   running a protocol that offers a columnar twin
//!   ([`Protocol::columnar`](prelude::Protocol)) steps on it: for the
//!   paper's protocol that is [`core::columns::StabilityColumns`] — 1-bit
//!   and 1-byte columns (alive/color/phase flags, packed wire bytes)
//!   evaluated 64 agents per machine word, each agent drawing its coins
//!   from its own [`CounterRng`](prelude::SimRng) slot stream. The
//!   columns stay *resident* across rounds, recorded ones included
//!   ([`RecordStats`](prelude::RecordStats) reads the columns' stats
//!   kernel), and transpose back to the vector only when something
//!   actually reads it (an observer calling `EngineView::agents`, an
//!   adversary that reads agent states, a checkpoint,
//!   [`Engine::snapshot`](prelude::Engine),
//!   [`Engine::agents`](prelude::Engine)). Adversarial alterations are
//!   applied in the columns, and adversaries that decide from the round's
//!   population size and majority round alone (churn, the inserters and
//!   deleters, trauma) never transpose them.
//!   [`Engine::set_columnar(false)`](prelude::Engine) forces the scalar
//!   loop, which is how the equivalence tests pin the two paths.
//! * **Bit-for-bit identical, by construction and by gate.** Stepping
//!   agents 64 to a word can never move a draw: every agent draw is
//!   already addressed by `(seed, round, slot)`, and the word kernels draw
//!   a lane's coin with the same `toss_biased_coin` call the scalar step
//!   makes, on the same stream. No stream version changes —
//!   the agent stream, matching stream and snapshot format are
//!   untouched, snapshots restore across the two paths, and the golden
//!   fixtures pass unchanged against the columnar path. `tests/columnar_equivalence.rs`
//!   drives random `(seed, rounds, workers)` through both paths (clean and
//!   adversarial) comparing traces, full agent vectors and snapshot bytes,
//!   plus a fixed N = 2¹⁶ case on serial and sharded rounds; a CI leg
//!   checks that N = 2²⁰ runs agree across round-thread counts and resume
//!   bit-for-bit from a mid-run snapshot.
//! * **Byte budget.** At large N the resident footprint is the agent
//!   vector plus a few dozen bits of column state per agent — ~50 B/agent
//!   total at N = 2²⁰/2²² ([`Engine::approx_mem_bytes`](prelude::Engine)),
//!   recorded per workload as `mem_bytes_per_agent` in `BENCH_engine.json`
//!   (`experiments bench`, scales overridable via `--n`). The committed
//!   baseline tracks ~2× fast-path rounds/sec over the scalar loop at
//!   N = 65536 on one core.
//!
//! # Failure semantics & recovery
//!
//! The fault-tolerance layer keeps crashes, panics and corrupted files
//! from either losing work or — worse — silently changing results:
//!
//! * **Panics surface with their own message.** A panicking job stops its
//!   batch: [`BatchRunner::run`](prelude::BatchRunner) lets the jobs
//!   already claimed finish, then re-raises the lowest-indexed failing
//!   job's own panic — the payload a one-worker run raises, whatever the
//!   worker count. Inside a round, a panicking worker shard cannot wedge
//!   the `ShardPool` barrier — `dispatch` re-raises the panic only after
//!   every shard has finished, leaving the pool usable.
//! * **Snapshots are tamper-evident and torn-write-proof.** Since format
//!   v2 a checksum over the entire payload is appended and verified at
//!   decode before any field is parsed; format v3's four-lane word
//!   checksum (`snapshot::seal`) runs at memory speed, and
//!   `Snapshot::to_bytes` and `Snapshot::from_bytes` seal while they
//!   copy: each ~16 KiB chunk is folded into the seal straight after its
//!   copy, so the image is read once. `from_bytes` reports no header
//!   error before the seal has been checked, so any corruption past the
//!   format version is a checksum mismatch.
//!   `Snapshot::write_to_file` writes through a temp file + fsync + atomic
//!   rename, so a crash mid-write leaves the previous file intact. Every
//!   decode error carries the byte offset and section name of the damage
//!   ([`SnapshotError`](prelude::SnapshotError)), and a malformed file of
//!   any shape — truncated anywhere, any single bit flipped, absurd length
//!   prefixes — is rejected with `Err`, never a panic or an OOM.
//! * **Long runs auto-checkpoint and crash-recover.** The
//!   [`Checkpoint`](prelude::Checkpoint) observer snapshots a running
//!   engine every `k` rounds into a rotation of files, and
//!   [`Checkpoint::scan`](prelude::Checkpoint) finds the newest rotation
//!   slot that still decodes cleanly — corrupt slots are reported and
//!   skipped ([`RecoveryScan`](prelude::RecoveryScan)). On the CLI,
//!   `experiments run-recoverable <name> --rounds N` resumes from that
//!   checkpoint automatically; a run that crashes, recovers and finishes
//!   is bit-identical to one that never crashed (the CI fault-injection
//!   leg diffs the traces every push).
//! * **Every property above is pinned by reproducible tests**
//!   (`tests/fault_tolerance.rs`): seeded crash points and cadences, and
//!   every truncation and single-bit flip of a snapshot, rather than flaky
//!   chaos.
//!
//! # Determinism contract & how it's enforced
//!
//! Every trajectory is a pure function of `(seed, RunSpec)`: the agent
//! stream is keyed by `(seed, round, slot)` and the matching stream by
//! `(match_key, round)`, so serial and sharded runs are bit-identical and
//! any round can be replayed in isolation. Golden fixtures under
//! `tests/golden/` pin both streams byte-for-byte; bumping
//! `AGENT_STREAM_VERSION` or `MATCHING_STREAM_VERSION` is a coordinated
//! event (constant + fixtures + README table + `BENCH_engine.json`
//! together). Snapshots extend the contract across process boundaries:
//! every snapshot embeds the stream versions it was captured under (plus
//! `SNAPSHOT_FORMAT_VERSION` for the byte layout itself), and restore
//! refuses a file from a different stream scheme.
//!
//! The contract is enforced *statically* by `popstab-lint`
//! (`cargo run -p popstab-lint`, a CI gate). The lint lexes every
//! workspace source file into code/comment channels, parses the code
//! channel into items (`fn`s, `use`/`type` aliases), links an approximate
//! workspace-wide call graph filtered by the manifests' dependency
//! closure, and checks six rules over it. The table below is generated
//! from the rule registry (`cargo run -p popstab-lint -- --rules-md`) and
//! a docs-drift test asserts this copy matches it:
//!
//! | rule | guards against |
//! |------|----------------|
//! | `taint-ambient-nondeterminism` | clock / env / OS-RNG / hash-order reads reachable from result-affecting fns, traced through the call graph and `use`/`type` aliases |
//! | `forbid-unordered-iteration` | `HashMap`/`HashSet` (per-process `RandomState` iteration order) anywhere in a result-affecting crate |
//! | `float-order-determinism` | order-sensitive `f64` reductions (`sum`, `fold`) outside the order-fixed `ordered_sum` helper in result/statistics crates |
//! | `unsafe-needs-safety-comment` | `unsafe` blocks, fns, or impls without an adjacent `// SAFETY:` soundness argument |
//! | `stream-version-coherence` | partial stream bumps — version constants, golden-fixture tables, and `BENCH_engine.json` disagreeing |
//! | `workspace-manifest-invariants` | workspace crates missing the per-package dev/test `opt-level` overrides that keep `cargo test` fast |
//!
//! There is no escape comment: a finding is fixed in the code, or — if the
//! rule is wrong — in the rule. CI consumes the machine-readable report
//! (`popstab-lint --format json`, schema asserted like
//! `BENCH_engine.json`).

pub use popstab_adversary as adversary;
pub use popstab_analysis as analysis;
pub use popstab_baselines as baselines;
pub use popstab_core as core;
pub use popstab_extensions as extensions;
pub use popstab_sim as sim;

/// One-stop imports for examples and downstream experiments.
pub mod prelude {
    pub use popstab_analysis::equilibrium::equilibrium_population;
    pub use popstab_analysis::estimator::VarianceEstimator;
    pub use popstab_analysis::invariants::InvariantReport;
    pub use popstab_analysis::stats::Summary;
    pub use popstab_core::params::Params;
    pub use popstab_core::protocol::PopulationStability;
    pub use popstab_core::state::{AgentState, Color};
    pub use popstab_sim::{
        Action, Adversary, Alteration, BatchRunner, Checkpoint, Engine, ForkBranch, HaltReason,
        MatchingModel, MetricsRecorder, Observable, Observation, Observer, OnRound, Protocol,
        RecordStats, RecoveryScan, RoundContext, RunOutcome, RunSpec, Scenario, SimConfig, SimRng,
        Snapshot, SnapshotError, SnapshotState, Stride, Tee, Threads, SNAPSHOT_FORMAT_VERSION,
    };
}
