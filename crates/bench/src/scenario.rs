//! The named scenario registry.
//!
//! Each entry names a `(protocol, adversary, config)` combo, runnable by
//! name:
//!
//! ```sh
//! experiments --list              # print the registry
//! experiments scenario clean-1024 # run one entry
//! ```
//!
//! An entry of the paper's protocol is stated once, in its builder: a
//! [`Builder`] that lowers seed, budget, matching and adversary onto a
//! [`SnapshotScenario`] through the [`JobSpec`] layer. `experiments
//! scenario` drives the built scenario for the entry's horizon and
//! prints one report line from its [`RunOutcome`](popstab_sim::RunOutcome);
//! `experiments snapshot`, `resume` and `run-recoverable` build from the
//! same function ([`find_builder`]), so a resumed run replays exactly the
//! scenario the entry runs. Only the baseline and extension entries (own
//! state columns, no builder) and the fork ensemble have custom runners.
//!
//! Scenario output is deterministic (no wall-clock lines), so the CI
//! determinism diff can run a registry entry at different `--round-threads`
//! values and require byte-identical reports.

use popstab_adversary::{DesyncInserter, RandomDeleter, Throttle, Trauma, TraumaKind};
use popstab_baselines::attempt1::SignalFlooder;
use popstab_baselines::Attempt1;
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::AgentState;
use popstab_extensions::{malicious_count, MaliciousInserter, WithMalice};
use popstab_sim::{
    Adversary, ForkBranch, HaltReason, MatchingModel, NoOpAdversary, RunSpec, Scenario, SimConfig,
};

use crate::{protocol_scenario, Exec, JobSpec};

/// The adversary shape of a built entry: any strategy, boxed and
/// thread-portable.
pub type BoxedAdversary = Box<dyn Adversary<AgentState> + Send>;

/// The scenario shape the snapshot/resume/fork tooling works over: the
/// paper's protocol under any [`BoxedAdversary`].
pub type SnapshotScenario = Scenario<PopulationStability, BoxedAdversary>;

/// Builds one entry's `(protocol, adversary, config)`: the entry's only
/// statement of them.
pub type Builder = fn() -> SnapshotScenario;

/// How long `experiments scenario` drives a built entry, as `(quick,
/// full)`: `--quick` picks the first.
#[derive(Debug, Clone, Copy)]
enum Horizon {
    /// Epochs of the entry's protocol.
    Epochs(u64, u64),
    /// Rounds, for scales where an epoch is thousands of rounds.
    Rounds(u64, u64),
}

/// How a registry entry is built and run.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The paper's protocol: the generic runner drives the built scenario
    /// for the horizon and prints the standard report line.
    Built(Builder, Horizon),
    /// An entry with its own runner and report; the builder, if any, is
    /// what the snapshot tooling rebuilds.
    Custom(fn(&Exec), Option<Builder>),
}

/// One registry entry: a named, self-describing scenario.
#[derive(Debug)]
pub struct NamedScenario {
    /// Registry key (`experiments scenario <name>`).
    pub name: &'static str,
    /// Protocol label for `--list`.
    pub protocol: &'static str,
    /// Adversary label for `--list`.
    pub adversary: &'static str,
    /// One-line config summary for `--list`.
    pub summary: &'static str,
    /// How the entry is built and run.
    kind: Kind,
}

impl NamedScenario {
    /// The entry's builder; `None` for the baselines/extensions with their
    /// own state column, which the snapshot tooling does not cover.
    pub fn builder(&self) -> Option<Builder> {
        match self.kind {
            Kind::Built(build, _) => Some(build),
            Kind::Custom(_, build) => build,
        }
    }

    /// Runs the entry and prints its report (`--quick` shortens horizons).
    pub fn run(&self, exec: &Exec) {
        let (build, horizon) = match self.kind {
            Kind::Built(build, horizon) => (build, horizon),
            Kind::Custom(run, _) => return run(exec),
        };
        let scenario = build();
        let epoch = u64::from(scenario.protocol.params().epoch_len());
        let (unit, quick, full) = match horizon {
            Horizon::Epochs(quick, full) => (epoch, quick, full),
            Horizon::Rounds(quick, full) => (1, quick, full),
        };
        let rounds = unit * if exec.quick { quick } else { full };
        let (engine, outcome) =
            scenario.run(RunSpec::rounds(rounds).threads(exec.threads), &mut ());
        let (lo, hi) = outcome.population_range();
        println!(
            "scenario {}: rounds={} population={} band=[{lo}, {hi}] halted={}",
            self.name,
            outcome.executed,
            engine.population(),
            halted(outcome.halted)
        );
    }
}

/// Every named scenario, in listing order.
pub fn registry() -> &'static [NamedScenario] {
    REGISTRY
}

/// Looks a scenario up by name; `Err` holds the usage message.
pub fn find(name: &str) -> Result<&'static NamedScenario, String> {
    REGISTRY
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown scenario `{name}`; see `experiments --list`"))
}

/// The builder of entry `name`, which `experiments snapshot`, `resume` and
/// `run-recoverable` build from; `Err` holds the usage message when there
/// is no such entry or it has no builder.
pub fn find_builder(name: &str) -> Result<Builder, String> {
    find(name)?.builder().ok_or_else(|| {
        format!("scenario `{name}` has no snapshot support (non-PopulationStability state)")
    })
}

/// Prints the registry as the `--list` table.
pub fn print_list() {
    println!("named scenarios (run with `experiments scenario <name>`):");
    for s in REGISTRY {
        println!(
            "  {:<22} {:<20} {:<22} {}",
            s.name, s.protocol, s.adversary, s.summary
        );
    }
}

/// The `halted=` field of a report line: `no`, or the halt reason.
pub fn halted(reason: Option<HaltReason>) -> String {
    reason.map_or_else(|| "no".to_string(), |reason| format!("{reason:?}"))
}

/// The paper's protocol per `params` and `spec` under `adversary`, boxed
/// into the [`SnapshotScenario`] shape.
fn build<A: Adversary<AgentState> + Send + 'static>(
    params: &Params,
    adversary: A,
    spec: JobSpec,
) -> SnapshotScenario {
    protocol_scenario(params, Box::new(adversary) as BoxedAdversary, &spec)
}

fn params(n: u64) -> Params {
    Params::for_target(n).expect("registry targets are powers of four")
}

/// The fork-recovery prefix: a −60% shock at epoch 2, unbounded budget.
fn fork_recovery_1024() -> SnapshotScenario {
    let params = params(1024);
    let epoch = u64::from(params.epoch_len());
    let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.6, 2 * epoch);
    let mut spec = JobSpec::new(20, 0);
    spec.budget = usize::MAX;
    build(&params, adv, spec)
}

/// `fork-recovery-1024`: shared shocked prefix, four divergent futures.
fn run_fork_recovery_1024(exec: &Exec) {
    let params = params(1024);
    let epoch = u64::from(params.epoch_len());
    let fork_at = 3 * epoch;
    let horizon = if exec.quick { 4 * epoch } else { 10 * epoch };
    let labels = ["continue", "continue-salt1", "deleter-2", "second-shock"];
    let shock = Trauma::new(params, TraumaKind::Injury, 0.5, fork_at + epoch);
    let branches = vec![
        ForkBranch::new(0, Box::new(NoOpAdversary) as BoxedAdversary).budget(0),
        ForkBranch::new(1, Box::new(NoOpAdversary) as BoxedAdversary).budget(0),
        ForkBranch::new(2, Box::new(RandomDeleter::new(2)) as BoxedAdversary).budget(2),
        ForkBranch::new(3, Box::new(shock) as BoxedAdversary),
    ];
    let results = fork_recovery_1024().fork(fork_at, branches, &exec.runner, |_, mut engine| {
        let outcome = engine.run(RunSpec::rounds(horizon).threads(exec.threads), &mut ());
        (outcome, engine.population())
    });
    println!(
        "scenario fork-recovery-1024: prefix={fork_at} rounds, {} branches x {horizon} rounds",
        results.len()
    );
    for (i, (outcome, pop)) in results.iter().enumerate() {
        let (lo, hi) = outcome.population_range();
        println!(
            "  branch {i} ({}): rounds={} population={pop} band=[{lo}, {hi}] halted={}",
            labels[i],
            outcome.executed,
            halted(outcome.halted)
        );
    }
}

/// `attempt1-flood-1024`: the baseline until it collapses below `N/2`.
fn run_attempt1_flood_1024(exec: &Exec) {
    let proto = Attempt1::new(1024);
    let epoch = u64::from(proto.epoch_len());
    let rounds = if exec.quick { 40 * epoch } else { 150 * epoch };
    let cfg = SimConfig::builder()
        .seed(18)
        .target(1024)
        .adversary_budget(1)
        .max_population(64 * 1024)
        .build()
        .unwrap();
    let (engine, outcome) = Scenario::new(proto, cfg, 1024)
        .against(SignalFlooder::new(epoch as u32))
        .run(
            RunSpec::until(rounds, |r| r.population_after < 512).threads(exec.threads),
            &mut (),
        );
    println!(
        "scenario attempt1-flood-1024: rounds={} population={} band=[{}, {}] collapsed={}",
        outcome.executed,
        engine.population(),
        outcome.min_population,
        outcome.max_population,
        outcome.stopped_early || engine.population() < 512
    );
}

/// `malice-rho4-1024`: the extended model against replicating insertions.
fn run_malice_rho4_1024(exec: &Exec) {
    let params = params(1024);
    let epoch = u64::from(params.epoch_len());
    let rounds = epoch * if exec.quick { 3 } else { 8 };
    let cfg = SimConfig::builder()
        .seed(19)
        .target(1024)
        .adversary_budget(1)
        .max_population(16 * 1024)
        .build()
        .unwrap();
    let proto = WithMalice::new(PopulationStability::new(params));
    let (engine, outcome) = Scenario::new(proto, cfg, 1024)
        .against(MaliciousInserter::new(1, 4))
        .run(RunSpec::rounds(rounds).threads(exec.threads), &mut ());
    println!(
        "scenario malice-rho4-1024: rounds={} population={} malicious={} contained={}",
        outcome.executed,
        engine.population(),
        malicious_count(engine.agents()),
        outcome.halted.is_none() && malicious_count(engine.agents()) < 100
    );
}

const REGISTRY: &[NamedScenario] = &[
    NamedScenario {
        name: "clean-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, full matching, 20 epochs",
        kind: Kind::Built(
            || build(&params(1024), NoOpAdversary, JobSpec::new(11, 0)),
            Horizon::Epochs(8, 20),
        ),
    },
    NamedScenario {
        name: "clean-4096",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=4096, full matching, 20 epochs",
        kind: Kind::Built(
            || build(&params(4096), NoOpAdversary, JobSpec::new(12, 0)),
            Horizon::Epochs(8, 20),
        ),
    },
    NamedScenario {
        name: "deleter-throttled-1024",
        protocol: "PopulationStability",
        adversary: "RandomDeleter 2/epoch",
        summary: "N=1024, per-epoch metered deletion",
        kind: Kind::Built(
            || {
                let params = params(1024);
                let adv = Throttle::per_epoch(RandomDeleter::new(2), params.epoch_len());
                let mut spec = JobSpec::new(13, 0);
                spec.budget = 2;
                build(&params, adv, spec)
            },
            Horizon::Epochs(10, 25),
        ),
    },
    NamedScenario {
        name: "trauma-injury-4096",
        protocol: "PopulationStability",
        adversary: "Trauma injury -70%",
        summary: "N=4096, one-shot shock at epoch 2, healing horizon",
        kind: Kind::Built(
            || {
                let params = params(4096);
                let epoch = u64::from(params.epoch_len());
                let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.7, 2 * epoch);
                let mut spec = JobSpec::new(14, 0);
                spec.budget = usize::MAX;
                build(&params, adv, spec)
            },
            Horizon::Epochs(20, 60),
        ),
    },
    NamedScenario {
        name: "gamma-quarter-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, ExactFraction(0.25) matching",
        kind: Kind::Built(
            || {
                let mut spec = JobSpec::new(15, 0);
                spec.matching = MatchingModel::ExactFraction(0.25);
                build(&params(1024), NoOpAdversary, spec)
            },
            Horizon::Epochs(10, 25),
        ),
    },
    NamedScenario {
        name: "gamma-random-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, RandomFraction{min 0.5} matching",
        kind: Kind::Built(
            || {
                let mut spec = JobSpec::new(16, 0);
                spec.matching = MatchingModel::RandomFraction { min_gamma: 0.5 };
                build(&params(1024), NoOpAdversary, spec)
            },
            Horizon::Epochs(10, 25),
        ),
    },
    NamedScenario {
        name: "desync-purge-1024",
        protocol: "PopulationStability",
        adversary: "DesyncInserter 4/epoch",
        summary: "N=1024, Algorithm-7 purge under clock-skew insertion",
        kind: Kind::Built(
            || {
                let params = params(1024);
                let adv = Throttle::per_epoch(
                    DesyncInserter::new(params.clone(), 4, params.epoch_len() / 2),
                    params.epoch_len(),
                );
                let mut spec = JobSpec::new(17, 0);
                spec.budget = 4;
                build(&params, adv, spec)
            },
            Horizon::Epochs(8, 16),
        ),
    },
    NamedScenario {
        name: "attempt1-flood-1024",
        protocol: "Attempt1 (baseline)",
        adversary: "SignalFlooder 1/epoch",
        summary: "N=1024, the paper's predicted collapse",
        kind: Kind::Custom(run_attempt1_flood_1024, None),
    },
    NamedScenario {
        name: "malice-rho4-1024",
        protocol: "WithMalice (ext. model)",
        adversary: "MaliciousInserter rho=4",
        summary: "N=1024, contact-kill containment race",
        kind: Kind::Custom(run_malice_rho4_1024, None),
    },
    NamedScenario {
        name: "clean-1048576",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=2^20, full matching, short large-N smoke window",
        kind: Kind::Built(
            || build(&params(1 << 20), NoOpAdversary, JobSpec::new(21, 0)),
            Horizon::Rounds(40, 120),
        ),
    },
    NamedScenario {
        name: "fork-recovery-1024",
        protocol: "PopulationStability",
        adversary: "forked ensemble",
        summary: "N=1024, -60% shock, 4 counterfactual futures from epoch 3",
        kind: Kind::Custom(run_fork_recovery_1024, Some(fork_recovery_1024)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::{BatchRunner, Engine, OnRound, RoundReport, Threads};

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate scenario names");
        assert!(find("clean-1024").is_ok());
        assert!(find("no-such-scenario").is_err());
        assert!(find_builder("no-such-scenario").is_err());
        assert!(find_builder("malice-rho4-1024").is_err());
        assert!(find_builder("fork-recovery-1024").is_ok());
    }

    #[test]
    fn a_registry_scenario_runs_quickly() {
        let exec = Exec {
            quick: true,
            runner: BatchRunner::new(2),
            threads: Threads::Sharded(2),
            bench_ns: None,
            bench_par: 2,
        };
        find("gamma-quarter-1024").unwrap().run(&exec);
    }

    #[test]
    fn snapshot_hooks_cover_exactly_the_population_stability_entries() {
        for s in registry() {
            assert_eq!(
                s.builder().is_some(),
                s.protocol == "PopulationStability",
                "builder coverage for {}",
                s.name
            );
        }
    }

    /// Every built entry but `clean-1048576` (CI's large-N leg resumes that
    /// one), snapshotted right after its adversary's first action.
    #[test]
    fn a_hook_scenario_snapshots_and_resumes_bit_for_bit() {
        // Past trauma-injury-4096's shock at 2 epochs (2·864 rounds).
        const ROUNDS: u64 = 1800;
        let trace = |engine: &mut Engine<PopulationStability, BoxedAdversary>, rounds: u64| {
            let mut t = Vec::new();
            engine.run(
                RunSpec::rounds(rounds),
                &mut OnRound(|r: &RoundReport| t.push(*r)),
            );
            t
        };
        for entry in registry().iter().filter(|s| s.name != "clean-1048576") {
            let Some(build) = entry.builder() else {
                continue;
            };
            let mut straight = build().engine();
            let full = trace(&mut straight, ROUNDS);
            // A no-op adversary never acts; snapshot those entries mid-run.
            let first = full
                .iter()
                .position(|r| r.inserted + r.deleted + r.modified > 0);
            assert_eq!(
                first.is_none(),
                build().adversary.is_noop(),
                "{}",
                entry.name
            );
            let at = first.map_or(ROUNDS / 2, |i| i as u64 + 1);

            let mut prefix = build().engine();
            prefix.run(RunSpec::rounds(at), &mut ());
            let snap = prefix.snapshot();
            // The adversary is rebuilt from the builder: the registry
            // adversaries are round-/rng-keyed, so the rebuilt instance
            // continues exactly.
            let rebuilt = build();
            let mut resumed = Engine::restore(rebuilt.protocol, rebuilt.adversary, &snap).unwrap();
            let tail = trace(&mut resumed, ROUNDS - at);
            assert_eq!(&full[at as usize..], &tail[..], "{}", entry.name);
            assert_eq!(
                resumed.population(),
                straight.population(),
                "{}",
                entry.name
            );
        }
    }

    #[test]
    fn fork_recovery_identity_branch_matches_the_straight_line() {
        let epoch = u64::from(params(1024).epoch_len());
        let (fork_at, tail) = (3 * epoch, 12);

        let mut straight = fork_recovery_1024().engine();
        straight.run(RunSpec::rounds(fork_at + tail), &mut ());

        // Identity branch: salt 0 and the rebuilt prefix adversary (the
        // one-shot shock already fired inside the prefix, so the rebuilt
        // instance never acts — exactly like the uninterrupted run).
        let branches = vec![ForkBranch::new(0, fork_recovery_1024().adversary)];
        let pops =
            fork_recovery_1024().fork(fork_at, branches, &BatchRunner::new(1), |_, mut engine| {
                engine.run(RunSpec::rounds(tail), &mut ());
                engine.population()
            });
        assert_eq!(pops, vec![straight.population()]);
    }
}
