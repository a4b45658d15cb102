//! The named scenario registry.
//!
//! Each entry is a ready-made `(protocol, adversary, config)` combo built
//! on [`popstab_sim::Scenario`] and the [`JobSpec`] layer, runnable by name:
//!
//! ```sh
//! experiments --list              # print the registry
//! experiments scenario clean-1024 # run one entry
//! ```
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
    Adversary, ForkBranch, MatchingModel, NoOpAdversary, OnRound, RoundReport, RunSpec, Scenario,
    SimConfig,
};

use crate::{protocol_scenario, run_clean, run_protocol, Exec, JobSpec, ProtocolRun};

/// The scenario shape the snapshot/resume/fork tooling works over: the
/// paper's protocol under any (boxed, thread-portable) adversary.
pub type SnapshotScenario = Scenario<PopulationStability, Box<dyn Adversary<AgentState> + Send>>;

/// One registry entry: a named, self-describing scenario.
pub struct NamedScenario {
    /// Registry key (`experiments scenario <name>`).
    pub name: &'static str,
    /// Protocol label for `--list`.
    pub protocol: &'static str,
    /// Adversary label for `--list`.
    pub adversary: &'static str,
    /// One-line config summary for `--list`.
    pub summary: &'static str,
    /// Runs the scenario and prints its report (`--quick` shortens
    /// horizons).
    pub run: fn(&Exec),
    /// Rebuilds this entry's `(protocol, adversary, config)` for the
    /// snapshot tooling (`experiments snapshot`/`resume`, [`Scenario::fork`]).
    /// `None` for entries whose protocol the tooling does not cover
    /// (baselines/extensions with their own state column).
    pub snapshot: Option<fn() -> SnapshotScenario>,
}

/// Every named scenario, in listing order.
pub fn registry() -> &'static [NamedScenario] {
    REGISTRY
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static NamedScenario> {
    REGISTRY.iter().find(|s| s.name == name)
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

/// Standard report line for a protocol-run scenario.
fn report<A: Adversary<AgentState>>(name: &str, run: &ProtocolRun<A>) {
    let (lo, hi) = run.population_range().unwrap_or_else(|| {
        let p = run.population();
        (p, p)
    });
    println!(
        "scenario {name}: rounds={} population={} band=[{lo}, {hi}] halted={}",
        run.outcome.executed,
        run.population(),
        match run.outcome.halted {
            None => "no".to_string(),
            Some(reason) => format!("{reason:?}"),
        }
    );
}

fn clean(n: u64, seed: u64, exec: &Exec, name: &str) {
    let params = Params::for_target(n).unwrap();
    let epochs = if exec.quick { 8 } else { 20 };
    let run = run_clean(&params, JobSpec::new(seed, epochs), exec.threads);
    report(name, &run);
}

/// Boxes an adversary into the [`SnapshotScenario`] shape.
fn hook<A: Adversary<AgentState> + Send + 'static>(
    params: &Params,
    adversary: A,
    spec: &JobSpec,
) -> SnapshotScenario {
    protocol_scenario(
        params,
        Box::new(adversary) as Box<dyn Adversary<AgentState> + Send>,
        spec,
    )
}

// Snapshot hooks. Each rebuilds *exactly* the `(protocol, adversary,
// config)` its registry entry's `run` uses — same seed, budget, and
// matching — so `experiments snapshot <name> --at R` followed by
// `experiments resume` replays the same trajectory the entry itself runs.

fn clean_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    hook(&params, NoOpAdversary, &JobSpec::new(11, 0))
}

fn clean_4096_scenario() -> SnapshotScenario {
    let params = Params::for_target(4096).unwrap();
    hook(&params, NoOpAdversary, &JobSpec::new(12, 0))
}

fn deleter_throttled_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    let adv = Throttle::per_epoch(RandomDeleter::new(2), params.epoch_len());
    let mut spec = JobSpec::new(13, 0);
    spec.budget = 2;
    hook(&params, adv, &spec)
}

fn trauma_injury_4096_scenario() -> SnapshotScenario {
    let params = Params::for_target(4096).unwrap();
    let epoch = u64::from(params.epoch_len());
    let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.7, 2 * epoch);
    let mut spec = JobSpec::new(14, 0);
    spec.budget = usize::MAX;
    hook(&params, adv, &spec)
}

fn gamma_quarter_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    let mut spec = JobSpec::new(15, 0);
    spec.gamma = 0.25;
    hook(&params, NoOpAdversary, &spec)
}

fn gamma_random_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    let mut spec = JobSpec::new(16, 0);
    spec.matching = Some(MatchingModel::RandomFraction { min_gamma: 0.5 });
    hook(&params, NoOpAdversary, &spec)
}

fn desync_purge_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    let adv = Throttle::per_epoch(
        DesyncInserter::new(params.clone(), 4, params.epoch_len() / 2),
        params.epoch_len(),
    );
    let mut spec = JobSpec::new(17, 0);
    spec.budget = 4;
    hook(&params, adv, &spec)
}

fn clean_1048576_scenario() -> SnapshotScenario {
    let params = Params::for_target(1 << 20).unwrap();
    hook(&params, NoOpAdversary, &JobSpec::new(21, 0))
}

/// `clean-1048576`: the million-agent smoke at a rounds-based (not
/// epoch-based) horizon — an epoch at this scale is thousands of rounds,
/// so the entry covers a short window that still exercises the matching,
/// step, and apply phases at `N = 2^20`. The report comes from the
/// per-round [`RoundReport`]s alone, so the population stays resident in
/// the column store for the whole run.
fn run_clean_1048576(exec: &Exec) {
    let rounds = if exec.quick { 40 } else { 120 };
    let (mut lo, mut hi) = (usize::MAX, 0);
    let (engine, outcome) = clean_1048576_scenario().run(
        RunSpec::rounds(rounds).threads(exec.threads),
        &mut OnRound(|r: &RoundReport| {
            lo = lo.min(r.population_after);
            hi = hi.max(r.population_after);
        }),
    );
    println!(
        "scenario clean-1048576: rounds={} population={} band=[{lo}, {hi}] halted={}",
        outcome.executed,
        engine.population(),
        match outcome.halted {
            None => "no".to_string(),
            Some(reason) => format!("{reason:?}"),
        }
    );
}

/// The fork-recovery prefix: a −60% shock at epoch 2, unbounded budget.
fn fork_recovery_1024_scenario() -> SnapshotScenario {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.6, 2 * epoch);
    let mut spec = JobSpec::new(20, 0);
    spec.budget = usize::MAX;
    hook(&params, adv, &spec)
}

/// `fork-recovery-1024`: shared shocked prefix, four divergent futures.
fn run_fork_recovery_1024(exec: &Exec) {
    let params = Params::for_target(1024).unwrap();
    let epoch = u64::from(params.epoch_len());
    let fork_at = 3 * epoch;
    let horizon = if exec.quick { 4 * epoch } else { 10 * epoch };
    type Boxed = Box<dyn Adversary<AgentState> + Send>;
    let labels = ["continue", "continue-salt1", "deleter-2", "second-shock"];
    let branches = vec![
        ForkBranch::new(0, Box::new(NoOpAdversary) as Boxed).budget(0),
        ForkBranch::new(1, Box::new(NoOpAdversary) as Boxed).budget(0),
        ForkBranch::new(2, Box::new(RandomDeleter::new(2)) as Boxed).budget(2),
        ForkBranch::new(
            3,
            Box::new(Trauma::new(
                params.clone(),
                TraumaKind::Injury,
                0.5,
                fork_at + epoch,
            )) as Boxed,
        ),
    ];
    let results =
        fork_recovery_1024_scenario().fork(fork_at, branches, &exec.runner, |_, mut engine| {
            let outcome = engine.run(RunSpec::rounds(horizon).threads(exec.threads), &mut ());
            (
                outcome.executed,
                engine.population(),
                outcome.min_population,
                outcome.max_population,
                outcome.halted,
            )
        });
    println!(
        "scenario fork-recovery-1024: prefix={fork_at} rounds, {} branches x {horizon} rounds",
        results.len()
    );
    for (i, (rounds, pop, lo, hi, halted)) in results.iter().enumerate() {
        println!(
            "  branch {i} ({}): rounds={rounds} population={pop} band=[{lo}, {hi}] halted={}",
            labels[i],
            match halted {
                None => "no".to_string(),
                Some(reason) => format!("{reason:?}"),
            }
        );
    }
}

const REGISTRY: &[NamedScenario] = &[
    NamedScenario {
        name: "clean-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, full matching, 20 epochs",
        run: |exec| clean(1024, 11, exec, "clean-1024"),
        snapshot: Some(clean_1024_scenario),
    },
    NamedScenario {
        name: "clean-4096",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=4096, full matching, 20 epochs",
        run: |exec| clean(4096, 12, exec, "clean-4096"),
        snapshot: Some(clean_4096_scenario),
    },
    NamedScenario {
        name: "deleter-throttled-1024",
        protocol: "PopulationStability",
        adversary: "RandomDeleter 2/epoch",
        summary: "N=1024, per-epoch metered deletion",
        run: |exec| {
            let params = Params::for_target(1024).unwrap();
            let adv = Throttle::per_epoch(RandomDeleter::new(2), params.epoch_len());
            let mut spec = JobSpec::new(13, if exec.quick { 10 } else { 25 });
            spec.budget = 2;
            let run = run_protocol(&params, adv, spec, exec.threads);
            report("deleter-throttled-1024", &run);
        },
        snapshot: Some(deleter_throttled_1024_scenario),
    },
    NamedScenario {
        name: "trauma-injury-4096",
        protocol: "PopulationStability",
        adversary: "Trauma injury -70%",
        summary: "N=4096, one-shot shock at epoch 2, healing horizon",
        run: |exec| {
            let params = Params::for_target(4096).unwrap();
            let epoch = u64::from(params.epoch_len());
            let adv = Trauma::new(params.clone(), TraumaKind::Injury, 0.7, 2 * epoch);
            let mut spec =
                JobSpec::new(14, if exec.quick { 20 } else { 60 }).record_epoch_ends(&params);
            spec.budget = usize::MAX;
            let run = run_protocol(&params, adv, spec, exec.threads);
            report("trauma-injury-4096", &run);
        },
        snapshot: Some(trauma_injury_4096_scenario),
    },
    NamedScenario {
        name: "gamma-quarter-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, ExactFraction(0.25) matching",
        run: |exec| {
            let params = Params::for_target(1024).unwrap();
            let mut spec = JobSpec::new(15, if exec.quick { 10 } else { 25 });
            spec.gamma = 0.25;
            let run = run_clean(&params, spec, exec.threads);
            report("gamma-quarter-1024", &run);
        },
        snapshot: Some(gamma_quarter_1024_scenario),
    },
    NamedScenario {
        name: "gamma-random-1024",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=1024, RandomFraction{min 0.5} matching",
        run: |exec| {
            let params = Params::for_target(1024).unwrap();
            let mut spec = JobSpec::new(16, if exec.quick { 10 } else { 25 });
            spec.matching = Some(MatchingModel::RandomFraction { min_gamma: 0.5 });
            report("gamma-random-1024", &run_clean(&params, spec, exec.threads));
        },
        snapshot: Some(gamma_random_1024_scenario),
    },
    NamedScenario {
        name: "desync-purge-1024",
        protocol: "PopulationStability",
        adversary: "DesyncInserter 4/epoch",
        summary: "N=1024, Algorithm-7 purge under clock-skew insertion",
        run: |exec| {
            let params = Params::for_target(1024).unwrap();
            let adv = Throttle::per_epoch(
                DesyncInserter::new(params.clone(), 4, params.epoch_len() / 2),
                params.epoch_len(),
            );
            let mut spec = JobSpec::new(17, if exec.quick { 8 } else { 16 });
            spec.budget = 4;
            let run = run_protocol(&params, adv, spec, exec.threads);
            report("desync-purge-1024", &run);
        },
        snapshot: Some(desync_purge_1024_scenario),
    },
    NamedScenario {
        name: "attempt1-flood-1024",
        protocol: "Attempt1 (baseline)",
        adversary: "SignalFlooder 1/epoch",
        summary: "N=1024, the paper's predicted collapse",
        run: |exec| {
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
        },
        snapshot: None,
    },
    NamedScenario {
        name: "malice-rho4-1024",
        protocol: "WithMalice (ext. model)",
        adversary: "MaliciousInserter rho=4",
        summary: "N=1024, contact-kill containment race",
        run: |exec| {
            let params = Params::for_target(1024).unwrap();
            let epoch = u64::from(params.epoch_len());
            let epochs = if exec.quick { 3 } else { 8 };
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
                .run(
                    RunSpec::rounds(epochs * epoch).threads(exec.threads),
                    &mut (),
                );
            println!(
                "scenario malice-rho4-1024: rounds={} population={} malicious={} contained={}",
                outcome.executed,
                engine.population(),
                malicious_count(engine.agents()),
                outcome.halted.is_none() && malicious_count(engine.agents()) < 100
            );
        },
        snapshot: None,
    },
    NamedScenario {
        name: "clean-1048576",
        protocol: "PopulationStability",
        adversary: "none",
        summary: "N=2^20, full matching, short large-N smoke window",
        run: run_clean_1048576,
        snapshot: Some(clean_1048576_scenario),
    },
    NamedScenario {
        name: "fork-recovery-1024",
        protocol: "PopulationStability",
        adversary: "forked ensemble",
        summary: "N=1024, -60% shock, 4 counterfactual futures from epoch 3",
        run: run_fork_recovery_1024,
        snapshot: Some(fork_recovery_1024_scenario),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::{BatchRunner, Threads};

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate scenario names");
        assert!(find("clean-1024").is_some());
        assert!(find("no-such-scenario").is_none());
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
        (find("gamma-quarter-1024").unwrap().run)(&exec);
    }

    #[test]
    fn snapshot_hooks_cover_exactly_the_population_stability_entries() {
        for s in registry() {
            assert_eq!(
                s.snapshot.is_some(),
                s.protocol == "PopulationStability",
                "snapshot hook coverage for {}",
                s.name
            );
        }
    }

    #[test]
    fn a_hook_scenario_snapshots_and_resumes_bit_for_bit() {
        use popstab_sim::{Engine, OnRound, RoundReport};
        let hook = find("deleter-throttled-1024").unwrap().snapshot.unwrap();
        let trace = |engine: &mut Engine<PopulationStability, _>, rounds: u64| {
            let mut t = Vec::new();
            engine.run(
                RunSpec::rounds(rounds),
                &mut OnRound(|r: &RoundReport| t.push(*r)),
            );
            t
        };
        let mut straight = hook().engine();
        let full = trace(&mut straight, 40);

        let mut prefix = hook().engine();
        prefix.run(RunSpec::rounds(25), &mut ());
        let snap = prefix.snapshot();
        // The adversary is rebuilt from the hook: the suite adversaries are
        // round-/rng-keyed, so the rebuilt instance continues exactly.
        let rebuilt = hook();
        let mut resumed = Engine::restore(rebuilt.protocol, rebuilt.adversary, &snap).unwrap();
        let tail = trace(&mut resumed, 15);
        assert_eq!(&full[25..], &tail[..]);
        assert_eq!(resumed.population(), straight.population());
    }

    #[test]
    fn fork_recovery_identity_branch_matches_the_straight_line() {
        let hook = find("fork-recovery-1024").unwrap().snapshot.unwrap();
        let epoch = u64::from(Params::for_target(1024).unwrap().epoch_len());
        let (fork_at, tail) = (3 * epoch, 12);

        let mut straight = hook().engine();
        straight.run(RunSpec::rounds(fork_at + tail), &mut ());

        // Identity branch: salt 0 and the rebuilt prefix adversary (the
        // one-shot shock already fired inside the prefix, so the rebuilt
        // instance never acts — exactly like the uninterrupted run).
        let branches = vec![ForkBranch::new(0, hook().adversary)];
        let pops = hook().fork(fork_at, branches, &BatchRunner::new(1), |_, mut engine| {
            engine.run(RunSpec::rounds(tail), &mut ());
            engine.population()
        });
        assert_eq!(pops, vec![straight.population()]);
    }
}
