//! Experiment harness CLI.
//!
//! ```sh
//! experiments [--quick] [--jobs N] [--round-threads N] [--n LIST] <id>...
//! experiments all
//! experiments --list
//! experiments scenario <name>...
//! experiments snapshot <name> --at <round> -o <file>
//! experiments resume <file> [--rounds N] [--trace]
//! experiments run-recoverable <name> --rounds N [--every K] [--keep M]
//!             [--checkpoints BASE] [--kill-at R] [--trace]
//! ```
//!
//! Ids (the `IDS` table below; `--help` prints it): `stability` (T1),
//! `lemmas` (T2–T6), `drift` (F1), `attack` (F2), `ksweep` (F3),
//! `baselines` (F4 + T8), `gamma` (F5), `accounting` (T7), `healing` (F6),
//! `estimator` (F7), `equilibrium` (F7b), `malice` (F8), `ablation` (F9),
//! `bench` (B1 → `BENCH_engine.json`).
//!
//! `--list` prints the named scenario registry (protocol, adversary,
//! config summary) and `scenario <name>...` runs registry entries by name.
//!
//! The command line is parsed once into an [`Exec`] that every experiment
//! and scenario receives; its flags are the only way to set a run knob.
//! Every value flag also takes the `--flag=value` form, and a repeated
//! flag keeps its last value.
//!
//! `--jobs N` caps the worker count of every `BatchRunner` trial fan-out
//! (default: the machine's available parallelism, divided by the
//! `--round-threads` count when only that flag is given, so jobs ×
//! round-threads ≈ the machine). `--round-threads N` shards the step phase
//! *inside* every protocol round across N workers (default: serial
//! rounds). By the determinism contracts the figures are identical for
//! every value of both flags — CI diffs `--jobs 1 --round-threads 1`
//! against `--jobs 3 --round-threads 4` to prove it.
//!
//! `--n LIST` (comma-separated population targets, each a power of four
//! ≥ 1024) overrides the `bench` experiment's scale plan — e.g.
//! `experiments --n 1048576,4194304 bench` for a large-N-only sweep.
//! Other experiments ignore it.
//!
//! Engines run the columnar (struct-of-arrays) step path wherever the
//! protocol offers one; the columnar kernels replay the scalar trajectory
//! bit-for-bit, which `tests/columnar_equivalence.rs` pins up to
//! `N = 2^16`.
//!
//! `snapshot <name> --at R -o FILE` runs registry entry `<name>` to round
//! `R` and writes the engine state as a versioned snapshot; `resume FILE
//! --rounds N` restores it into the entry the snapshot is labeled with and
//! runs `N` more rounds. `snapshot`, `resume` and `run-recoverable` build
//! protocol and adversary from the entry's one builder
//! ([`scenario::find_builder`]), the same one `scenario <name>` runs. By the
//! snapshot contract a resumed run is bit-identical to the uninterrupted
//! one, which the CI snapshot-determinism leg enforces via `--trace`
//! (golden-format per-round lines on stdout, nothing else).
//!
//! `run-recoverable <name> --rounds N` is the crash-safe driver: it
//! auto-checkpoints registry entry `<name>` every `--every K` rounds (default
//! 10) into a rotation of `--keep M` files (default 3) under `--checkpoints
//! BASE` (default `<name>.ckpt`; `K` and `M` must be positive), and on
//! startup scans that rotation for the latest *valid* checkpoint — corrupt
//! or truncated files are reported to stderr and skipped — resuming from it
//! instead of starting over. A run
//! that crashes mid-way (simulate one with `--kill-at R`, which exits with
//! code 42 after round `R`) and is re-invoked therefore finishes with the
//! exact trace suffix of an uninterrupted run, which the CI fault-injection
//! leg diffs byte for byte.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use popstab_bench::scenario::{self, BoxedAdversary};
use popstab_bench::{experiments, Exec};
use popstab_core::protocol::PopulationStability;
use popstab_sim::{
    BatchRunner, Checkpoint, Engine, OnRound, RoundReport, RunSpec, Snapshot, Tee, Threads,
};

/// (id, description, runner) — the runner receives the parsed run knobs.
type Experiment = (&'static str, &'static str, fn(&Exec));

const IDS: &[Experiment] = &[
    (
        "stability",
        "T1: stability with no adversary",
        experiments::stability::run,
    ),
    (
        "lemmas",
        "T2-T6: bookkeeping lemmas 3-7",
        experiments::lemmas::run,
    ),
    (
        "drift",
        "F1: restoring drift field (Lemma 8)",
        experiments::drift::run,
    ),
    (
        "attack",
        "F2: stability under the attack suite",
        experiments::attack::run,
    ),
    (
        "ksweep",
        "F3: adversary tolerance threshold",
        experiments::ksweep::run,
    ),
    (
        "baselines",
        "F4/T8: baseline failure modes",
        experiments::baselines::run,
    ),
    (
        "gamma",
        "F5: matching-fraction robustness",
        experiments::gamma::run,
    ),
    (
        "accounting",
        "T7: states/memory/message accounting",
        experiments::accounting::run,
    ),
    ("healing", "F6: trauma recovery", experiments::healing::run),
    (
        "estimator",
        "F7: variance-based size estimation",
        experiments::estimator::run,
    ),
    (
        "equilibrium",
        "F7b: finite-size equilibrium",
        experiments::equilibrium::run,
    ),
    (
        "malice",
        "F8: malicious agents (extended model)",
        experiments::malice::run,
    ),
    (
        "ablation",
        "F9: constant ablations",
        experiments::ablation::run,
    ),
    (
        "bench",
        "B1: engine throughput -> BENCH_engine.json",
        experiments::bench::run,
    ),
];

fn usage() {
    eprintln!(
        "usage: experiments [--quick] [--jobs N] [--round-threads N] [--n LIST] <id>... | all"
    );
    eprintln!("       experiments --list | scenario <name>...");
    eprintln!("       experiments snapshot <name> --at <round> -o <file>");
    eprintln!("       experiments resume <file> [--rounds N] [--trace]");
    eprintln!(
        "       experiments run-recoverable <name> --rounds N [--every K] [--keep M] \
         [--checkpoints BASE] [--kill-at R] [--trace]"
    );
    eprintln!("experiments:");
    for (id, desc, _) in IDS {
        eprintln!("  {id:<12} {desc}");
    }
}

/// `experiments snapshot <name> --at R -o FILE`.
fn cmd_snapshot(name: &str, at: u64, out: &str, threads: Threads) -> Result<(), String> {
    let mut engine = scenario::find_builder(name)?().engine();
    engine.run(RunSpec::rounds(at).threads(threads), &mut ());
    let mut snap = engine.snapshot();
    snap.label = name.to_string();
    snap.write_to_file(out)
        .map_err(|e| format!("writing snapshot to `{out}`: {e}"))?;
    println!(
        "snapshot {name}: round={} population={} -> {out}",
        snap.round(),
        snap.population()
    );
    Ok(())
}

/// Restores `snap` into the scenario its label names, rebuilt by that
/// registry entry's builder; `source` names the file in the error.
fn restore(
    snap: &Snapshot,
    source: &Path,
) -> Result<Engine<PopulationStability, BoxedAdversary>, String> {
    scenario::find_builder(&snap.label)
        .and_then(|build| {
            let scenario = build();
            Engine::restore(scenario.protocol, scenario.adversary, snap).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("restoring `{}`: {e}", source.display()))
}

/// One golden-format trace line: the per-round format the CI determinism
/// legs byte-diff across thread counts, resumes and crash recoveries.
fn print_trace_line(r: &RoundReport) {
    println!(
        "{} {} {} {} {} {} {} {} {}",
        r.round,
        r.population_before,
        r.population_after,
        r.inserted,
        r.deleted,
        r.modified,
        r.matched,
        r.splits,
        r.deaths
    );
}

/// `experiments run-recoverable <name> --rounds N [--every K] [--keep M]
/// [--checkpoints BASE] [--kill-at R] [--trace]`.
#[derive(Debug)]
struct Recoverable {
    name: String,
    rounds: u64,
    every: u64,
    keep: usize,
    checkpoints: Option<String>,
    kill_at: Option<u64>,
    trace: bool,
}

fn cmd_run_recoverable(opts: &Recoverable, threads: Threads) -> Result<(), String> {
    let name = opts.name.as_str();
    let build = scenario::find_builder(name)?;
    let base = opts
        .checkpoints
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{name}.ckpt")));
    // Crash recovery: scan the rotation for the newest checkpoint that
    // decodes cleanly. Corrupt or truncated slots are reported and skipped
    // — a half-written file from the crash must never poison the resume.
    let scan = Checkpoint::scan(&base, opts.keep);
    for (path, err) in &scan.skipped {
        eprintln!("skipping checkpoint `{}`: {err}", path.display());
    }
    let (mut engine, from) = match scan.best {
        Some((path, snap)) => {
            if snap.label != name {
                return Err(format!(
                    "checkpoint `{}` is labeled `{}`, not `{name}`; refusing to resume",
                    path.display(),
                    snap.label
                ));
            }
            let engine = restore(&snap, &path)?;
            eprintln!(
                "resuming `{name}` from `{}` at round {}",
                path.display(),
                snap.round()
            );
            (engine, snap.round())
        }
        None => (build().engine(), 0),
    };
    if from >= opts.rounds {
        eprintln!(
            "`{name}` already ran {from} of {} rounds; nothing to do",
            opts.rounds
        );
        return Ok(());
    }
    let mut checkpoint = Checkpoint::every(opts.every, &base)
        .keep(opts.keep)
        .label(name);
    let spec = RunSpec::rounds(opts.rounds - from).threads(threads);
    // The checkpoint observer runs *first* in the tee: when `--kill-at`
    // fires mid-round-callback, the round's checkpoint (if due) is already
    // on disk, exactly as it would be in a real crash after a write.
    engine.run(
        spec,
        &mut Tee(
            &mut checkpoint,
            OnRound(|r: &RoundReport| {
                if opts.trace {
                    print_trace_line(r);
                }
                if opts.kill_at.is_some_and(|k| r.round + 1 >= k) {
                    // Simulated crash: abandon the process without unwinding,
                    // like a SIGKILL would. 42 lets harnesses tell scheduled
                    // crashes from real failures.
                    std::process::exit(42);
                }
            }),
        ),
    );
    for (round, err) in checkpoint.errors() {
        eprintln!("checkpoint at round {round} failed: {err}");
    }
    if !opts.trace {
        println!(
            "run-recoverable {name}: from_round={from} rounds={} population={} checkpoints={}",
            opts.rounds - from,
            engine.population(),
            checkpoint.written()
        );
    }
    Ok(())
}

/// `experiments resume FILE [--rounds N] [--trace]`.
fn cmd_resume(file: &str, rounds: u64, trace: bool, threads: Threads) -> Result<(), String> {
    let snap =
        Snapshot::read_from_file(file).map_err(|e| format!("reading snapshot `{file}`: {e}"))?;
    let mut engine = restore(&snap, Path::new(file))?;
    let spec = RunSpec::rounds(rounds).threads(threads);
    if trace {
        // Golden-trace format, one line per executed round, nothing else:
        // the CI snapshot-determinism leg byte-diffs this output.
        engine.run(spec, &mut OnRound(print_trace_line));
    } else {
        let outcome = engine.run(spec, &mut ());
        println!(
            "resumed {}: from_round={} rounds={} population={} halted={}",
            snap.label,
            snap.round(),
            outcome.executed,
            engine.population(),
            scenario::halted(outcome.halted)
        );
    }
    Ok(())
}

/// What `experiments` was asked to do.
#[derive(Debug)]
enum Command {
    /// `--help`: print the usage lines and the `IDS` table.
    Help,
    /// `--list`: print the scenario registry.
    List,
    /// `snapshot <name> --at R -o FILE`.
    Snapshot { name: String, at: u64, out: String },
    /// `resume FILE [--rounds N] [--trace]`.
    Resume {
        file: String,
        rounds: u64,
        trace: bool,
    },
    /// `run-recoverable <name> --rounds N ...`.
    RunRecoverable(Recoverable),
    /// `scenario <name>...`, every name resolved.
    Scenarios(Vec<&'static scenario::NamedScenario>),
    /// Experiments, in order (`all` already expanded, every id resolved).
    Experiments(Vec<&'static Experiment>),
}

/// The parsed command line: the run knobs and the command to run with them.
#[derive(Debug)]
struct Cli {
    exec: Exec,
    command: Command,
}

/// The batch width. `--jobs` wins; otherwise the machine's `avail` cores,
/// divided by an intra-round worker count above 1. The two parallelism
/// axes multiply (every batch job spins up its own intra-round pool, in
/// registry scenarios and fork sweeps too), and oversubscribing CPU-bound
/// threads only adds contention; results are identical either way.
fn batch_width(jobs: Option<usize>, round_threads: Option<usize>, avail: usize) -> usize {
    match (jobs, round_threads) {
        (Some(jobs), _) => jobs,
        (None, Some(threads)) if threads > 1 => (avail / threads).max(1),
        (None, _) => avail.max(1),
    }
}

/// A `--n` scale list: `None` unless every comma-separated entry is a
/// power of four ≥ 1024 (the targets
/// [`Params::for_target`](popstab_core::params::Params) accepts).
fn bench_ns(value: &str) -> Option<Vec<u64>> {
    let ns: Vec<u64> = value
        .split(',')
        .map(|part| part.trim().parse::<u64>().ok())
        .collect::<Option<_>>()?;
    (!ns.is_empty() && ns.iter().all(|&n| experiments::bench::valid_target(n))).then_some(ns)
}

/// Parses `experiments`' arguments (without the program name) on a
/// machine with `avail` cores. Pure: the caller supplies both, reads no
/// environment, and prints whatever comes back. `--list` and `--help` end
/// the parse where they stand, ignoring anything after them. Scenario
/// names and experiment ids are resolved here, all of them before anything
/// runs, so an unknown one fails at once.
fn parse_args(args: impl IntoIterator<Item = String>, avail: usize) -> Result<Cli, String> {
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut round_threads: Option<usize> = None;
    let mut ns: Option<Vec<u64>> = None;
    let mut at: u64 = 0;
    let mut out: Option<String> = None;
    let mut rounds: Option<u64> = None;
    let mut trace = false;
    let mut every: u64 = 10;
    let mut keep: usize = 3;
    let mut checkpoints: Option<String> = None;
    let mut kill_at: Option<u64> = None;
    let mut early: Option<Command> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        // `--flag=value` and `--flag value` are the same flag.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        if inline.is_some() && matches!(flag, "--quick" | "--trace" | "--list" | "--help") {
            return Err(format!("{flag} takes no value"));
        }
        let mut value = || inline.take().or_else(|| args.next());
        let count = |value: Option<String>| {
            value
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or(format!("{flag} needs a non-negative integer"))
        };
        let positive = |value: Option<String>| {
            value
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .ok_or(format!("{flag} needs a positive integer"))
        };
        match flag {
            "--quick" | "-q" => quick = true,
            "--trace" => trace = true,
            "--at" => at = count(value())?,
            "--rounds" => rounds = Some(count(value())?),
            "--every" => every = positive(value())? as u64,
            "--keep" => keep = positive(value())?,
            "--kill-at" => kill_at = Some(count(value())?),
            "--checkpoints" => {
                checkpoints = Some(value().ok_or("--checkpoints needs a base path")?);
            }
            "--out" | "-o" => out = Some(value().ok_or(format!("{flag} needs a file path"))?),
            "--jobs" | "-j" => jobs = Some(positive(value())?),
            "--round-threads" => round_threads = Some(positive(value())?),
            "--n" => {
                ns = Some(
                    value()
                        .as_deref()
                        .and_then(bench_ns)
                        .ok_or("--n needs a comma-separated list of powers of four >= 1024")?,
                );
            }
            "--list" => {
                early = Some(Command::List);
                break;
            }
            "--help" | "-h" => {
                early = Some(Command::Help);
                break;
            }
            _ => selected.push(arg),
        }
    }
    let width = batch_width(jobs, round_threads, avail);
    let exec = Exec {
        quick,
        runner: BatchRunner::new(width),
        threads: match round_threads {
            Some(n) if n > 1 => Threads::Sharded(n),
            _ => Threads::Serial,
        },
        bench_ns: ns,
        bench_par: round_threads.unwrap_or(width),
    };
    let mut positional = selected.iter().skip(1).cloned();
    let command = match (early, selected.first().map(String::as_str)) {
        (Some(command), _) => command,
        (None, None) => {
            return Err("nothing to run: give an experiment id, `all`, or a command".into())
        }
        (None, Some("snapshot")) => Command::Snapshot {
            name: positional
                .next()
                .ok_or("snapshot needs a scenario name; see `experiments --list`")?,
            at,
            out: out.ok_or("snapshot needs an output path (-o FILE)")?,
        },
        (None, Some("resume")) => Command::Resume {
            file: positional
                .next()
                .ok_or("resume needs a snapshot file path")?,
            rounds: rounds.unwrap_or(0),
            trace,
        },
        (None, Some("run-recoverable")) => Command::RunRecoverable(Recoverable {
            name: positional
                .next()
                .ok_or("run-recoverable needs a scenario name; see `experiments --list`")?,
            rounds: rounds.ok_or("run-recoverable needs --rounds N")?,
            every,
            keep,
            checkpoints,
            kill_at,
            trace,
        }),
        (None, Some("scenario")) => {
            let entries: Vec<_> = positional
                .map(|name| scenario::find(&name))
                .collect::<Result<_, _>>()?;
            if entries.is_empty() {
                return Err("scenario needs at least one name; see `experiments --list`".into());
            }
            Command::Scenarios(entries)
        }
        // `bench` overwrites the committed BENCH_engine.json with
        // machine-local numbers, so the figures bundle excludes it; run it
        // explicitly when refreshing the perf trajectory.
        (None, Some(_)) if selected.iter().any(|s| s == "all") => {
            Command::Experiments(IDS.iter().filter(|(id, _, _)| *id != "bench").collect())
        }
        (None, Some(_)) => Command::Experiments(
            selected
                .iter()
                .map(|want| {
                    IDS.iter()
                        .find(|(id, _, _)| id == want)
                        .ok_or(format!("unknown experiment `{want}`"))
                })
                .collect::<Result<_, _>>()?,
        ),
    };
    Ok(Cli { exec, command })
}

fn main() -> ExitCode {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let Cli { exec, command } = match parse_args(std::env::args().skip(1), avail) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            usage();
            Ok(())
        }
        Command::List => {
            scenario::print_list();
            Ok(())
        }
        Command::Snapshot { name, at, out } => cmd_snapshot(&name, at, &out, exec.threads),
        Command::Resume {
            file,
            rounds,
            trace,
        } => cmd_resume(&file, rounds, trace, exec.threads),
        Command::RunRecoverable(opts) => cmd_run_recoverable(&opts, exec.threads),
        Command::Scenarios(entries) => {
            entries.iter().for_each(|entry| entry.run(&exec));
            Ok(())
        }
        Command::Experiments(experiments) => {
            for (id, _, runner) in experiments {
                println!("================================================================");
                let start = Instant::now();
                runner(&exec);
                println!("[{id} finished in {:.1}s]\n", start.elapsed().as_secs_f64());
            }
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, avail: usize) -> Result<Cli, String> {
        parse_args(line.split_whitespace().map(String::from), avail)
    }

    #[test]
    fn inline_and_separate_values_parse_the_same() {
        for (inline, separate) in [
            ("--jobs=2 stability", "--jobs 2 stability"),
            ("--round-threads=3 gamma", "--round-threads 3 gamma"),
            ("--n=1024,4096 bench", "--n 1024,4096 bench"),
            (
                "run-recoverable clean-1024 --rounds=60 --every=5 --keep=2 --kill-at=35",
                "run-recoverable clean-1024 --rounds 60 --every 5 --keep 2 --kill-at 35",
            ),
            (
                "snapshot clean-1024 --at=30 --out=a.snap",
                "snapshot clean-1024 --at 30 -o a.snap",
            ),
        ] {
            assert_eq!(
                format!("{:?}", parse(inline, 4)),
                format!("{:?}", parse(separate, 4)),
                "{inline}"
            );
        }
        assert_eq!(
            parse("--jobs=2 stability", 8)
                .unwrap()
                .exec
                .runner
                .workers(),
            2
        );
    }

    #[test]
    fn non_positive_or_malformed_worker_counts_are_rejected() {
        for line in [
            "--jobs 0 stability",
            "--jobs=0 stability",
            "--round-threads x stability",
            "--round-threads=0 stability",
            "--round-threads",
            "--n 1000 bench",
            "--quick=yes stability",
            // Checkpoint cadence and rotation depth are positive too.
            "run-recoverable clean-1024 --rounds 5 --every 0",
            "run-recoverable clean-1024 --rounds 5 --every=0",
            "run-recoverable clean-1024 --rounds 5 --keep 0",
            "run-recoverable clean-1024 --rounds 5 --keep=-1",
        ] {
            assert!(parse(line, 4).is_err(), "{line}");
        }
    }

    #[test]
    fn round_threads_alone_shrinks_the_batch_to_the_machine() {
        for avail in [1, 2, 3, 8] {
            let exec = parse("--round-threads 2 stability", avail).unwrap().exec;
            assert_eq!(exec.runner.workers(), (avail / 2).max(1), "avail {avail}");
            assert_eq!(exec.threads, Threads::Sharded(2));
            assert_eq!(exec.bench_par, 2);
        }
        let exec = parse("--round-threads 2 --jobs 3 stability", 8)
            .unwrap()
            .exec;
        assert_eq!(exec.runner.workers(), 3);
        assert_eq!(exec.bench_par, 2);
        // Neither flag: the whole machine, serial rounds, and `bench`'s
        // `par` column at the batch width.
        let exec = parse("bench", 8).unwrap().exec;
        assert_eq!(exec.runner.workers(), 8);
        assert_eq!(exec.threads, Threads::Serial);
        assert_eq!(exec.bench_par, 8);
        // An explicit single round thread is serial rounds, no shrink, and
        // `bench` measures the sharded machinery on one worker.
        let exec = parse("--round-threads 1 bench", 8).unwrap().exec;
        assert_eq!(exec.runner.workers(), 8);
        assert_eq!(exec.threads, Threads::Serial);
        assert_eq!(exec.bench_par, 1);
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let exec = parse("--n 1024 --n 4096 bench", 2).unwrap().exec;
        assert_eq!(exec.bench_ns, Some(vec![4096]));
        let exec = parse("--jobs 3 --jobs=1 bench", 2).unwrap().exec;
        assert_eq!(exec.runner.workers(), 1);
    }

    #[test]
    fn run_recoverable_without_rounds_is_a_usage_error() {
        let err = parse("run-recoverable clean-1024 --every 5", 2).unwrap_err();
        assert!(err.contains("--rounds"), "{err}");
        match parse("run-recoverable clean-1024 --rounds 0", 2)
            .unwrap()
            .command
        {
            Command::RunRecoverable(opts) => {
                assert_eq!((opts.rounds, opts.every, opts.keep), (0, 10, 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commands_and_ids_resolve() {
        assert!(parse("", 2).is_err());
        assert!(parse("snapshot clean-1024", 2).is_err());
        assert!(parse("scenario", 2).is_err());
        assert!(matches!(
            parse("--list --jobs 0", 2).unwrap().command,
            Command::List
        ));
        match parse("stability all", 2).unwrap().command {
            Command::Experiments(ids) => {
                assert_eq!(ids.len(), IDS.len() - 1);
                assert!(!ids.iter().any(|(id, _, _)| *id == "bench"));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Every name is resolved before anything runs: one unknown name fails
    /// the whole command line, wherever it stands.
    #[test]
    fn unknown_names_fail_before_anything_runs() {
        for line in [
            "scenario clean-1024 no-such-name",
            "scenario no-such-name clean-1024",
            "stability no-such-id",
            "no-such-id stability",
        ] {
            let err = parse(line, 2).unwrap_err();
            assert!(err.contains("no-such-"), "{line}: {err}");
        }
        match parse("scenario clean-1024 deleter-throttled-1024", 2)
            .unwrap()
            .command
        {
            Command::Scenarios(entries) => {
                let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
                assert_eq!(names, ["clean-1024", "deleter-throttled-1024"]);
            }
            other => panic!("{other:?}"),
        }
        match parse("gamma stability", 2).unwrap().command {
            Command::Experiments(ids) => {
                let ids: Vec<&str> = ids.iter().map(|(id, _, _)| *id).collect();
                assert_eq!(ids, ["gamma", "stability"]);
            }
            other => panic!("{other:?}"),
        }
    }
}
