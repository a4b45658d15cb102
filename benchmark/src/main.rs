//! The engine benchmark of record.
//!
//! ```text
//! popstab-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload (see [`workload::WORKLOADS`]) and prints, as the last
//! line of standard output, one JSON object: `correct`, `attempted` and
//! `failed` (rounds, checked against the workload's reference trajectory)
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured untraced; with `--trace 1` they are the per-layer ones, from a
//! traced run (see `README.md` for every metric's definition). Lines
//! before it describe the run for a human: the stamp (host, stream
//! versions, seed), every metric with its spread and sample count, and the
//! raw per-rep samples.

mod digest;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use popstab_core::state::AgentState;
use popstab_sim::Threads;

use crate::stats::{median, quantile, spread};
use crate::workload::{
    find, replay_matching, with_arms, Layers, Pass, ReferenceRun, Rep, Replay, Workload,
    DEFAULT_SEED, WORKLOADS,
};

const USAGE: &str =
    "usage: popstab-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Pooled round samples every untraced run collects at least, so the p95
/// latency has ten samples beyond it at any run length.
const MIN_ROUNDS: usize = 200;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Interquartile range over median of the samples behind `value`.
    spread: f64,
    /// Samples behind `value`.
    n: usize,
    /// Printed for a human but left out of the result line.
    informational: bool,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            spread: spread(samples),
            n: samples.len(),
            informational: false,
        }
    }

    fn informational(self) -> Metric {
        Metric {
            informational: true,
            ..self
        }
    }

    /// A figure derived from totals rather than samples.
    fn derived(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, value, &[value])
    }
}

/// Correctness over every rep of a run.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    fn reps(&mut self, what: &str, reps: &[Rep], reference_digest: u64) {
        for (i, rep) in reps.iter().enumerate() {
            self.attempted += rep.attempted;
            self.failed += rep.failed;
            if rep.digest != reference_digest {
                self.problems.push(format!(
                    "{what} rep {i}: digest {:#018x} != reference {reference_digest:#018x} ({} rounds failed)",
                    rep.digest, rep.failed
                ));
            }
            if !rep.recorded_ok {
                self.problems
                    .push(format!("{what} rep {i}: RecordStats missed rounds"));
            }
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn rates(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(Rep::agent_rounds_per_s).collect()
}

fn pass(
    args: &Args,
    reference: &digest::Reference,
    threads: Threads,
    share: f64,
    min_reps: usize,
    min_rounds: usize,
    traced: bool,
) -> Vec<Rep> {
    let w = args.workload;
    with_arms(
        w,
        traced,
        Pass {
            w,
            seed: args.seed,
            threads,
            budget: Duration::from_secs_f64(args.seconds * share),
            min_reps,
            min_rounds,
            traced,
            reference,
        },
    )
}

/// End-to-end metrics: a warm-up rep, then untraced reps for `--seconds`.
fn end_to_end(
    args: &Args,
    reference: &digest::Reference,
    check: &mut Check,
) -> (Vec<Metric>, String) {
    let w = args.workload;
    let warm = pass(args, reference, w.threads, 0.0, 1, 0, false);
    check.reps("warm-up", &warm, reference.digest);
    let reps = pass(args, reference, w.threads, 1.0, 3, MIN_ROUNDS, false);
    check.reps("timed", &reps, reference.digest);

    let round_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let checkpoint_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.checkpoint_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 * 1e-9).collect();
    let rate = rates(&reps);
    let mem = reps
        .iter()
        .map(|r| r.mem_bytes_per_agent)
        .fold(0.0, f64::max);
    // Σ/Σ over the reps, not the median rep: rep rates are bimodal under
    // co-tenant load, and the median flips between the modes run to run.
    let agent_rounds: u64 = reps.iter().map(|r| r.agent_rounds).sum();
    let loop_ns: u64 = reps.iter().map(|r| r.loop_ns).sum();
    let metrics = vec![
        Metric::new(
            "agent_rounds_per_s",
            "1/s",
            agent_rounds as f64 / (loop_ns as f64 * 1e-9),
            &rate,
        ),
        Metric::new(
            "checkpoint_ms_p50",
            "ms",
            median(&checkpoint_ms),
            &checkpoint_ms,
        ),
        Metric::new("setup_s", "s", median(&setup_s), &setup_s),
        Metric::derived("mem_bytes_per_agent", "B", mem),
        // Not gated: on a shared host per-round latencies split into an
        // uncontended and a contended cluster whose mix drifts with
        // co-tenant load over minutes, so from run to run the median jumps
        // between clusters and the p95 of sharded rounds spread up to 0.6.
        Metric::new("round_ms_p50", "ms", median(&round_ms), &round_ms).informational(),
        Metric::new("round_ms_p95", "ms", quantile(&round_ms, 0.95), &round_ms).informational(),
    ];
    let samples = format!(
        "{{\"reps\": {}, \"rounds\": {}, \"checkpoints\": {}, \"round_ms_p50\": {}, \"round_ms_p95\": {}, \"agent_rounds_per_s\": {}, \"setup_s\": {}, \"loop_s\": {}}}",
        reps.len(),
        round_ms.len(),
        checkpoint_ms.len(),
        json_number(median(&round_ms)),
        json_number(quantile(&round_ms, 0.95)),
        json_list(&rate),
        json_list(&setup_s),
        json_list(&reps.iter().map(|r| r.loop_ns as f64 * 1e-9).collect::<Vec<_>>()),
    );
    (metrics, samples)
}

/// Per-layer metrics. Host speed drifts, so every comparison is made
/// between reps interleaved in time: each cycle runs one untraced rep, one
/// traced rep under the workload's own threads, one traced rep under the
/// other thread configuration, and replays the traced rep's matching
/// outside the engine; cycles repeat for `--seconds`.
fn per_layer(
    args: &Args,
    reference: &digest::Reference,
    check: &mut Check,
) -> (Vec<Metric>, String) {
    let w = args.workload;
    let (mut base, mut main, mut other) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay = Replay::default();
    let start = trace::now_ns();
    while base.is_empty() || (trace::now_ns() - start) as f64 * 1e-9 < args.seconds {
        base.extend(pass(args, reference, w.threads, 0.0, 1, 0, false));
        main.extend(pass(args, reference, w.threads, 0.0, 1, 0, true));
        other.extend(pass(args, reference, w.other_threads(), 0.0, 1, 0, true));
        let traced: &Rep = main.last().expect("a traced rep");
        replay_matching(w, args.seed, &traced.reports, &mut replay);
    }
    check.reps("untraced", &base, reference.digest);
    check.reps("traced", &main, reference.digest);
    check.reps("traced other-threads", &other, reference.digest);
    check.require(replay.mismatches == 0, || {
        format!(
            "matching replay missed `matched` on {} rounds",
            replay.mismatches
        )
    });
    check_residency(w, &main, check);

    let lm = Layers::of(&main);
    let lo = Layers::of(&other);
    let (serial, sharded) = match w.threads {
        Threads::Serial => (&lm, &lo),
        Threads::Sharded(_) => (&lo, &lm),
    };
    let rounds = lm.rounds.max(1) as f64;
    let per_replay = |ns: u64| ns as f64 / replay.rounds.max(1) as f64;
    let sample_in_engine = match w.threads {
        Threads::Serial => replay.sample_ns,
        Threads::Sharded(_) => replay.sample_par2_ns,
    };
    let replayed = per_replay(sample_in_engine) + per_replay(replay.partner_table_ns);
    let round_ns = lm.round_ns();
    let children = lm.round_children_ns as f64 / rounds;
    let per_cycle = |name: &str| {
        let (count, ns, _) = lm.get(name);
        ns as f64 / count.max(1) as f64
    };
    let (_, _, bytes) = lm.get("checkpoint");
    let (_, _, captured) = lm.get("snapshot.capture");
    let (_, _, loaded) = lm.get("columns.load");
    let (_, _, stored) = lm.get("columns.store");
    let state_bytes = std::mem::size_of::<AgentState>() as f64;
    // Each cycle's untraced and traced reps ran back to back, so pairing
    // them cancels the host's drift between cycles.
    let overhead: Vec<f64> = rates(&base)
        .iter()
        .zip(rates(&main))
        .map(|(untraced, traced)| 1.0 - traced / untraced)
        .collect();
    let metrics = vec![
        Metric::derived("driver.round_ns", "ns", round_ns),
        Metric::derived("driver.residual_ns", "ns", round_ns - children - replayed),
        Metric::derived(
            "driver.coverage_frac",
            "ratio",
            (children + replayed) / round_ns,
        ),
        Metric::new("trace.overhead_frac", "ratio", median(&overhead), &overhead),
        Metric::derived("adversary.act_ns", "ns", lm.per_round_ns("adversary.act")),
        Metric::derived(
            "adversary.alterations",
            "count",
            lm.get("adversary.act").2 as f64 / rounds,
        ),
        Metric::derived("matching.sample_ns", "ns", per_replay(replay.sample_ns)),
        Metric::derived(
            "matching.sample_par2_ns",
            "ns",
            per_replay(replay.sample_par2_ns),
        ),
        Metric::derived(
            "matching.partner_table_ns",
            "ns",
            per_replay(replay.partner_table_ns),
        ),
        Metric::derived(
            "matching.matched_frac",
            "ratio",
            replay.matched as f64 / replay.survivors.max(1) as f64,
        ),
        Metric::derived("columns.step_ns", "ns", lm.per_round_ns("columns.step")),
        Metric::derived(
            "columns.step_serial_ns",
            "ns",
            serial.per_round_ns("columns.step"),
        ),
        Metric::derived("columns.apply_ns", "ns", lm.per_round_ns("columns.apply")),
        Metric::derived("columns.load_ns", "ns", lm.per_round_ns("columns.load")),
        Metric::derived(
            "columns.loads",
            "count",
            lm.get("columns.load").0 as f64 / rounds,
        ),
        Metric::derived("columns.store_ns", "ns", lm.per_round_ns("columns.store")),
        Metric::derived(
            "columns.stores",
            "count",
            lm.get("columns.store").0 as f64 / rounds,
        ),
        Metric::derived(
            "columns.transpose_bytes",
            "B",
            (loaded + stored) as f64 * state_bytes / rounds,
        ),
        Metric::derived(
            "metrics.on_round_ns",
            "ns",
            lm.per_round_ns("metrics.on_round"),
        ),
        Metric::derived("snapshot.capture_ns", "ns", per_cycle("snapshot.capture")),
        Metric::derived("snapshot.encode_ns", "ns", per_cycle("snapshot.encode")),
        Metric::derived("snapshot.decode_ns", "ns", per_cycle("snapshot.decode")),
        Metric::derived("snapshot.restore_ns", "ns", per_cycle("snapshot.restore")),
        Metric::derived(
            "snapshot.bytes_per_agent",
            "B",
            bytes as f64 / captured.max(1) as f64,
        ),
        Metric::new("batch.job_ns_p50", "ns", median(&lm.job_ns), &lm.job_ns),
        Metric::new(
            "batch.job_wait_ns",
            "ns",
            lm.job_wait_ns.iter().sum::<f64>() / lm.job_wait_ns.len().max(1) as f64,
            &lm.job_wait_ns,
        ),
        Metric::derived(
            "batch.worker_busy_frac",
            "ratio",
            lm.busy.0 as f64 / lm.busy.1.max(1) as f64,
        ),
        Metric::derived(
            "batch.shard_efficiency",
            "ratio",
            serial.round_ns() / (2.0 * sharded.round_ns()),
        ),
    ];
    write_spans(args, &main[0]);
    let samples = format!(
        "{{\"untraced_reps\": {}, \"traced_reps\": {}, \"other_threads_reps\": {}, \"traced_rounds\": {}, \"replayed_rounds\": {}, \"untraced_agent_rounds_per_s\": {}, \"traced_agent_rounds_per_s\": {}}}",
        base.len(),
        main.len(),
        other.len(),
        lm.rounds,
        replay.rounds,
        json_list(&rates(&base)),
        json_list(&rates(&main)),
    );
    (metrics, samples)
}

/// The traced run must take the engine's fast-path decisions: a resident
/// run loads once and stores once, a recorded run stores every round.
fn check_residency(w: &Workload, reps: &[Rep], check: &mut Check) {
    for rep in reps {
        for spans in &rep.spans {
            let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
            let (loads, stores) = (count("columns.load"), count("columns.store"));
            if w.churn.is_some() {
                check.require(loads == w.rounds && stores == w.rounds, || {
                    format!(
                        "churn job: {loads} loads / {stores} stores over {} rounds",
                        w.rounds
                    )
                });
            } else if w.record {
                check.require(stores == w.rounds, || {
                    format!("recorded job: {stores} stores over {} rounds", w.rounds)
                });
            } else {
                check.require(loads == 1 && stores == 1, || {
                    format!("resident job: {loads} loads / {stores} stores, expected 1 / 1")
                });
            }
        }
    }
}

/// Writes the first traced rep's spans under `runs/` beside this package.
fn write_spans(args: &Args, rep: &Rep) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let path = dir.join(format!("{}-{}.spans.tsv", args.workload.name, args.seed));
    let mut out = String::from("job\tid\tparent\tname\tstart_ns\tend_ns\tvalue\n");
    for (job, spans) in rep.spans.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == trace::NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{job}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.value
            );
        }
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
    format!("[{}]", items.join(", "))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = with_arms(w, false, ReferenceRun { w, seed: args.seed });
    let mut check = Check::default();
    check.require(
        args.seed != DEFAULT_SEED || reference.digest == w.pinned_digest,
        || {
            format!(
                "reference digest {:#018x} at the default seed differs from the pinned {:#018x}",
                reference.digest, w.pinned_digest
            )
        },
    );
    println!(
        "# stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"agent_stream_version\": {}, \"matching_stream_version\": {}, \"snapshot_format_version\": {}, \"reference_digest\": \"{:#018x}\"}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        popstab_sim::rng::AGENT_STREAM_VERSION,
        popstab_sim::matching::MATCHING_STREAM_VERSION,
        popstab_sim::SNAPSHOT_FORMAT_VERSION,
        reference.digest,
    );
    let (metrics, samples) = if args.trace {
        per_layer(&args, &reference, &mut check)
    } else {
        end_to_end(&args, &reference, &mut check)
    };
    for m in &metrics {
        println!(
            "{:<26} {:>16.4} {:<6} spread {:.4}  n={}{}",
            m.name,
            m.value,
            m.unit,
            m.spread,
            m.n,
            if m.informational { "  (not gated)" } else { "" }
        );
    }
    println!(
        "failed_share {:.6} ({} of {} rounds)",
        check.failed as f64 / check.attempted.max(1) as f64,
        check.failed,
        check.attempted
    );
    for p in &check.problems {
        println!("# problem: {p}");
    }
    println!("# samples {samples}");
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !m.informational)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.problems.is_empty() && check.failed == 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
