//! **B1 — Engine throughput benchmark → `BENCH_engine.json`.**
//!
//! Measures rounds/sec of the substrate running [`PopulationStability`]
//! near equilibrium at five scales (the powers of four bracketing 1k, 10k
//! and 100k agents, plus the large-N pair `2^20` and `2^22` that the
//! columnar store exists for), in several configurations. Every engine
//! runs the columnar (struct-of-arrays) step path, which the protocol
//! offers and every engine takes — bit-identical to the scalar loop — so the
//! numbers here track what the resident-column kernels actually deliver,
//! and `mem_bytes_per_agent` reports the resident footprint that layout
//! buys. `--n <list>` (comma-separated targets, powers of four ≥ 1024)
//! overrides the scale plan for one-off sweeps.
//!
//! Every path runs through the unified driver ([`Engine::run`] with a
//! [`RunSpec`]) — the same code the experiments and the integration suites
//! drive:
//!
//! * `single_recorded_rps` — one engine with a per-round
//!   [`RecordStats`] observer (the recording
//!   path),
//! * `single_fast_rps` — one engine with the `()` observer (the
//!   recording-free fast path; the Observer abstraction must cost nothing
//!   here, which the committed-baseline check below enforces),
//! * `recorded_over_fast` — `single_recorded_rps / single_fast_rps`, the
//!   share of the fast path's speed a recorded run keeps (recording reads
//!   the resident columns' stats kernel, so the target is ≥ 0.9),
//! * `batch_rps` — one engine per [`BatchRunner`] worker, aggregate
//!   throughput (equals `single_fast_rps` on a single-core host),
//! * `par_rps` — **one** engine with the step phase of every round sharded
//!   across `round_threads` workers
//!   ([`Threads::Sharded`](popstab_sim::Threads)): the single-run
//!   multi-core number the intra-round parallelism exists for. On a
//!   single-core host this degenerates to the serial fast path run through
//!   the parallel machinery (measuring its overhead); the ≥3× target at
//!   `N = 65536` applies to 4+-core hosts.
//!
//! The JSON lands in the working directory so CI can archive the perf
//! trajectory; a `--quick` run uses shorter horizons but the same shape.
//! Before overwriting, a committed `BENCH_engine.json` from the same kind
//! of run (non-quick, same stream versions, same core count) serves as a
//! regression baseline for `single_fast_rps` at `N = 65536`.

use std::sync::OnceLock;
use std::time::Instant;

use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_sim::batch::job_seed;
use popstab_sim::{BatchRunner, Engine, MetricsRecorder, RecordStats, RunSpec, SimConfig};

/// One scale's measurements.
struct Workload {
    n: u64,
    rounds: u64,
    single_recorded_rps: f64,
    single_fast_rps: f64,
    batch_rps: f64,
    batch_jobs: usize,
    par_rps: f64,
    par_workers: usize,
    /// Resident simulation bytes per agent after the fast run — agent
    /// vector, round scratch, and the columnar store's retained buffers
    /// ([`Engine::approx_mem_bytes`] / `n`). The figure the SoA layout is
    /// accountable to at `N = 2^20`/`2^22`.
    mem_bytes_per_agent: f64,
    /// `par_rps / par_workers`: intra-round scaling efficiency in
    /// host-independent units (equals `par_rps` on a single-core host).
    par_rps_per_core: f64,
    /// `single_recorded_rps / single_fast_rps`: what recording every
    /// round costs against the recording-free path (the target is ≥ 0.9).
    recorded_over_fast: f64,
}

/// `--n` override for the scale plan, set once by the CLI before `run`.
static N_OVERRIDE: OnceLock<Vec<u64>> = OnceLock::new();

/// Replaces the default scale plan with `ns` (validated by the caller:
/// powers of four ≥ 1024). First call wins; later calls are ignored.
pub fn set_n_override(ns: Vec<u64>) {
    let _ = N_OVERRIDE.set(ns);
}

/// Whether `n` is a scale [`Params::for_target`] accepts — a power of
/// four no smaller than the paper's minimum population.
pub fn valid_target(n: u64) -> bool {
    n >= 1024 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2)
}

fn engine_at(n: u64, seed: u64) -> Engine<PopulationStability> {
    let params = Params::for_target(n).expect("bench target is a power of four");
    let cfg = SimConfig::builder().seed(seed).target(n).build().unwrap();
    Engine::with_population(PopulationStability::new(params), cfg, n as usize)
}

fn measure(n: u64, rounds: u64, workers: usize, round_threads: usize, reps: u32) -> Workload {
    // Warm-up: populate allocator and branch predictors out of band.
    engine_at(n, 0).run(RunSpec::rounds(rounds / 10 + 1), &mut ());

    // Best-of-`reps` per cell: each rep re-runs the identical simulation,
    // so the max rate is the machine's capability with scheduler noise
    // stripped (the criterion-style estimator, without the dependency).
    // Engine construction is `O(N)` and stays outside every timed window.
    let (mut single_recorded_rps, mut single_fast_rps, mut batch_rps) = (0f64, 0f64, 0f64);
    let mut par_rps = 0f64;
    let mut mem_bytes = 0usize;
    let runner = BatchRunner::new(workers);
    for _ in 0..reps {
        let mut engine = engine_at(n, 1);
        let mut rec = MetricsRecorder::new();
        let start = Instant::now();
        engine.run(RunSpec::rounds(rounds), &mut RecordStats::new(&mut rec));
        single_recorded_rps =
            single_recorded_rps.max(rounds as f64 / start.elapsed().as_secs_f64());

        let mut engine = engine_at(n, 1);
        let start = Instant::now();
        engine.run(RunSpec::rounds(rounds), &mut ());
        single_fast_rps = single_fast_rps.max(rounds as f64 / start.elapsed().as_secs_f64());
        // Footprint after a settled fast run: buffers are at their
        // steady-state capacities, columns still resident.
        mem_bytes = mem_bytes.max(engine.approx_mem_bytes());

        let engines: Vec<_> = (0..workers as u64)
            .map(|job| engine_at(n, job_seed(1, job)))
            .collect();
        let start = Instant::now();
        runner.run(engines, |_, mut engine| {
            engine.run(RunSpec::rounds(rounds), &mut ())
        });
        batch_rps = batch_rps.max((rounds * workers as u64) as f64 / start.elapsed().as_secs_f64());

        // Intra-round sharding: one simulation, `round_threads` workers
        // inside each round (bit-identical trajectory to `single_fast`).
        let mut engine = engine_at(n, 1);
        let start = Instant::now();
        engine.run(RunSpec::rounds(rounds).sharded(round_threads), &mut ());
        par_rps = par_rps.max(rounds as f64 / start.elapsed().as_secs_f64());
    }

    Workload {
        n,
        rounds,
        single_recorded_rps,
        single_fast_rps,
        batch_rps,
        batch_jobs: workers,
        par_rps,
        par_workers: round_threads,
        mem_bytes_per_agent: mem_bytes as f64 / n as f64,
        par_rps_per_core: par_rps / round_threads as f64,
        recorded_over_fast: single_recorded_rps / single_fast_rps,
    }
}

/// Reads the committed `BENCH_engine.json` (if any) and returns its
/// `single_fast_rps` at `n`, provided the committed run is comparable with
/// a run of this build: non-quick, same stream versions, same core count.
/// The JSON is the fixed shape this module writes, so a line scan suffices
/// (no JSON dependency in the build environment).
fn committed_single_fast_rps(n: u64, quick: bool, host_cores: usize) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_engine.json").ok()?;
    let field = |name: &str| -> Option<String> {
        let at = text.find(&format!("\"{name}\":"))?;
        let rest = &text[at + name.len() + 3..];
        let end = rest.find([',', '\n', '}'])?;
        Some(rest[..end].trim().to_string())
    };
    if quick || field("quick")?.trim() != "false" {
        return None;
    }
    if field("host_cores")?.parse::<usize>().ok()? != host_cores {
        return None;
    }
    if field("agent_stream_version")?.parse::<u32>().ok()? != popstab_sim::rng::AGENT_STREAM_VERSION
        || field("matching_stream_version")?.parse::<u32>().ok()?
            != popstab_sim::matching::MATCHING_STREAM_VERSION
    {
        return None;
    }
    // Find the workload line for this `n` and pull its single_fast_rps.
    let line = text.lines().find(|l| l.contains(&format!("\"n\": {n},")))?;
    let at = line.find("\"single_fast_rps\":")?;
    let rest = &line[at + "\"single_fast_rps\":".len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse::<f64>().ok()
}

/// Runs the benchmark, prints the table, and writes `BENCH_engine.json`.
pub fn run(quick: bool) {
    // Recorded alongside the numbers so trajectory comparisons across PRs
    // and hosts are interpretable: rps under different stream versions or
    // core counts are different experiments, not regressions/improvements.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = popstab_sim::batch::default_jobs();
    // `--round-threads` override if given (including an explicit 1, which
    // measures the parallel machinery's serial overhead), else every core
    // the host offers.
    let round_threads = popstab_sim::batch::round_threads_override().unwrap_or(workers);
    let scale = if quick { 10 } else { 1 };
    let reps = if quick { 1 } else { 5 };
    // (target N, measured rounds): horizons sized so one cell is a few
    // hundred ms — long enough to dominate timer noise, short enough that
    // sustained-load CPU throttling doesn't contaminate the best-of reps.
    // The formula reproduces the historical plan (1024 → 6000, 16384 →
    // 1600, 65536 → 400) and extends it to the large-N pair, where the
    // floor keeps a cell at a dozen-plus rounds rather than seconds each.
    let default_ns: &[u64] = &[1024, 16384, 65536, 1 << 20, 1 << 22];
    let ns = N_OVERRIDE.get().map_or(default_ns, Vec::as_slice).to_vec();
    let plan: Vec<(u64, u64)> = ns
        .iter()
        .map(|&n| (n, ((400 * 65536) / n).clamp(12, 6000) / scale))
        .collect();
    println!(
        "B1: engine throughput (PopulationStability, {} batch workers, \
         {round_threads} intra-round threads, best of {reps})\n",
        workers
    );
    // Read the regression baseline *before* overwriting the file below.
    let baseline_fast_65536 = committed_single_fast_rps(65536, quick, host_cores);
    let workloads: Vec<Workload> = plan
        .iter()
        .map(|&(n, rounds)| {
            let w = measure(n, rounds.max(20), workers, round_threads, reps);
            println!(
                "N={:<7} rounds={:<5} single_recorded={:>9.0} rps  single_fast={:>9.0} rps  recorded/fast={:.2}  batch({}x)={:>9.0} rps  par({}t)={:>9.0} rps  mem={:>5.1} B/agent",
                w.n, w.rounds, w.single_recorded_rps, w.single_fast_rps, w.recorded_over_fast,
                w.batch_jobs, w.batch_rps, w.par_workers, w.par_rps, w.mem_bytes_per_agent
            );
            w
        })
        .collect();

    // Observer-indirection regression gate: on a host comparable to the one
    // that recorded the committed file, the fast path through the generic
    // driver must stay within noise of the committed `single_fast_rps` at
    // the largest scale (0.6x covers container-to-container jitter; a real
    // abstraction cost would show up far below that).
    // A `--n` override that skips N = 65536 has nothing to compare.
    let fresh_fast_65536 = workloads
        .iter()
        .find(|w| w.n == 65536)
        .map(|w| w.single_fast_rps);
    if let (Some(committed), Some(fresh)) = (baseline_fast_65536, fresh_fast_65536) {
        println!(
            "\nbaseline check: single_fast_rps @ N=65536 fresh {fresh:.0} vs committed {committed:.0} ({:+.0}%)",
            100.0 * (fresh - committed) / committed
        );
        assert!(
            fresh >= 0.6 * committed,
            "single_fast_rps at N=65536 regressed beyond noise: {fresh:.0} vs committed {committed:.0}"
        );
    }

    let mut json = String::from("{\n  \"benchmark\": \"engine-rounds-per-sec\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!(
        "  \"agent_stream_version\": {},\n",
        popstab_sim::rng::AGENT_STREAM_VERSION
    ));
    json.push_str(&format!(
        "  \"matching_stream_version\": {},\n",
        popstab_sim::matching::MATCHING_STREAM_VERSION
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"single_recorded_rps\": {:.1}, \
             \"single_fast_rps\": {:.1}, \"batch_rps\": {:.1}, \"batch_jobs\": {}, \
             \"par_rps\": {:.1}, \"par_workers\": {}, \
             \"mem_bytes_per_agent\": {:.1}, \"par_rps_per_core\": {:.1}, \
             \"recorded_over_fast\": {:.3}}}{}\n",
            w.n,
            w.rounds,
            w.single_recorded_rps,
            w.single_fast_rps,
            w.batch_rps,
            w.batch_jobs,
            w.par_rps,
            w.par_workers,
            w.mem_bytes_per_agent,
            w.par_rps_per_core,
            w.recorded_over_fast,
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");
}
