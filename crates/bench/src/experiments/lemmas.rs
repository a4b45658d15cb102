//! **T2–T6 — The bookkeeping lemmas** (Lemmas 3–7, §4.1–4.2).
//!
//! For each lemma we run the protocol under the scenario the lemma guards
//! against and report the observed extremum next to the (scale-adjusted)
//! bound:
//!
//! * Lemma 3 (T2): wrong-round agents under desync insertion,
//! * Lemma 4 (T3): active fraction under maximal insertion pressure,
//! * Lemma 5 (T4): recruitment quotas all exhausted at evaluation,
//! * Lemma 6 (T5): per-color counts near `m/16` under color flooding,
//! * Lemma 7 (T6): per-epoch deviation `Õ(√N)`.

use popstab_adversary::{ColorFlooder, DesyncInserter, Throttle};
use popstab_analysis::invariants::check_invariants;
use popstab_analysis::report::{fmt_f64, fmt_pass, Table};
use popstab_core::params::Params;
use popstab_core::state::Color;
use popstab_sim::NoOpAdversary;

use crate::{run_protocol, Exec, JobSpec};

/// A named, deferred protocol run producing its recorded metrics.
type Scenario = (
    &'static str,
    Box<dyn FnOnce() -> popstab_sim::MetricsRecorder>,
);

/// Runs the experiment and prints its tables.
pub fn run(exec: &Exec) {
    let n: u64 = 1024;
    let params = Params::for_target(n).unwrap();
    let epochs: u64 = if exec.quick { 8 } else { 20 };
    let k = 4;
    let threads = exec.threads;

    println!("T2-T6: bookkeeping lemmas at N = {n} over {epochs} epochs (budget {k}/epoch)\n");

    let scenarios: Vec<Scenario> = vec![
        (
            "no adversary",
            Box::new({
                let params = params.clone();
                move || {
                    run_protocol(&params, NoOpAdversary, JobSpec::new(5, epochs), threads).metrics
                }
            }),
        ),
        (
            "desync-inserter",
            Box::new({
                let params = params.clone();
                move || {
                    let adv = Throttle::per_epoch(
                        DesyncInserter::new(params.clone(), k, params.epoch_len() / 2),
                        params.epoch_len(),
                    );
                    let mut spec = JobSpec::new(6, epochs);
                    spec.budget = k;
                    run_protocol(&params, adv, spec, threads).metrics
                }
            }),
        ),
        (
            "color-flooder",
            Box::new({
                let params = params.clone();
                move || {
                    let adv = Throttle::per_epoch(
                        ColorFlooder::new(params.clone(), k, Color::Zero),
                        params.epoch_len(),
                    );
                    let mut spec = JobSpec::new(7, epochs);
                    spec.budget = k;
                    run_protocol(&params, adv, spec, threads).metrics
                }
            }),
        ),
    ];

    let mut table = Table::new(["scenario", "lemma", "observed", "bound", "pass"]);
    for (name, runner) in scenarios {
        let metrics = runner();
        let report = check_invariants(&params, 1.0, metrics.rounds());
        for (lemma, check) in [
            ("L3 wrong-round", report.lemma3_wrong_round),
            ("L4 active frac", report.lemma4_active_fraction),
            ("L6 color dev", report.lemma6_color_deviation),
            ("L7 epoch dev", report.lemma7_epoch_deviation),
        ] {
            table.row([
                name.to_string(),
                lemma.to_string(),
                fmt_f64(check.observed, 2),
                fmt_f64(check.bound, 2),
                fmt_pass(check.pass),
            ]);
        }
    }
    println!("{table}");

    // T4 / Lemma 5: recruitment completeness, inspected right before the
    // evaluation round. One batch job per seed, on the recording-free fast
    // path (only the end-of-recruitment state is inspected).
    let epoch = u64::from(params.epoch_len());
    let trials = if exec.quick { 4 } else { 10 };
    let counts = exec.runner.run((0..trials).collect(), |_, seed: u64| {
        let cfg = popstab_sim::SimConfig::builder()
            .seed(900 + seed)
            .target(n)
            .build()
            .unwrap();
        let mut engine = popstab_sim::Engine::with_population(
            popstab_core::protocol::PopulationStability::new(params.clone()),
            cfg,
            n as usize,
        );
        engine.run(popstab_sim::RunSpec::rounds(epoch - 1), &mut ());
        let active = engine.agents().iter().filter(|a| a.active).count() as u64;
        let incomplete = engine
            .agents()
            .iter()
            .filter(|a| a.active && a.to_recruit != 0)
            .count() as u64;
        (active, incomplete)
    });
    let active_total: u64 = counts.iter().map(|c| c.0).sum();
    let incomplete_total: u64 = counts.iter().map(|c| c.1).sum();
    println!(
        "L5 recruitment completeness: {incomplete_total} of {active_total} active agents \
         entered evaluation with unfinished quotas ({} trials) — paper claims 0 w.h.p.\n",
        trials
    );
}
