//! **F6 — Recovery from trauma** (the paper's biological motivation).
//!
//! A one-shot shock — injury (mass deletion) or hyper-proliferation (mass
//! insertion) — displaces the population far from equilibrium; the
//! restoring drift heals it back. The recovery rate is the drift itself,
//! so the deficit decays exponentially with the model time constant
//! (≈ `8√N/γ` epochs asymptotically; somewhat faster below equilibrium at
//! small N where the exact drift is stronger than linear).

use popstab_adversary::{Trauma, TraumaKind};
use popstab_analysis::equilibrium::{exact_epoch_drift, exact_equilibrium};
use popstab_analysis::report::{fmt_f64, Table};
use popstab_core::params::Params;

use crate::{run_protocol, Exec, JobSpec};

/// Runs the experiment and prints its tables.
pub fn run(exec: &Exec) {
    let n: u64 = 4096;
    let params = Params::for_target(n).unwrap();
    let epoch = u64::from(params.epoch_len());
    let m_eq = exact_equilibrium(&params, 1.0);
    let post_epochs: u64 = if exec.quick { 60 } else { 150 };

    println!("F6: trauma and healing at N = {n} (m° = {m_eq:.0}), shock at epoch 2\n");
    // The two shock scenarios are independent simulations: run them as one
    // batch, sampling only epoch-end populations (the only records this
    // figure consumes) via the recording stride.
    let shocks = [
        ("injury -70%", TraumaKind::Injury, 0.7),
        ("proliferation +70%", TraumaKind::Proliferation, 0.7),
    ];
    let outcomes = exec
        .runner
        .run(shocks.to_vec(), |_, (label, kind, fraction)| {
            let adv = Trauma::new(params.clone(), kind, fraction, 2 * epoch);
            let mut spec = JobSpec::new(99, 2 + post_epochs).record_epoch_ends(&params);
            spec.budget = usize::MAX;
            let run = run_protocol(&params, adv, spec, exec.threads);
            (label, run.metrics.epoch_end_populations(epoch))
        });
    for (label, pops) in outcomes {
        let wounded = pops[2] as f64;
        let rate = exact_epoch_drift(&params, wounded, 1.0);

        println!("{label}: wounded to {wounded:.0}, model drift there = {rate:+.1}/epoch");
        let mut table = Table::new(["epoch", "population", "deficit vs m°"]);
        let stride = (post_epochs / 10).max(1) as usize;
        for (e, p) in pops.iter().enumerate() {
            if e >= 2 && (e - 2) % stride == 0 {
                table.row([e.to_string(), p.to_string(), fmt_f64(*p as f64 - m_eq, 0)]);
            }
        }
        println!("{table}");
        let final_pop = *pops.last().unwrap() as f64;
        let recovered_frac = (final_pop - wounded) / (m_eq - wounded);
        println!(
            "recovered {:.0}% of the deficit in {post_epochs} epochs \
             (model time constant ≈ {:.0} epochs)\n",
            100.0 * recovered_frac.clamp(-1.0, 2.0),
            popstab_analysis::equilibrium::time_constant_epochs(&params, 1.0)
        );
    }
    println!("Shape check: both shocks heal monotonically toward m°; healing is gradual —");
    println!("the paper's guarantee is prevention (small per-round K), not instant repair.\n");
}
