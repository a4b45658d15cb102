//! **F2 — Stability under the full attack suite** (Theorem 1).
//!
//! Every attack strategy from `popstab-adversary`, metered to `k`
//! alterations per epoch (the scale-faithful translation of the paper's
//! per-round budget; see `popstab_adversary::throttle`), runs for many
//! epochs; the population must stay within the operating band.

use popstab_adversary::throttled_suite;
use popstab_analysis::equilibrium::exact_equilibrium;
use popstab_analysis::report::{fmt_f64, fmt_pass, Table};
use popstab_core::params::Params;

use crate::{run_protocol, Exec, JobSpec};

/// Runs the experiment and prints its table.
pub fn run(exec: &Exec) {
    let ns: &[u64] = if exec.quick { &[1024] } else { &[1024, 4096] };
    let epochs: u64 = if exec.quick { 10 } else { 25 };

    for &n in ns {
        let params = Params::for_target(n).unwrap();
        let m_eq = exact_equilibrium(&params, 1.0);
        // Budget: half the per-epoch absorption floor (max of the exact
        // drift model), floored at 1.
        let (_, capacity) = popstab_analysis::equilibrium::max_exact_drift(&params, 1.0);
        let k = ((capacity / 2.0).floor() as usize).max(1);
        // The run starts at N, above the finite-N equilibrium m°, so the
        // ceiling must cover the start plus wander: [0.5·m°, max(1.6·m°, 1.25·N)].
        let floor = 0.5 * m_eq;
        let ceiling = (1.6 * m_eq).max(1.25 * n as f64);
        println!(
            "F2: attack suite at N = {n}, {epochs} epochs, budget {k}/epoch \
             (absorption capacity ≈ {capacity:.1}/epoch), band [{floor:.0}, {ceiling:.0}]\n"
        );
        let mut table = Table::new(["adversary", "min", "max", "final", "m°", "in band"]);
        // One independent simulation per attack strategy: run the suite as
        // one batch. The boxed adversaries are rebuilt inside each job (by
        // suite index) so the jobs own their adversary.
        let suite_len = throttled_suite(&params, k).len();
        let rows = exec.runner.run((0..suite_len).collect(), |_, idx| {
            let adversary = throttled_suite(&params, k)
                .into_iter()
                .nth(idx)
                .expect("suite index in range");
            let name = adversary.name();
            let mut spec = JobSpec::new(1234, epochs);
            spec.budget = k;
            let run = run_protocol(&params, adversary, spec, exec.threads);
            let (lo, hi) = run.population_range().unwrap();
            (name, lo, hi, run.population())
        });
        for (name, lo, hi, final_pop) in rows {
            let in_band = lo as f64 >= floor && (hi as f64) <= ceiling;
            table.row([
                name.to_string(),
                lo.to_string(),
                hi.to_string(),
                final_pop.to_string(),
                fmt_f64(m_eq, 0),
                fmt_pass(in_band),
            ]);
        }
        println!("{table}");
    }
}
