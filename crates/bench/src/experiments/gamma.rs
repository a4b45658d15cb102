//! **F5 — Robustness in the matching fraction γ.**
//!
//! The model guarantees only that *at least* a γ fraction of agents is
//! matched each round. Both the drift and the noise scale with γ, so the
//! equilibrium is γ-invariant while convergence slows; recruitment still
//! completes because `T_inner = log²N = ω(log N / γ)` for constant γ.

use popstab_analysis::equilibrium::exact_equilibrium;
use popstab_analysis::report::{fmt_f64, fmt_pass, Table};
use popstab_core::params::Params;
use popstab_sim::MatchingModel;

use crate::{run_clean, Exec, JobSpec};

/// Runs the experiment and prints its table.
pub fn run(exec: &Exec) {
    let n: u64 = 1024;
    let params = Params::for_target(n).unwrap();
    let epochs: u64 = if exec.quick { 15 } else { 40 };
    println!("F5: matching-fraction sweep at N = {n}, {epochs} epochs\n");
    let mut table = Table::new(["gamma", "model", "min", "max", "final", "m°(γ)", "in band"]);
    // One independent simulation per matching model: the sweep runs as one
    // batch (`--jobs` controls the worker count; rows are identical for
    // any value).
    let models = vec![
        MatchingModel::ExactFraction(0.25),
        MatchingModel::ExactFraction(0.5),
        MatchingModel::RandomFraction { min_gamma: 0.5 },
        MatchingModel::Full,
    ];
    let rows = exec.runner.run(models, |_, model| {
        let mut spec = JobSpec::new(88, epochs);
        spec.matching = model;
        let run = run_clean(&params, spec, exec.threads);
        let (lo, hi) = run.population_range().unwrap();
        (model, lo, hi, run.population())
    });
    for (model, lo, hi, final_pop) in rows {
        let gamma = model.gamma();
        let m_eq = exact_equilibrium(&params, gamma);
        let in_band = lo as f64 >= 0.5 * m_eq && (hi as f64) <= (1.6 * m_eq).max(1.25 * n as f64);
        table.row([
            fmt_f64(gamma, 2),
            format!("{model:?}"),
            lo.to_string(),
            hi.to_string(),
            final_pop.to_string(),
            fmt_f64(m_eq, 0),
            fmt_pass(in_band),
        ]);
    }
    println!("{table}");
    println!("Shape check: the equilibrium is γ-invariant; smaller γ only slows convergence.\n");
}
