//! **T1 — Stability with no adversary** (Theorem 1, adversary-free case).
//!
//! Claim: the population remains within a constant factor of the target for
//! any polynomial number of rounds, and per-epoch deviations are `Õ(√N)`
//! (Lemma 7). At simulation scale the operating point is the exact
//! finite-N equilibrium `m°` (≈ 0.8·m* here, see the `equilibrium`
//! experiment); we report the trajectory envelope relative to `m°`.

use popstab_analysis::equilibrium::exact_equilibrium;
use popstab_analysis::report::{fmt_f64, fmt_pass, Table};
use popstab_core::params::Params;

use crate::{run_clean, Exec, JobSpec};

/// Runs the experiment and prints its table.
pub fn run(exec: &Exec) {
    let ns: &[u64] = if exec.quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16384]
    };
    let seeds: u64 = if exec.quick { 2 } else { 4 };
    let epochs: u64 = if exec.quick { 15 } else { 40 };

    println!("T1: stability with no adversary ({epochs} epochs, {seeds} seeds)");
    println!("    band: [0.6·m°, 1.4·max(m°, N)] where m° is the exact finite-N equilibrium\n");
    let mut table = Table::new([
        "N",
        "seed",
        "m*",
        "m_exact",
        "min",
        "max",
        "final",
        "max|Δ|/epoch",
        "√N·logN",
        "in band",
    ]);
    // The full (N, seed) grid runs as one batch (`--jobs` controls the
    // worker count; the rows are identical for any value).
    let grid: Vec<(u64, u64)> = ns
        .iter()
        .flat_map(|&n| (0..seeds).map(move |seed| (n, seed)))
        .collect();
    let rows = exec.runner.run(grid, |_, (n, seed)| {
        let params = Params::for_target(n).unwrap();
        let epoch = u64::from(params.epoch_len());
        let m_star = n as f64 - 8.0 * params.sqrt_n() as f64;
        let m_eq = exact_equilibrium(&params, 1.0);
        let run = run_clean(&params, JobSpec::new(seed * 1031 + 7, epochs), exec.threads);
        let (lo, hi) = run.population_range().unwrap();
        let max_dev = run.metrics.max_epoch_deviation(epoch).unwrap_or(0);
        let in_band = lo as f64 >= 0.6 * m_eq && (hi as f64) <= 1.4 * m_eq.max(n as f64);
        [
            n.to_string(),
            seed.to_string(),
            fmt_f64(m_star, 0),
            fmt_f64(m_eq, 0),
            lo.to_string(),
            hi.to_string(),
            run.population().to_string(),
            max_dev.to_string(),
            fmt_f64(params.sqrt_n() as f64 * f64::from(params.log2_n()), 0),
            fmt_pass(in_band),
        ]
    });
    for row in rows {
        table.row(row);
    }
    println!("{table}");
}
