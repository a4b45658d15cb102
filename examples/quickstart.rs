//! Quickstart: run the population stability protocol for a few epochs and
//! watch the population hold its equilibrium.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use population_stability::prelude::*;
use population_stability::sim::{MetricsRecorder, RecordStats, RunSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = 4096;
    let params = Params::for_target(n)?;
    let epoch = u64::from(params.epoch_len());
    let m_star = equilibrium_population(&params);

    println!("population stability protocol, N = {n}");
    println!("  epoch length        T = {epoch} rounds");
    println!(
        "  Pr[leader]            = 1/{}",
        (1.0 / params.leader_probability()).round()
    );
    println!(
        "  Pr[split | same color] = {:.4}",
        params.split_probability()
    );
    println!("  predicted equilibrium m* = N − 8·√N = {m_star}");
    println!();

    let protocol = PopulationStability::new(params.clone());
    let cfg = SimConfig::builder().seed(2024).target(n).build()?;
    let mut engine = Engine::with_population(protocol, cfg, n as usize);

    // Metrics live with the caller: a RecordStats observer fills this
    // recorder while the driver runs.
    let mut rec = MetricsRecorder::new();
    println!("epoch  population  active   c0     c1   |c0-c1|");
    for e in 0..10 {
        engine.run(RunSpec::rounds(epoch - 1), &mut RecordStats::new(&mut rec));
        // Peek at the coloring right before the evaluation round.
        let pre_eval = rec.last().copied().unwrap_or_default();
        engine.run(RunSpec::rounds(1), &mut RecordStats::new(&mut rec));
        println!(
            "{:>5}  {:>10}  {:>6}  {:>5}  {:>5}  {:>6}",
            e,
            engine.population(),
            pre_eval.active,
            pre_eval.color0,
            pre_eval.color1,
            (pre_eval.color0 as i64 - pre_eval.color1 as i64).abs()
        );
    }

    let (lo, hi) = rec.population_range().expect("metrics recorded");
    println!();
    println!(
        "population range over {} rounds: [{lo}, {hi}]",
        engine.round()
    );
    println!(
        "max per-epoch deviation: {} (Õ(√N) = {} per Lemma 7)",
        rec.max_epoch_deviation(epoch).unwrap_or(0),
        params.sqrt_n()
    );
    Ok(())
}
