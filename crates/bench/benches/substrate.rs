//! Criterion micro-benchmarks for the simulation substrate: matching
//! sampling (serial and pool-sharded), the engine's fused partner-table
//! builder against sample-then-scatter, counter-output agent RNG, metrics
//! observation, the estimator, the snapshot codec, and the engine
//! execution paths the `experiments` binary actually drives
//! ([`Engine::run`] serial and sharded, [`BatchRunner`]) — the benches
//! exercise the same code paths as the figures, not a bespoke serial loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use popstab_analysis::estimator::VarianceEstimator;
use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_core::state::AgentState;
use popstab_sim::batch::{job_seed, ShardPool};
use popstab_sim::matching::{
    sample_matching, sample_matching_into, sample_matching_into_par, sample_partners_into,
    Matching, MatchingModel,
};
use popstab_sim::protocols::Inert;
use popstab_sim::rng::counter_seed;
use popstab_sim::snapshot::seal;
use popstab_sim::{BatchRunner, Engine, RoundStats, RunSpec, SimConfig, Snapshot};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for m in [1024usize, 16384, 262_144] {
        group.throughput(Throughput::Elements(m as u64));
        let mut out = Matching::default();
        let mut scratch = Vec::new();
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("full", m), &m, |b, &m| {
            b.iter(|| {
                round += 1;
                sample_matching_into(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::Full,
                    counter_seed(1, round, 0),
                );
                out.len()
            })
        });
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("quarter", m), &m, |b, &m| {
            b.iter(|| {
                round += 1;
                sample_matching_into(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::ExactFraction(0.25),
                    counter_seed(2, round, 0),
                );
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_matching_par(c: &mut Criterion) {
    // The pool-sharded sampler at the largest scale, on every core the
    // host offers — the configuration a sharded `Engine::run` uses. On a
    // single-core host this measures the dispatch overhead over the serial
    // sampler above.
    let m = 262_144usize;
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("matching_par");
    group.throughput(Throughput::Elements(m as u64));
    let mut out = Matching::default();
    let mut scratch = Vec::new();
    let mut round = 0u64;
    group.bench_function(BenchmarkId::new(format!("full_{shards}shards"), m), |b| {
        ShardPool::with(shards, |pool| {
            b.iter(|| {
                round += 1;
                sample_matching_into_par(
                    &mut out,
                    &mut scratch,
                    m,
                    MatchingModel::Full,
                    counter_seed(3, round, 0),
                    pool,
                );
                out.len()
            })
        })
    });
    group.finish();
}

fn bench_partner_table(c: &mut Criterion) {
    let m = 16384usize;
    let matching = sample_matching(m, MatchingModel::Full, counter_seed(4, 0, 0));
    c.bench_function("partner_table_16k", |b| {
        b.iter(|| matching.partner_table(m))
    });
}

fn bench_partner_table_fused(c: &mut Criterion) {
    // The engine's one-pass partner-table builder against the reference
    // it replaced (sample the pairs, then scatter them serially), at the
    // keyed-permutation threshold and at 2^20, serial and on a 2-shard
    // pool: the ratio of each `fused` line to its `sample_then_scatter`
    // twin is the per-round saving.
    let mut group = c.benchmark_group("matching/partner_table_fused");
    for m in [1usize << 16, 1 << 20] {
        group.throughput(Throughput::Elements(m as u64));
        let mut out = Matching::default();
        let mut shuffle = Vec::new();
        let mut partners = Vec::new();
        let mut round = 0u64;
        for (label, shards) in [("serial", 1), ("2shards", 2)] {
            ShardPool::with(shards, |pool| {
                let id = BenchmarkId::new(format!("sample_then_scatter_{label}"), m);
                group.bench_with_input(id, &m, |b, &m| {
                    b.iter(|| {
                        round += 1;
                        let key = counter_seed(5, round, 0);
                        match pool.shards() {
                            1 => sample_matching_into(
                                &mut out,
                                &mut shuffle,
                                m,
                                MatchingModel::Full,
                                key,
                            ),
                            _ => sample_matching_into_par(
                                &mut out,
                                &mut shuffle,
                                m,
                                MatchingModel::Full,
                                key,
                                pool,
                            ),
                        }
                        out.partner_table_into(&mut partners, m);
                        out.matched_agents()
                    })
                });
                let id = BenchmarkId::new(format!("fused_{label}"), m);
                group.bench_with_input(id, &m, |b, &m| {
                    b.iter(|| {
                        round += 1;
                        let key = counter_seed(5, round, 0);
                        sample_partners_into(
                            &mut partners,
                            &mut shuffle,
                            m,
                            MatchingModel::Full,
                            key,
                            pool,
                        )
                    })
                });
            });
        }
    }
    group.finish();
}

fn bench_counter_rng(c: &mut Criterion) {
    // Cost of constructing + drawing one value from the per-agent counter
    // stream for every slot of a 64k-agent round (the step phase's fixed
    // per-agent RNG overhead; since stream v3 construction is free and
    // each draw is one finalizer).
    use rand::Rng;
    c.bench_function("counter_rng_64k_slots", |b| {
        b.iter(|| {
            let rkey = popstab_sim::rng::round_key(1, 7);
            let mut acc = 0u64;
            for slot in 0..65_536u64 {
                acc ^= popstab_sim::rng::slot_rng(rkey, slot).random::<u64>();
            }
            acc
        })
    });
}

fn inert_engine(n: usize, seed: u64) -> Engine<Inert> {
    let cfg = SimConfig::builder().seed(seed).build().unwrap();
    Engine::with_population(Inert, cfg, n)
}

fn bench_engine_paths(c: &mut Criterion) {
    // The three execution paths the `experiments` binary drives, on the
    // substrate alone (Inert protocol — pure engine overhead, no protocol
    // logic): the recording-free serial fast path, the intra-round sharded
    // path, and a BatchRunner fan-out of independent engines.
    let n = 16384usize;
    let rounds = 20u64;
    let mut group = c.benchmark_group("engine_paths");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64 * rounds));

    let mut engine = inert_engine(n, 1);
    group.bench_function("run_serial_16k", |b| {
        b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
    });

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut engine = inert_engine(n, 2);
    group.bench_function(format!("run_sharded_16k_{threads}t"), |b| {
        b.iter(|| engine.run(RunSpec::rounds(rounds).sharded(threads), &mut ()))
    });

    let jobs = 4u64;
    let runner = BatchRunner::default();
    group.bench_function(format!("batch_runner_16k_{jobs}jobs"), |b| {
        b.iter(|| {
            let engines: Vec<_> = (0..jobs).map(|j| inert_engine(n, job_seed(3, j))).collect();
            runner
                .run(engines, |_, mut e| {
                    e.run(RunSpec::rounds(rounds), &mut ());
                    e.population()
                })
                .len()
        })
    });
    group.finish();
}

fn bench_snapshot_codec(c: &mut Criterion) {
    // The checkpoint codec at 2^20 agents: the trailer checksum alone over
    // a snapshot-sized buffer, then the whole encode (which seals) and
    // decode (which verifies the seal before parsing) of a
    // PopulationStability snapshot.
    let mut group = c.benchmark_group("snapshot/codec");
    group.sample_size(10);
    let buf: Vec<u8> = (0..24u32 << 20)
        .map(|i| i.wrapping_mul(0x9E37) as u8)
        .collect();
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("seal_24MiB", |b| b.iter(|| seal(&buf)));

    let n = 1u64 << 20;
    let params = Params::for_target(n).expect("bench scale is a power of four");
    let cfg = SimConfig::builder().seed(6).target(n).build().unwrap();
    let engine = Engine::with_population(PopulationStability::new(params), cfg, n as usize);
    let snap = engine.snapshot();
    let bytes = snap.to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("to_bytes_1M_agents", |b| b.iter(|| snap.to_bytes().len()));
    group.bench_function("from_bytes_1M_agents", |b| {
        b.iter(|| Snapshot::from_bytes(&bytes).unwrap().population())
    });
    group.finish();
}

fn bench_observe(c: &mut Criterion) {
    let params = Params::for_target(4096).unwrap();
    let agents: Vec<AgentState> = (0..4096)
        .map(|i| {
            if i % 8 == 0 {
                AgentState::active_at(&params, 5, popstab_core::state::Color::One)
            } else {
                AgentState::fresh(&params)
            }
        })
        .collect();
    c.bench_function("round_stats_observe_4k", |b| {
        b.iter(|| RoundStats::observe(0, &agents))
    });
}

fn bench_estimator(c: &mut Criterion) {
    let params = Params::for_target(4096).unwrap();
    c.bench_function("variance_estimator_100_epochs", |b| {
        b.iter(|| {
            let mut est = VarianceEstimator::new(&params);
            for i in 0..100u64 {
                est.push_counts(250 + (i % 17) as usize, 250);
            }
            est.estimate()
        })
    });
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_par,
    bench_partner_table,
    bench_partner_table_fused,
    bench_counter_rng,
    bench_engine_paths,
    bench_snapshot_codec,
    bench_observe,
    bench_estimator
);
criterion_main!(benches);
