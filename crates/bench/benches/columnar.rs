//! Criterion micro-benchmarks for the struct-of-arrays hot path: the
//! lane-batched coin kernel against its scalar twin, and full engine
//! rounds on the columnar step path against the scalar `Protocol::step`
//! loop (selected with `Engine::set_columnar(false)`; every other engine
//! runs the columnar path), at the two scales where the layout starts to
//! matter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use popstab_core::params::Params;
use popstab_core::protocol::PopulationStability;
use popstab_sim::rng::{biased_coin, biased_coin_x8, round_key, slot_key_x8, slot_rng, LANES};
use popstab_sim::{Engine, RunSpec, SimConfig};

const SLOTS: u64 = 65_536;

fn bench_biased_coin(c: &mut Criterion) {
    // One epoch-style sweep: a biased coin for every slot of a 64k round.
    // The scalar side pays per-slot stream construction plus one finalizer
    // per draw; the `_x8` side derives eight slot keys per call and packs
    // the verdicts into a bit mask — the kernel the columnar word loops
    // consume. Same draws, same verdicts, measured per slot. At one draw
    // per coin the two forms do identical finalizer work, so on baseline
    // (non-AVX) codegen they bench close together: the `_x8` form's win
    // shows up downstream, where its packed mask feeds the word-level
    // columnar kernels without per-lane re-derivation (the `step_path`
    // group below measures that end to end).
    let mut group = c.benchmark_group("biased_coin");
    group.throughput(Throughput::Elements(SLOTS));
    let exp = 6u32;
    group.bench_function("scalar_64k", |b| {
        b.iter(|| {
            let rkey = round_key(9, 3);
            let mut heads = 0u64;
            for slot in 0..SLOTS {
                heads += u64::from(biased_coin(exp, &mut slot_rng(rkey, slot)));
            }
            heads
        })
    });
    group.bench_function("x8_64k", |b| {
        b.iter(|| {
            let rkey = round_key(9, 3);
            let mut heads = 0u64;
            for base in (0..SLOTS).step_by(LANES) {
                let keys = slot_key_x8(rkey, base);
                heads += u64::from(biased_coin_x8(exp, &keys).count_ones());
            }
            heads
        })
    });
    group.finish();
}

fn engine_at(n: u64, columnar: bool) -> Engine<PopulationStability> {
    let params = Params::for_target(n).expect("bench scale is a power of four");
    let cfg = SimConfig::builder().seed(5).target(n).build().unwrap();
    let mut engine = Engine::with_population(PopulationStability::new(params), cfg, n as usize);
    engine.set_columnar(columnar);
    engine
}

fn bench_step_paths(c: &mut Criterion) {
    // Whole engine rounds (matching + step + apply) through the driver's
    // recording-free fast path, scalar vs columnar, bit-identical
    // trajectories. Throughput is agent-rounds, so the two rows are
    // directly comparable per scale.
    let mut group = c.benchmark_group("step_path");
    group.sample_size(10);
    for n in [16_384u64, 65_536] {
        let rounds = if n == 16_384 { 40 } else { 10 };
        group.throughput(Throughput::Elements(n * rounds));
        let mut engine = engine_at(n, false);
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
        });
        let mut engine = engine_at(n, true);
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(|| engine.run(RunSpec::rounds(rounds), &mut ()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_biased_coin, bench_step_paths);
criterion_main!(benches);
