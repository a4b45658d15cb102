//! Facade-level properties of the fault-tolerance layer:
//!
//! * a run that crashes, recovers from the newest valid checkpoint and
//!   finishes is bit-identical to a run that never crashed, for random
//!   `(seed, rounds, crash point, checkpoint cadence, workers)` — serial
//!   and sharded alike,
//! * malformed snapshot bytes — truncated at every boundary, any single
//!   bit flipped, foreign format versions — always decode to `Err`,
//!   never a panic,
//! * recovery scans skip corrupted checkpoints and fall back to the
//!   newest one that still verifies.
//!
//! As in `snapshot_resume.rs`, the protocol is defined against the public
//! facade surface, exactly as a downstream crate would.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use population_stability::prelude::*;
use population_stability::sim::snapshot::{write_u64, write_u8, SnapshotReader};
use population_stability::sim::RoundReport;

/// Seed-dependent splits/deaths plus a per-agent payload the byte format
/// must round-trip exactly (see `snapshot_resume.rs`).
#[derive(Debug, Clone)]
struct Drift;

#[derive(Debug, Clone, PartialEq)]
struct DriftState {
    age: u64,
    lineage: u8,
}

impl Observable for DriftState {
    fn observe(&self) -> Observation {
        Observation::default()
    }
}

impl Protocol for Drift {
    type State = DriftState;
    type Message = ();
    fn initial_state(&self, _rng: &mut SimRng) -> DriftState {
        DriftState { age: 0, lineage: 0 }
    }
    fn message(&self, _s: &DriftState) {}
    fn step(&self, s: &mut DriftState, m: Option<&()>, rng: &mut SimRng) -> Action {
        use rand::Rng;
        s.age += 1;
        if m.is_some() {
            match rng.random_range(0..10u8) {
                0 => {
                    s.lineage = s.lineage.wrapping_add(1);
                    Action::Split
                }
                1 => Action::Die,
                _ => Action::Continue,
            }
        } else {
            Action::Continue
        }
    }
}

impl SnapshotState for DriftState {
    fn state_tag() -> String {
        "fault-drift-test".to_string()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.age);
        write_u8(out, self.lineage);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DriftState {
            age: r.u64()?,
            lineage: r.u8()?,
        })
    }
}

/// Deletes/inserts within budget off the *sequential* adversary stream,
/// so a correct recovery also has to reposition that stream exactly.
struct Chaos;

impl Adversary<DriftState> for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn act(
        &mut self,
        ctx: &RoundContext,
        agents: &[DriftState],
        rng: &mut SimRng,
    ) -> Vec<Alteration<DriftState>> {
        use rand::Rng;
        (0..ctx.budget)
            .map(|_| {
                if rng.random::<bool>() && !agents.is_empty() {
                    Alteration::Delete(rng.random_range(0..agents.len()))
                } else {
                    Alteration::Insert(DriftState {
                        age: 0,
                        lineage: u8::MAX,
                    })
                }
            })
            .collect()
    }
}

fn engine(seed: u64, start: usize, budget: usize) -> Engine<Drift, Chaos> {
    let cfg = SimConfig::builder()
        .seed(seed)
        .adversary_budget(budget)
        .matching(MatchingModel::RandomFraction { min_gamma: 0.4 })
        .build()
        .unwrap();
    Engine::with_adversary(Drift, Chaos, cfg, start)
}

fn trace(engine: &mut Engine<Drift, Chaos>, rounds: u64, threads: Threads) -> Vec<RoundReport> {
    let mut out = Vec::new();
    engine.run(
        RunSpec::rounds(rounds).threads(threads),
        &mut OnRound(|r: &RoundReport| out.push(*r)),
    );
    out
}

/// A checkpoint rotation base unique to one test case, under the
/// cargo-managed scratch dir (a compile-time path: no ambient env reads).
fn tmp_base(label: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(label)
}

/// Removes every rotation slot so a re-run never scans stale files.
fn clean_slots(base: &Path, keep: usize) {
    for slot in 0..keep {
        let _ = std::fs::remove_file(Checkpoint::slot_path(base, slot));
    }
}

proptest! {
    /// The headline invariant: crash mid-run, recover from the newest
    /// valid checkpoint, finish — the stitched trajectory equals the
    /// uninterrupted one report-for-report, under both drivers.
    #[test]
    fn crash_recovery_is_bit_identical(
        seed in 0u64..200,
        start in 8usize..80,
        r in 4u64..14,
        every in 1u64..6,
        crash_sel in 0u64..1000,
        workers in 2usize..5,
    ) {
        let total = 2 * r;
        let crash_at = 1 + crash_sel % (total - 1);
        for threads in [Threads::Serial, Threads::Sharded(workers)] {
            let sharded = matches!(threads, Threads::Sharded(_));
            let base = tmp_base(&format!(
                "ck-{seed}-{start}-{r}-{every}-{crash_at}-{workers}-{sharded}"
            ));
            clean_slots(&base, 3);

            let mut straight = engine(seed, start, 2);
            let full = trace(&mut straight, total, threads);

            // The doomed run: checkpoint every `every` rounds, then stop
            // cold after `crash_at` rounds — nothing after the last
            // checkpoint survives, exactly like a killed process.
            let mut doomed = engine(seed, start, 2);
            let mut ck = Checkpoint::every(every, &base).keep(3);
            doomed.run(
                RunSpec::rounds(crash_at).threads(threads),
                &mut Tee(&mut ck, ()),
            );
            prop_assert!(ck.errors().is_empty(), "checkpoint writes failed");

            // Recovery: newest valid checkpoint, or from scratch when the
            // crash predates the first checkpoint.
            let scan = Checkpoint::scan(&base, 3);
            prop_assert!(scan.skipped.is_empty(), "uncorrupted slots were skipped");
            let (mut resumed, from) = match scan.best {
                Some((_, snap)) => {
                    let from = snap.round();
                    let engine = Engine::restore(Drift, Chaos, &snap)
                        .expect("a checkpoint written by this run restores");
                    (engine, from)
                }
                None => (engine(seed, start, 2), 0),
            };
            let executed = full.len() as u64;
            if crash_at.min(executed) >= every {
                prop_assert!(from > 0, "a checkpoint was due before the crash");
            }
            let tail = trace(&mut resumed, total - from, threads);
            prop_assert_eq!(&tail[..], &full[from as usize..]);
            prop_assert_eq!(resumed.population(), straight.population());
            prop_assert_eq!(resumed.halted(), straight.halted());
            clean_slots(&base, 3);
        }
    }
}

#[test]
fn malformed_snapshots_always_err_and_never_panic() {
    let mut prefix = engine(11, 24, 1);
    trace(&mut prefix, 6, Threads::Serial);
    let bytes = prefix.snapshot().to_bytes();

    // Truncation at every possible boundary.
    for cut in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
    // Every single-bit flip over the whole buffer.
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut dirty = bytes.clone();
            dirty[i] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&dirty).is_err(),
                "bit flip at byte {i} bit {bit} was accepted"
            );
        }
    }
    // Foreign format versions report as such (the version field sits right
    // after the 8-byte magic, before the checksum is consulted).
    let mut foreign = bytes.clone();
    foreign[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&foreign),
        Err(SnapshotError::UnsupportedVersion { found: 99 })
    ));
}

#[test]
fn recovery_scan_skips_corrupt_checkpoints_and_falls_back() {
    let base = tmp_base("fallback-scan");
    clean_slots(&base, 3);
    let mut e = engine(5, 40, 2);
    let mut ck = Checkpoint::every(5, &base).keep(3);
    e.run(RunSpec::rounds(17), &mut Tee(&mut ck, ()));
    assert_eq!(ck.written(), 3); // rounds 5, 10, 15

    let scan = Checkpoint::scan(&base, 3);
    assert!(scan.skipped.is_empty());
    let (newest, snap) = scan.best.expect("three checkpoints on disk");
    assert_eq!(snap.round(), 15);

    // Corrupt the newest checkpoint: the scan must report it and fall
    // back to round 10, which restores and matches the original engine's
    // history (bit-identical recovery is pinned by the proptest above).
    let mut dirty = std::fs::read(&newest).unwrap();
    let mid = dirty.len() / 2;
    dirty[mid] ^= 1;
    std::fs::write(&newest, &dirty).unwrap();

    let scan = Checkpoint::scan(&base, 3);
    assert_eq!(scan.skipped.len(), 1);
    assert_eq!(scan.skipped[0].0, newest);
    let (_, snap) = scan.best.expect("older checkpoints remain valid");
    assert_eq!(snap.round(), 10);
    let resumed = Engine::restore(Drift, Chaos, &snap).expect("fallback restores");
    assert_eq!(resumed.round(), 10);
    clean_slots(&base, 3);
}
