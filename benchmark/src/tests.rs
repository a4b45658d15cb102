//! The traced run must measure the untraced program: these tests pin the
//! wrappers' forwarding, the engine's load/store behaviour under them, the
//! matching replay, and the trajectories against the pinned references.

use std::time::Duration;

use popstab_adversary::Churn;
use popstab_core::protocol::PopulationStability;
use popstab_sim::{Adversary, MetricsRecorder, NoOpAdversary, Observer, RecordStats, Threads};

use crate::digest::Reference;
use crate::trace::{RoundClock, RoundLog, TimedAdversary};
use crate::workload::{
    find, replay_matching, shards, with_arms, Pass, ReferenceRun, Rep, Replay, Workload,
    DEFAULT_SEED, MAX_THREADS, WORKLOADS,
};
use crate::{check_residency, Check};

/// `name`'s workload, shortened to `rounds` rounds per job.
fn short(name: &str, rounds: u64) -> Workload {
    let w = find(name).expect("workload exists");
    Workload { rounds, ..*w }
}

fn reference(w: &Workload, seed: u64) -> Reference {
    with_arms(w, false, ReferenceRun { w, seed })
}

/// One rep, traced or not, under `threads`.
fn one_rep(w: &Workload, seed: u64, reference: &Reference, threads: Threads, traced: bool) -> Rep {
    let mut reps = with_arms(
        w,
        traced,
        Pass {
            w,
            seed,
            threads,
            budget: Duration::ZERO,
            min_reps: 1,
            min_rounds: 0,
            traced,
            reference,
        },
    );
    assert_eq!(reps.len(), 1);
    reps.pop().expect("one rep")
}

#[test]
fn wrappers_forward_the_fast_path_declarations() {
    let params = find("churn-sweep").expect("workload exists").params();
    let noop = TimedAdversary(NoOpAdversary);
    let churn = TimedAdversary(Churn::new(params, 8));
    assert!(Adversary::<popstab_core::state::AgentState>::is_noop(&noop));
    assert!(!churn.is_noop());
    assert_eq!(churn.name(), "churn");

    let mut log = RoundLog::default();
    let clock = RoundClock {
        log: &mut log,
        inner: (),
    };
    assert!(!Observer::<PopulationStability>::needs_engine_state(&clock));
    let mut rec = MetricsRecorder::new();
    let clock = RoundClock {
        log: &mut log,
        inner: RecordStats::new(&mut rec),
    };
    assert!(Observer::<PopulationStability>::needs_engine_state(&clock));
}

#[test]
fn traced_runs_take_the_untraced_load_store_path() {
    for (name, rounds) in [
        ("large-clean-sharded", 3),
        ("recorded-checkpointed", 32),
        ("churn-sweep", 4),
    ] {
        let w = short(name, rounds);
        let reference = reference(&w, 5);
        let rep = one_rep(&w, 5, &reference, w.threads, true);
        let mut check = Check::default();
        check_residency(&w, std::slice::from_ref(&rep), &mut check);
        assert!(check.problems.is_empty(), "{name}: {:?}", check.problems);
        assert_eq!(rep.spans.len(), w.jobs, "{name}: one span list per job");
    }
}

#[test]
fn no_pass_keeps_more_threads_busy_than_the_budget() {
    for w in &WORKLOADS {
        for threads in [w.threads, w.other_threads()] {
            let busy = w.workers(threads) * shards(threads);
            assert!(
                busy <= MAX_THREADS,
                "{} {threads:?}: {busy} threads",
                w.name
            );
        }
    }
    // The churn sweep's two jobs share the batch when serial and run one
    // after another when each job shards its rounds.
    let w = short("churn-sweep", 2);
    let reference = reference(&w, 4);
    let serial = one_rep(&w, 4, &reference, Threads::Serial, false);
    assert_eq!(serial.workers, 2);
    let sharded = one_rep(&w, 4, &reference, Threads::Sharded(2), true);
    assert_eq!(sharded.workers, 1);
    let [first, second] = sharded.jobs[..] else {
        panic!("two jobs")
    };
    assert!(first.end <= second.start, "sharded jobs overlapped");
}

#[test]
fn every_path_reproduces_the_scalar_reference() {
    for (name, rounds) in [
        ("large-clean-sharded", 3),
        ("recorded-checkpointed", 32),
        ("churn-sweep", 6),
    ] {
        let w = short(name, rounds);
        let reference = reference(&w, 11);
        for threads in [Threads::Serial, Threads::Sharded(2)] {
            for traced in [false, true] {
                let rep = one_rep(&w, 11, &reference, threads, traced);
                assert_eq!(rep.failed, 0, "{name} {threads:?} traced={traced}");
                assert_eq!(rep.attempted, w.jobs as u64 * rounds);
                assert_eq!(
                    rep.digest, reference.digest,
                    "{name} {threads:?} traced={traced}"
                );
                assert!(rep.recorded_ok);
            }
        }
    }
}

#[test]
fn matching_replay_reproduces_every_round() {
    for (name, rounds) in [
        ("large-clean-sharded", 2),
        ("recorded-checkpointed", 17),
        ("churn-sweep", 4),
    ] {
        let w = short(name, rounds);
        let reference = reference(&w, 3);
        let rep = one_rep(&w, 3, &reference, w.threads, false);
        let mut replay = Replay::default();
        replay_matching(&w, 3, &rep.reports, &mut replay);
        assert_eq!(replay.rounds, w.jobs as u64 * rounds, "{name}");
        assert_eq!(replay.mismatches, 0, "{name}");
        assert!(replay.matched > 0, "{name}");
    }
}

#[test]
fn default_seeds_reproduce_the_pinned_digests() {
    for w in &crate::workload::WORKLOADS {
        let reference = reference(w, DEFAULT_SEED);
        assert_eq!(
            reference.digest, w.pinned_digest,
            "{}: re-pin only with a stream-version bump",
            w.name
        );
        assert!(reference
            .rounds
            .iter()
            .all(|job| job.len() as u64 == w.rounds));
    }
}

#[test]
fn no_churn_job_halts_on_the_first_seeds() {
    let w = find("churn-sweep").expect("workload exists");
    for seed in 0..3 {
        let reference = reference(w, seed);
        for (j, job) in reference.rounds.iter().enumerate() {
            assert_eq!(job.len() as u64, w.rounds, "seed {seed} job {j} halted");
        }
    }
}

#[test]
fn a_wrong_round_is_counted_and_fails_the_digest() {
    let w = short("churn-sweep", 6);
    let reference = reference(&w, 1);
    let mut rep = one_rep(&w, 1, &reference, w.threads, false);
    rep.reports[1][4].deaths += 1;
    assert_eq!(reference.failed_rounds(1, &rep.reports[1], w.rounds), 1);
    assert_ne!(
        crate::digest::digest(rep.reports.iter().map(Vec::as_slice)),
        reference.digest
    );
}
