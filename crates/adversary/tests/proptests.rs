//! Property-based tests for the attack library: every strategy emits only
//! well-formed alterations, and the throttle gate is exact.

use proptest::prelude::*;

use popstab_adversary::{
    Churn, ClusterPoisoner, ColorFlooder, DesyncInserter, DeviationAmplifier, LeaderSniper,
    ObliviousDeleter, RandomDeleter, RandomInserter, Throttle,
};
use popstab_core::params::Params;
use popstab_core::state::{AgentState, Color};
use popstab_sim::metrics::DENSE_ROUND_CAP;
use popstab_sim::rng::rng_from_seed;
use popstab_sim::{Adversary, Alteration, RoundContext};

fn params() -> Params {
    Params::for_target(1024).unwrap()
}

/// A mixed population: idle agents, actives of both colors, some leaders.
fn arb_population() -> impl Strategy<Value = Vec<AgentState>> {
    prop::collection::vec(
        (0u32..500, 0u8..4, any::<bool>()).prop_map(|(round, kind, color_bit)| {
            let p = params();
            let color = Color::from_bit(u8::from(color_bit));
            match kind {
                0 => AgentState::desynced(&p, round),
                1 => AgentState::active_at(&p, round.max(1), color),
                2 => AgentState::leader(&p, color, u64::from(round) + 1),
                _ => AgentState::fresh(&p),
            }
        }),
        0..120,
    )
}

fn assert_well_formed(alts: &[Alteration<AgentState>], population: usize, k: usize) {
    assert!(
        alts.len() <= k.max(population),
        "emitted {} > budget-ish {}",
        alts.len(),
        k
    );
    for alt in alts {
        match alt {
            Alteration::Delete(i) | Alteration::Modify(i, _) => {
                assert!(*i < population, "index {i} out of range {population}");
            }
            Alteration::Insert(_) => {}
        }
    }
}

proptest! {
    // Bounded (64 cases by default, PROPTEST_CASES overrides) and
    // deterministic (the shim seeds each property from its name), so
    // tier-1 stays fast and failures reproduce exactly.

    #[test]
    fn all_strategies_emit_well_formed_alterations(
        pop in arb_population(),
        k in 0usize..12,
        seed in 0u64..200,
        round in 0u64..2000,
    ) {
        let p = params();
        let ctx = RoundContext::observe(round, k, 1024, &pop);
        let mut rng = rng_from_seed(seed);
        let mut strategies: Vec<Box<dyn Adversary<AgentState>>> = vec![
            Box::new(RandomDeleter::new(k)),
            Box::new(ObliviousDeleter::new(k)),
            Box::new(RandomInserter::new(p.clone(), k)),
            Box::new(Churn::new(p.clone(), k)),
            Box::new(LeaderSniper::new(k, None)),
            Box::new(LeaderSniper::new(k, Some(Color::One))),
            Box::new(ColorFlooder::new(p.clone(), k, Color::Zero)),
            Box::new(ClusterPoisoner::new(k)),
            Box::new(DesyncInserter::new(p.clone(), k, 7)),
            Box::new(DeviationAmplifier::new(p.clone(), k)),
        ];
        for strategy in &mut strategies {
            // A summary-only strategy must act on the context alone.
            let agents = if strategy.reads_states() { &pop[..] } else { &[] };
            let alts = strategy.act(&ctx, agents, &mut rng);
            assert_well_formed(&alts, pop.len(), k);
        }
    }

    #[test]
    fn deleters_never_exceed_population(
        pop in arb_population(),
        k in 0usize..200,
        seed in 0u64..100,
    ) {
        let ctx = RoundContext::observe(0, k, 1024, &pop);
        let mut rng = rng_from_seed(seed);
        let mut del = RandomDeleter::new(k);
        let alts = del.act(&ctx, &[], &mut rng);
        prop_assert!(alts.len() <= pop.len());
        // All indices distinct.
        let mut idx: Vec<usize> = alts
            .iter()
            .map(|a| match a {
                Alteration::Delete(i) => *i,
                _ => unreachable!("deleter emitted non-delete"),
            })
            .collect();
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), alts.len());
    }

    /// The majority round the engine hands adversaries (the dense histogram
    /// behind `RoundStats::observe`) picks the same round as a `BTreeMap`
    /// count, ties (largest round wins), forged `u32::MAX` rounds and
    /// rounds straddling the dense cap included.
    #[test]
    fn majority_round_matches_the_ordered_map_reference(
        rounds in prop::collection::vec(
            prop_oneof![
                0u32..4,
                0u32..200,
                Just(u32::MAX),
                (DENSE_ROUND_CAP - 2)..(DENSE_ROUND_CAP + 2),
            ],
            0..64,
        ),
    ) {
        let p = params();
        let agents: Vec<AgentState> =
            rounds.iter().map(|&r| AgentState::desynced(&p, r)).collect();
        let mut counts = std::collections::BTreeMap::new();
        for &r in &rounds {
            *counts.entry(r).or_insert(0usize) += 1;
        }
        let reference = counts.into_iter().max_by_key(|&(_, c)| c).map(|(r, _)| r);
        let ctx = RoundContext::observe(0, 0, 1024, &agents);
        prop_assert_eq!(ctx.majority_round, reference);
        prop_assert_eq!(ctx.population, agents.len());
    }

    #[test]
    fn desync_inserts_differ_from_majority(pop in arb_population(), seed in 0u64..100) {
        prop_assume!(!pop.is_empty());
        let p = params();
        let ctx = RoundContext::observe(0, 3, 1024, &pop);
        let mut rng = rng_from_seed(seed);
        let offset = 7u32;
        let mut adv = DesyncInserter::new(p.clone(), 3, offset);
        // The mode may be tied; accept any round that is offset from *a* mode.
        let mut counts = std::collections::BTreeMap::new();
        for a in &pop {
            *counts.entry(a.round).or_insert(0usize) += 1;
        }
        let max_count = *counts.values().max().unwrap();
        for alt in adv.act(&ctx, &[], &mut rng) {
            match alt {
                Alteration::Insert(s) => {
                    let base = (s.round + p.epoch_len() - offset % p.epoch_len()) % p.epoch_len();
                    prop_assert_eq!(
                        counts.get(&base).copied().unwrap_or(0),
                        max_count,
                        "inserted round {} not offset from a modal round",
                        s.round
                    );
                }
                other => prop_assert!(false, "expected insert, got {:?}", other),
            }
        }
    }

    #[test]
    fn throttle_gates_exactly(
        period in 1u64..100,
        phase_seed in 0u64..100,
        k in 1usize..5,
        rounds in 1u64..300,
    ) {
        let phase = phase_seed % period;
        let p = params();
        let pop = vec![AgentState::fresh(&p); 20];
        let mut adv = Throttle::new(ObliviousDeleter::new(k), period, phase);
        let mut rng = rng_from_seed(1);
        let mut fired = 0u64;
        for round in 0..rounds {
            let ctx = RoundContext::observe(round, k, 1024, &pop);
            let alts = adv.act(&ctx, &[] as &[AgentState], &mut rng);
            if round % period == phase {
                prop_assert_eq!(alts.len(), k.min(20));
                fired += 1;
            } else {
                prop_assert!(alts.is_empty());
            }
        }
        let expected = if rounds > phase { (rounds - phase).div_ceil(period) } else { 0 };
        prop_assert_eq!(fired, expected);
    }

    #[test]
    fn leader_sniper_only_hits_leaders(pop in arb_population(), seed in 0u64..100) {
        let ctx = RoundContext::observe(0, 64, 1024, &pop);
        let mut rng = rng_from_seed(seed);
        let mut adv = LeaderSniper::new(64, None);
        for alt in adv.act(&ctx, &pop, &mut rng) {
            match alt {
                Alteration::Delete(i) => prop_assert!(pop[i].is_leader && pop[i].active),
                other => prop_assert!(false, "expected delete, got {:?}", other),
            }
        }
    }

    #[test]
    fn cluster_poisoner_only_hits_minority_color(pop in arb_population(), seed in 0u64..100) {
        let c0 = pop.iter().filter(|a| a.active && a.color == Color::Zero).count();
        let c1 = pop.iter().filter(|a| a.active && a.color == Color::One).count();
        let minority = if c0 <= c1 { Color::Zero } else { Color::One };
        let ctx = RoundContext::observe(0, 8, 1024, &pop);
        let mut rng = rng_from_seed(seed);
        let mut adv = ClusterPoisoner::new(8);
        for alt in adv.act(&ctx, &pop, &mut rng) {
            match alt {
                Alteration::Delete(i) => {
                    prop_assert!(pop[i].active);
                    prop_assert_eq!(pop[i].color, minority);
                }
                other => prop_assert!(false, "expected delete, got {:?}", other),
            }
        }
    }
}
