//! Random matching schedules.
//!
//! The paper's communication model: *"the pairs of agents that are able to
//! communicate in each round are selected by choosing a random matching of at
//! least a γ fraction of surviving agents"*, independently each round, with
//! the schedule unknown to the adversary in advance.
//!
//! # Counter-keyed sampling
//!
//! Since matching stream version [`MATCHING_STREAM_VERSION`] the sampler is
//! *counter-keyed*: round `r`'s matching is a pure function of a per-round
//! key (derived by the engine as `round_key(match_master, r)`), never of a
//! sequential stream position — so rounds are addressable, and serial and
//! parallel rounds consume identical randomness by construction. Within a
//! round the sampler is hybrid (see
//! [`KEYED_PERMUTATION_MIN_POPULATION`]): small populations run an exactly
//! uniform keyed Fisher–Yates shuffle inline, while large ones realize the
//! random permutation as a keyed invertible mixing network over the slot
//! space ([`SlotPermutation`]). Because `perm(i)` is a stateless function
//! of `(key, i)`, pair `p` of a large matching can be computed
//! independently of every other pair — so the construction shards across
//! the engine's [`ShardPool`] with results **bit-identical to the serial
//! sampler for every worker count**.
//!
//! # The engine's path and the reference
//!
//! The engine never materializes the pairs. [`sample_partners_into`]
//! samples the round straight into its partner table in one pass: pair `p`
//! writes `partners[π(2p)] = π(2p+1)` and back, and every slot `π(j)` past
//! the matched prefix gets [`UNMATCHED`]. Because π is a bijection, every
//! slot is written exactly once, so the table needs no pre-fill and the
//! pass shards across the pool like the step phase does. The shards store
//! through a `&[AtomicU32]` view of the table with `Relaxed` stores (plain
//! moves on x86-64), so the scatter is safe code: a wrong π would build a
//! wrong table or panic on a bounds check, never race.
//!
//! The pair API — [`sample_matching_into`], [`sample_matching_into_par`],
//! [`Matching`] and [`Matching::partner_table_into`] — is the reference
//! implementation of the same function of `(population, model, mkey)`.
//! Tests pin the builder equal to it, and both evaluate pair `p` through
//! one shared definition, so the two cannot drift apart.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::batch::{shard_chunks, shard_range, ShardPool};
use crate::error::SimError;
use crate::rng::{sub_seed, CounterRng, SimRng};

/// Version of the engine's matching stream: the mapping from `(match
/// master key, round)` to the sampled pairs. Bumped whenever that mapping
/// changes, which invalidates the golden fixtures under `tests/golden/`.
///
/// * v1 — partial Fisher–Yates over an index buffer, consuming a
///   sequential `SimRng` matching stream (one draw per shuffled slot).
/// * v2 — counter-keyed: each round's pairs are a pure function of its
///   round key. Populations under [`KEYED_PERMUTATION_MIN_POPULATION`]
///   run the same partial Fisher–Yates from a per-round keyed stream;
///   larger ones use a keyed [`SlotPermutation`], pair `p` being
///   `(perm(2p), perm(2p+1))` — computable independently per pair (and
///   hence in parallel).
pub const MATCHING_STREAM_VERSION: u32 = 2;

/// How the per-round random matching is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MatchingModel {
    /// Every agent is matched every round (one agent idle when the population
    /// is odd). This is `γ = 1`.
    #[default]
    Full,
    /// Exactly `⌊γ·m/2⌋` uniformly random disjoint pairs each round.
    ExactFraction(f64),
    /// A fraction drawn uniformly from `[min_gamma, 1]` each round — models
    /// the paper's *lower bound* semantics where only `γ` is guaranteed.
    RandomFraction {
        /// Guaranteed lower bound on the matched fraction.
        min_gamma: f64,
    },
}

impl MatchingModel {
    /// The model that matches exactly a `gamma` fraction each round:
    /// [`Full`](Self::Full) at `gamma ≥ 1`, else
    /// [`ExactFraction`](Self::ExactFraction)`(gamma)`.
    pub fn fraction(gamma: f64) -> MatchingModel {
        if gamma >= 1.0 {
            MatchingModel::Full
        } else {
            MatchingModel::ExactFraction(gamma)
        }
    }

    /// The guaranteed matched fraction `γ` of this model.
    pub fn gamma(&self) -> f64 {
        match *self {
            MatchingModel::Full => 1.0,
            MatchingModel::ExactFraction(g) => g,
            MatchingModel::RandomFraction { min_gamma } => min_gamma,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the fraction is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        let g = self.gamma();
        if !(g > 0.0 && g <= 1.0) {
            return Err(SimError::invalid_config(
                "matching",
                format!("gamma must be in (0, 1], got {g}"),
            ));
        }
        Ok(())
    }
}

/// Sentinel for "unmatched" in the compact partner table built by
/// [`sample_partners_into`] and [`Matching::partner_table`]. A real
/// partner index cannot reach it:
/// matchings index agents with `u32`, and the pair list itself would
/// overflow memory long before `2³² − 1` agents.
pub const UNMATCHED: u32 = u32::MAX;

/// A sampled matching: disjoint index pairs into the population slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    pairs: Vec<(u32, u32)>,
}

impl Matching {
    /// The matched pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no agent is matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of matched agents (`2 × len`).
    pub fn matched_agents(&self) -> usize {
        self.pairs.len() * 2
    }

    /// Builds the compact partner lookup: `partner[i] = j` iff `{i, j}`
    /// matched, [`UNMATCHED`] otherwise. The `u32`-sentinel form halves the
    /// table's memory traffic versus `Option<u32>`, which shows up directly
    /// in engine rounds/sec at large populations — it is the one partner
    /// representation used throughout the workspace.
    pub fn partner_table(&self, population: usize) -> Vec<u32> {
        let mut table = Vec::new();
        self.partner_table_into(&mut table, population);
        table
    }

    /// As [`partner_table`](Matching::partner_table), but reusing `table`'s
    /// allocation. This serial scatter is the reference the engine's fused
    /// [`sample_partners_into`] is pinned against.
    pub fn partner_table_into(&self, table: &mut Vec<u32>, population: usize) {
        table.clear();
        table.resize(population, UNMATCHED);
        for &(a, b) in &self.pairs {
            table[a as usize] = b;
            table[b as usize] = a;
        }
    }
}

/// Population at which the sampler switches from the serial keyed
/// Fisher–Yates shuffle to the shardable [`SlotPermutation`].
///
/// Below it (a ≤ 16-bit slot space) the shuffle wins on every axis: it is
/// *exactly* uniform, and at a couple of ns per slot it is faster than any
/// keyed bijection strong enough to pass the chi-squared suites below —
/// while rounds this small are nowhere near the Amdahl ceiling that
/// parallel matching exists to lift. From 2¹⁶ agents up, the permutation's
/// four passes are statistically clean (partner-bucket chi-squared at
/// 120k trials), its serial cost reaches parity with the shuffle (whose
/// random swaps start cache-missing), and the pair construction shards
/// across the round pool. Both branches are pure functions of
/// `(population, model, mkey)`, so the serial/parallel determinism
/// contract holds on either side of the boundary.
pub const KEYED_PERMUTATION_MIN_POPULATION: usize = 1 << 16;

/// Mixing passes of [`SlotPermutation`]. Each pass is keyed xor, masked
/// odd multiply, masked xorshift — about half a SplitMix64 finalizer — so
/// a walk step (walk ≈ 1) costs ~2 finalizers. (A Feistel network is the
/// textbook choice here, but costs one finalizer per Feistel round; at the
/// six rounds it needs to mix well it made the *serial* matching ~6×
/// slower than the Fisher–Yates shuffle, which this construction must
/// not be.)
const MIX_PASSES: usize = 4;

/// Narrowest walk domain, in bits, at which [`MIX_PASSES`] tight-domain
/// passes mix to statistical uniformity (clean partner-bucket chi-squared
/// at 120k trials). The sampler engages the permutation only at
/// [`KEYED_PERMUTATION_MIN_POPULATION`] agents, i.e. at this width or
/// above; narrower domains, where a masked multiply has too few high bits
/// to diffuse into, are rejected by [`SlotPermutation::new`].
const FULL_STRENGTH_BITS: u32 = 16;

/// A keyed pseudo-random permutation of the slot space `0..n`: an
/// invertible mixing network (keyed xor, odd-constant multiply, xorshift —
/// each step a bijection mod `2^bits`) over the smallest power-of-two
/// domain covering `n`, restricted to `[0, n)` by cycle walking.
///
/// `apply(i)` is a pure function of `(key, n, i)` — no state, no draw
/// order — which is what makes the matching sampler shardable: any worker
/// can compute any pair of the matching independently and the result is
/// identical for every work division. Distinct keys give statistically
/// independent permutations (cross-validated against the naive
/// Fisher–Yates sampler by the chi-squared tests below).
#[derive(Debug, Clone, Copy)]
pub struct SlotPermutation {
    /// Per-pass subkeys, expanded once per permutation (i.e. once per
    /// engine round — never per slot).
    pass_keys: [u64; MIX_PASSES],
    /// Permutation size: `apply` maps `[0, n)` onto itself.
    n: u64,
    /// The walk domain is `2^bits`, with `n ≤ 2^bits < 2n`, so the
    /// expected walk length is < 2.
    mask: u64,
    /// Cross-half fold distances, alternating between passes (a fixed
    /// single distance leaves shift-invariant structure the pair-frequency
    /// tests can see at walk-free power-of-two populations).
    shifts: [u32; 2],
}

/// Odd multipliers of the mixing passes (the SplitMix64 finalizer
/// constants and the MurmurHash3 finalizer constants): multiplication by
/// an odd constant is a bijection mod any power of two, and these are
/// empirically strong diffusers.
const MIX_MULS: [u64; MIX_PASSES] = [
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
];

impl SlotPermutation {
    /// The permutation of `0..n` identified by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `n ≤ 2¹⁵`: the walk domain would be narrower than 16
    /// bits, where four passes do not mix. The matching sampler shuffles
    /// such populations instead (see [`KEYED_PERMUTATION_MIN_POPULATION`]).
    pub fn new(key: u64, n: u64) -> Self {
        assert!(
            n > 1 << (FULL_STRENGTH_BITS - 1),
            "SlotPermutation over {n} slots: needs more than 2^{} slots",
            FULL_STRENGTH_BITS - 1
        );
        // Smallest power-of-two domain covering n.
        let bits = 64 - (n - 1).leading_zeros();
        let mut pass_keys = [0u64; MIX_PASSES];
        for (r, pk) in pass_keys.iter_mut().enumerate() {
            *pk = sub_seed(key, r as u64);
        }
        SlotPermutation {
            pass_keys,
            n,
            mask: u64::MAX >> (64 - bits),
            shifts: [bits.div_ceil(2), bits / 3],
        }
    }

    /// The image of slot `i` under the permutation.
    ///
    /// Cycle walking: the mixing network is a bijection of the whole
    /// power-of-two domain, so iterating it from `i` must re-enter
    /// `[0, n)` (at worst by coming back around to `i` itself); the
    /// expected walk length is `domain / n < 2`. The induced map on
    /// `[0, n)` is a bijection — the classic format-preserving-encryption
    /// argument.
    #[inline]
    pub fn apply(&self, i: u64) -> u64 {
        debug_assert!(i < self.n, "slot {i} outside permutation domain {}", self.n);
        let mut x = i;
        loop {
            x = self.mix(x);
            if x < self.n {
                return x;
            }
        }
    }

    /// The keyed bijection over the full walk domain: passes of (keyed
    /// xor, masked odd multiply, masked xorshift) — each step invertible
    /// mod `2^bits`, so the composition is too. The multiply diffuses low
    /// bits upward, the xorshift folds high bits back down; alternating
    /// them under distinct subkeys and multipliers avalanches the whole
    /// domain word in [`MIX_PASSES`] passes (~2 finalizers).
    // Indexed loop: each pass walks three arrays (subkey, multiplier,
    // alternating fold distance) in lockstep; the constant bound fully
    // unrolls it.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    fn mix(&self, x: u64) -> u64 {
        let mut x = x;
        for i in 0..MIX_PASSES {
            x ^= self.pass_keys[i] & self.mask;
            x = x.wrapping_mul(MIX_MULS[i]) & self.mask;
            x ^= x >> self.shifts[i & 1];
        }
        x
    }
}

/// Sub-stream indices under the per-round matching key: the permutation
/// key and the `RandomFraction` fraction draw must not alias.
const PERM_SUBSTREAM: u64 = 0;
const FRACTION_SUBSTREAM: u64 = 1;

/// The number of pairs `model` matches over `population` agents, drawing
/// the `RandomFraction` fraction (if any) from the round's keyed stream.
fn planned_pairs(population: usize, model: MatchingModel, mkey: u64) -> usize {
    let fraction = match model {
        MatchingModel::Full => 1.0,
        MatchingModel::ExactFraction(g) => g,
        MatchingModel::RandomFraction { min_gamma } => {
            CounterRng::keyed(sub_seed(mkey, FRACTION_SUBSTREAM)).random_range(min_gamma..=1.0)
        }
    };
    let target_agents = (fraction * population as f64).floor() as usize;
    (target_agents / 2).min(population / 2)
}

/// Leaves `indices` a keyed partial Fisher–Yates shuffle of the slot space
/// whose first `2·n_pairs` entries are the matched pairs — the
/// sub-[`KEYED_PERMUTATION_MIN_POPULATION`] branch of the sampler. Exactly
/// uniform; serial (each swap depends on the last), but a pure function of
/// the round key, so the parallel round paths compute it identically
/// inline. The whole buffer stays a permutation of `0..population`.
fn keyed_shuffle(indices: &mut Vec<u32>, population: usize, n_pairs: usize, mkey: u64) {
    let mut rng = CounterRng::keyed(sub_seed(mkey, PERM_SUBSTREAM));
    indices.clear();
    indices.extend(0..population as u32);
    // Partial Fisher–Yates: only the first 2·n_pairs slots are needed.
    for i in 0..(2 * n_pairs) {
        let j = rng.random_range(i..population);
        indices.swap(i, j);
    }
}

/// Fills `out` with the pairs of [`keyed_shuffle`].
fn shuffle_matching_into(
    out: &mut Matching,
    indices: &mut Vec<u32>,
    population: usize,
    n_pairs: usize,
    mkey: u64,
) {
    keyed_shuffle(indices, population, n_pairs, mkey);
    out.pairs
        .extend(indices[..2 * n_pairs].chunks_exact(2).map(|c| (c[0], c[1])));
}

/// Pair `p` of the keyed-permutation branch: slots `(π(2p), π(2p+1))`. The
/// one definition the pair samplers and [`sample_partners_into`] share.
#[inline]
fn keyed_pair(perm: &SlotPermutation, p: usize) -> (u32, u32) {
    let j = 2 * p as u64;
    (perm.apply(j) as u32, perm.apply(j + 1) as u32)
}

/// Samples the matching of the round keyed by `mkey` over `population`
/// agents according to `model`.
///
/// The result is a pure function of `(population, model, mkey)`: the engine
/// derives `mkey = round_key(match_master, round)`, so round `r`'s matching
/// is addressable without replaying rounds `0..r`. Cost is `O(population)`.
pub fn sample_matching(population: usize, model: MatchingModel, mkey: u64) -> Matching {
    let mut out = Matching::default();
    let mut indices = Vec::new();
    sample_matching_into(&mut out, &mut indices, population, model, mkey);
    out
}

/// As [`sample_matching`], but writing into `out` and using `indices` as
/// shuffle scratch for the small-population branch (see
/// [`KEYED_PERMUTATION_MIN_POPULATION`]), so repeated calls allocate
/// nothing. The reference serial sampler; the engine samples through
/// [`sample_partners_into`].
pub fn sample_matching_into(
    out: &mut Matching,
    indices: &mut Vec<u32>,
    population: usize,
    model: MatchingModel,
    mkey: u64,
) {
    out.pairs.clear();
    if population < 2 {
        return;
    }
    let n_pairs = planned_pairs(population, model, mkey);
    if n_pairs == 0 {
        return;
    }
    if population < KEYED_PERMUTATION_MIN_POPULATION {
        shuffle_matching_into(out, indices, population, n_pairs, mkey);
        return;
    }
    let perm = SlotPermutation::new(sub_seed(mkey, PERM_SUBSTREAM), population as u64);
    out.pairs.extend((0..n_pairs).map(|p| keyed_pair(&perm, p)));
}

/// As [`sample_matching_into`], with the pair construction sharded across
/// `pool`. Bit-identical to the serial sampler for every shard count:
/// below [`KEYED_PERMUTATION_MIN_POPULATION`] both run the identical keyed
/// shuffle inline (too small to be worth a dispatch), and above it pair
/// `p` is a pure function of `(mkey, p)`, shards cover disjoint contiguous
/// pair ranges, and each writes its own range of the output buffer.
pub fn sample_matching_into_par(
    out: &mut Matching,
    indices: &mut Vec<u32>,
    population: usize,
    model: MatchingModel,
    mkey: u64,
    pool: &ShardPool,
) {
    out.pairs.clear();
    if population < 2 {
        return;
    }
    let n_pairs = planned_pairs(population, model, mkey);
    if n_pairs == 0 {
        return;
    }
    if population < KEYED_PERMUTATION_MIN_POPULATION {
        shuffle_matching_into(out, indices, population, n_pairs, mkey);
        return;
    }
    let perm = SlotPermutation::new(sub_seed(mkey, PERM_SUBSTREAM), population as u64);
    out.pairs.resize(n_pairs, (0, 0));
    let nshards = pool.shards();
    pool.dispatch_parts(&mut shard_chunks(&mut out.pairs, nshards), &|s, pairs| {
        let (lo, _) = shard_range(n_pairs, nshards, s);
        for (k, pair) in pairs.iter_mut().enumerate() {
            *pair = keyed_pair(&perm, lo + k);
        }
    });
}

/// Samples the matching of the round keyed by `mkey` straight into its
/// partner table and returns the number of matched agents: afterwards
/// `partners.len() == population`, and `partners[i] = j` iff `{i, j}` is
/// matched, [`UNMATCHED`] otherwise. This is the engine's per-round path.
///
/// The table and count equal [`sample_matching_into`] followed by
/// [`Matching::partner_table_into`] and [`Matching::matched_agents`], for
/// every shard count of `pool`. No pair buffer is built:
///
/// * above [`KEYED_PERMUTATION_MIN_POPULATION`], pair `p` writes
///   `partners[π(2p)] = π(2p+1)` and back, and each slot `π(j)` with
///   `j ≥ 2·n_pairs` gets [`UNMATCHED`]. The pair range and the unmatched
///   range are each split with `shard_range`, so the one pass shards
///   across `pool`. It evaluates π once per agent whatever the model's γ;
/// * below it, the table is written straight from the keyed shuffle, the
///   same way, serially.
///
/// π (or the shuffle) is a permutation of `0..population`, so every slot is
/// written exactly once. The buffer is therefore never pre-filled: an
/// existing `partners` is only truncated or tail-extended to `population`,
/// and its old contents are overwritten. `shuffle` is scratch for the
/// small-population branch.
pub fn sample_partners_into(
    partners: &mut Vec<u32>,
    shuffle: &mut Vec<u32>,
    population: usize,
    model: MatchingModel,
    mkey: u64,
    pool: &ShardPool,
) -> usize {
    partners.truncate(population);
    partners.resize(population, UNMATCHED);
    let n_pairs = if population < 2 {
        0
    } else {
        planned_pairs(population, model, mkey)
    };
    if n_pairs == 0 {
        partners.fill(UNMATCHED);
        return 0;
    }
    if population < KEYED_PERMUTATION_MIN_POPULATION {
        keyed_shuffle(shuffle, population, n_pairs, mkey);
        let (pairs, rest) = shuffle.split_at(2 * n_pairs);
        for c in pairs.chunks_exact(2) {
            partners[c[0] as usize] = c[1];
            partners[c[1] as usize] = c[0];
        }
        for &i in rest {
            partners[i as usize] = UNMATCHED;
        }
        return 2 * n_pairs;
    }
    // Past `UNMATCHED`, `π(j) as u32` would wrap and pair the wrong agents.
    assert!(
        population <= UNMATCHED as usize,
        "{population} agents overflow u32 partner slots"
    );
    let perm = SlotPermutation::new(sub_seed(mkey, PERM_SUBSTREAM), population as u64);
    let unmatched = population - 2 * n_pairs;
    let nshards = pool.shards();
    // `dispatch` returns once every shard is done, and its barrier orders
    // these `Relaxed` stores before any later plain read of `partners`.
    let table = as_atomic(partners);
    pool.dispatch(&|s| {
        let put = |slot: u32, partner: u32| table[slot as usize].store(partner, Relaxed);
        let (lo, hi) = shard_range(n_pairs, nshards, s);
        for p in lo..hi {
            let (a, b) = keyed_pair(&perm, p);
            put(a, b);
            put(b, a);
        }
        let (lo, hi) = shard_range(unmatched, nshards, s);
        for j in (2 * n_pairs + lo)..(2 * n_pairs + hi) {
            put(perm.apply(j as u64) as u32, UNMATCHED);
        }
    });
    2 * n_pairs
}

const _: () = assert!(
    size_of::<AtomicU32>() == size_of::<u32>() && align_of::<AtomicU32>() == align_of::<u32>()
);

/// `s` as a table of atomics that many shards may store into at once:
/// the cast std's `AtomicU32::from_mut_slice` performs (still unstable as
/// `atomic_from_mut`).
fn as_atomic(s: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: `AtomicU32` has the size and alignment of `u32` (the const
    // assertion above) and the same bit validity, so the cast keeps every
    // element in bounds and aligned. The exclusive borrow of `s` lasts as
    // long as the returned slice, so no non-atomic access can overlap an
    // atomic one.
    unsafe { &*(s as *mut [u32] as *const [AtomicU32]) }
}

/// Samples a full uniformly random permutation matching with a serial
/// Fisher–Yates shuffle over a caller-supplied sequential stream (used in
/// tests to cross-validate the keyed sampler).
pub fn sample_full_matching_naive(population: usize, rng: &mut SimRng) -> Matching {
    let mut indices: Vec<u32> = (0..population as u32).collect();
    indices.shuffle(rng);
    let pairs = indices.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    Matching { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{counter_seed, rng_from_seed};
    use std::collections::BTreeSet;

    /// A distinct matching key per `(master, trial)` for the statistical
    /// tests, mirroring how the engine keys one matching per round.
    fn trial_key(master: u64, trial: u64) -> u64 {
        counter_seed(master, trial, 0)
    }

    fn assert_valid(m: &Matching, population: usize) {
        let mut seen = BTreeSet::new();
        for &(a, b) in m.pairs() {
            assert_ne!(a, b, "self-match");
            assert!(
                (a as usize) < population && (b as usize) < population,
                "out of range"
            );
            assert!(seen.insert(a), "agent {a} matched twice");
            assert!(seen.insert(b), "agent {b} matched twice");
        }
    }

    #[test]
    fn empty_and_singleton_populations_yield_no_pairs() {
        assert!(sample_matching(0, MatchingModel::Full, trial_key(1, 0)).is_empty());
        assert!(sample_matching(1, MatchingModel::Full, trial_key(1, 1)).is_empty());
    }

    #[test]
    fn full_matching_covers_everyone_even() {
        let m = sample_matching(100, MatchingModel::Full, trial_key(2, 0));
        assert_eq!(m.matched_agents(), 100);
        assert_valid(&m, 100);
    }

    #[test]
    fn full_matching_leaves_one_out_odd() {
        let m = sample_matching(101, MatchingModel::Full, trial_key(3, 0));
        assert_eq!(m.matched_agents(), 100);
        assert_valid(&m, 101);
    }

    #[test]
    fn exact_fraction_matches_expected_count() {
        let m = sample_matching(1000, MatchingModel::ExactFraction(0.5), trial_key(4, 0));
        assert_eq!(m.matched_agents(), 500);
        assert_valid(&m, 1000);
    }

    #[test]
    fn random_fraction_respects_lower_bound() {
        for trial in 0..50 {
            let m = sample_matching(
                1000,
                MatchingModel::RandomFraction { min_gamma: 0.25 },
                trial_key(5, trial),
            );
            assert!(
                m.matched_agents() >= 250 - 1,
                "matched {}",
                m.matched_agents()
            );
            assert_valid(&m, 1000);
        }
    }

    #[test]
    fn slot_permutation_is_a_bijection_at_every_size() {
        for n in [32_769u64, 50_000, 65_535, 65_536, 65_537, 70_001] {
            for key in [0u64, 1, trial_key(6, n)] {
                let perm = SlotPermutation::new(key, n);
                let mut image: Vec<u64> = (0..n).map(|i| perm.apply(i)).collect();
                image.sort_unstable();
                assert!(
                    image.iter().enumerate().all(|(i, &v)| v == i as u64),
                    "not a bijection at n={n}, key={key}"
                );
            }
        }
    }

    /// The permutation at its narrowest walk domain (16 bits) with a
    /// real cycle walk: at `n = 50000` the images of a few fixed slots,
    /// taken across many keys, must be uniform over coarse buckets of the
    /// slot space.
    #[test]
    fn slot_permutation_is_uniform_in_the_wide_domain_regime() {
        let n = 50_000u64;
        let buckets = 25usize;
        let keys = 8_000u64;
        for probe_slot in [0u64, 1, 24_999, 49_999] {
            let mut counts = vec![0u32; buckets];
            for k in 0..keys {
                let perm = SlotPermutation::new(trial_key(15, k), n);
                let image = perm.apply(probe_slot);
                counts[(image * buckets as u64 / n) as usize] += 1;
            }
            let expected = keys as f64 / buckets as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = f64::from(c) - expected;
                    d * d / expected
                })
                .sum();
            // df = 24; χ² beyond 60 is ~p < 10⁻⁴.
            assert!(chi2 < 60.0, "slot {probe_slot} bucket chi-squared {chi2}");
        }
    }

    /// Partner-of-agent-0 chi-squared against the *exact* expectation
    /// (agent 0 can never partner itself), at one population per sampler
    /// regime: 250/1000/8192/16384 run the keyed Fisher–Yates shuffle
    /// (below [`KEYED_PERMUTATION_MIN_POPULATION`]), 70000 the keyed
    /// permutation. The acceptance bound is ~5σ of the chi-squared
    /// statistic; the residual permutation biases measured during tuning
    /// sat well below it at 4× these trial counts.
    #[test]
    fn partner_chi_squared_is_clean_in_every_pass_tier() {
        for (n, buckets, trials) in [
            (250usize, 125usize, 40_000u64),
            (1_000, 500, 40_000),
            (8_192, 512, 10_000),
            (16_384, 512, 10_000),
            (70_000, 500, 4_000),
        ] {
            let mut counts = vec![0u32; buckets];
            let mut out = Matching::default();
            let mut scratch = Vec::new();
            for t in 0..trials {
                sample_matching_into(
                    &mut out,
                    &mut scratch,
                    n,
                    MatchingModel::Full,
                    trial_key(97, t),
                );
                let &(a, b) = out
                    .pairs()
                    .iter()
                    .find(|&&(a, b)| a == 0 || b == 0)
                    .expect("agent 0 matched under Full");
                let partner = if a == 0 { b } else { a } as usize;
                counts[partner * buckets / n] += 1;
            }
            let mut expect = vec![0f64; buckets];
            for partner in 1..n {
                expect[partner * buckets / n] += trials as f64 / (n as f64 - 1.0);
            }
            let chi2: f64 = counts
                .iter()
                .zip(&expect)
                .map(|(&c, &e)| {
                    let d = f64::from(c) - e;
                    d * d / e
                })
                .sum();
            let df = buckets as f64 - 1.0;
            assert!(
                chi2 < df + 5.0 * (2.0 * df).sqrt(),
                "n={n} ({trials} trials): partner bucket chi-squared {chi2:.1} (df {df})"
            );
        }
    }

    #[test]
    fn slot_permutation_differs_across_keys() {
        for n in [32_769u64, 65_536, 70_001] {
            let a = SlotPermutation::new(trial_key(7, 0), n);
            let b = SlotPermutation::new(trial_key(7, 1), n);
            let fixed = (0..n).filter(|&i| a.apply(i) == b.apply(i)).count();
            // Two independent uniform permutations agree on ~1 point.
            assert!(
                fixed < 8,
                "n={n}: permutations nearly identical: {fixed} agreements"
            );
        }
    }

    /// Below a 16-bit walk domain four passes do not mix, so the
    /// permutation refuses such sizes rather than under-mixing them.
    #[test]
    #[should_panic(expected = "needs more than 2^15 slots")]
    fn slot_permutation_rejects_narrow_domains() {
        SlotPermutation::new(trial_key(7, 0), 1 << 15);
    }

    #[test]
    fn partner_table_is_symmetric() {
        let m = sample_matching(64, MatchingModel::ExactFraction(0.75), trial_key(8, 0));
        let table = m.partner_table(64);
        for (i, &p) in table.iter().enumerate() {
            if p != UNMATCHED {
                assert_eq!(table[p as usize], i as u32);
            }
        }
        let matched = table.iter().filter(|&&p| p != UNMATCHED).count();
        assert_eq!(matched, m.matched_agents());
    }

    #[test]
    fn matching_is_uniform_ish() {
        // Agent 0's partner should be near-uniform over the other 63 agents.
        let mut counts = vec![0usize; 64];
        let trials = 20_000;
        for t in 0..trials {
            let m = sample_matching(64, MatchingModel::Full, trial_key(9, t));
            let partner = m.partner_table(64)[0];
            assert_ne!(partner, UNMATCHED);
            counts[partner as usize] += 1;
        }
        let expected = trials as f64 / 63.0;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let ratio = c as f64 / expected;
            assert!((0.75..1.25).contains(&ratio), "partner {i} ratio {ratio}");
        }
    }

    #[test]
    fn gamma_accessor() {
        assert_eq!(MatchingModel::Full.gamma(), 1.0);
        assert_eq!(MatchingModel::fraction(1.0), MatchingModel::Full);
        assert_eq!(
            MatchingModel::fraction(0.25),
            MatchingModel::ExactFraction(0.25)
        );
        assert_eq!(MatchingModel::ExactFraction(0.5).gamma(), 0.5);
        assert_eq!(
            MatchingModel::RandomFraction { min_gamma: 0.25 }.gamma(),
            0.25
        );
    }

    #[test]
    fn validate_rejects_bad_gamma() {
        assert!(MatchingModel::ExactFraction(0.0).validate().is_err());
        assert!(MatchingModel::ExactFraction(1.5).validate().is_err());
        assert!(MatchingModel::ExactFraction(-0.1).validate().is_err());
        assert!(MatchingModel::ExactFraction(0.3).validate().is_ok());
        assert!(MatchingModel::Full.validate().is_ok());
    }

    /// Populations straddling [`KEYED_PERMUTATION_MIN_POPULATION`]: the
    /// small sizes pin the inline-shuffle branch, 65536 and 70001 the
    /// sharded permutation.
    const POPULATIONS: [usize; 11] = [0, 1, 2, 3, 7, 64, 257, 1000, 65_535, 65_536, 70_001];

    const MODELS: [MatchingModel; 3] = [
        MatchingModel::Full,
        MatchingModel::ExactFraction(0.37),
        MatchingModel::RandomFraction { min_gamma: 0.25 },
    ];

    #[test]
    fn parallel_sampler_is_bit_identical_to_serial_for_every_shard_count() {
        use crate::batch::ShardPool;
        for population in POPULATIONS {
            for (t, model) in MODELS.into_iter().enumerate() {
                let mkey = trial_key(10, (population as u64) << 8 | t as u64);
                let mut serial = Matching::default();
                let mut scratch = Vec::new();
                sample_matching_into(&mut serial, &mut scratch, population, model, mkey);
                for shards in [1usize, 2, 3, 8] {
                    let mut par = Matching::default();
                    ShardPool::with(shards, |pool| {
                        sample_matching_into_par(
                            &mut par,
                            &mut scratch,
                            population,
                            model,
                            mkey,
                            pool,
                        );
                    });
                    assert_eq!(serial, par, "pop {population}, {shards} shards");
                }
            }
        }
    }

    /// The reference table and matched count: sample the pairs, then
    /// scatter them.
    fn reference_partners(population: usize, model: MatchingModel, mkey: u64) -> (Vec<u32>, usize) {
        let mut m = Matching::default();
        sample_matching_into(&mut m, &mut Vec::new(), population, model, mkey);
        let mut table = Vec::new();
        m.partner_table_into(&mut table, population);
        (table, m.matched_agents())
    }

    #[test]
    fn partner_builder_equals_sample_then_scatter_for_every_shard_count() {
        use crate::batch::ShardPool;
        for population in POPULATIONS {
            for (t, model) in MODELS.into_iter().enumerate() {
                let mkey = trial_key(16, (population as u64) << 8 | t as u64);
                let (want, want_matched) = reference_partners(population, model, mkey);
                let (mut table, mut shuffle) = (Vec::new(), Vec::new());
                for shards in [1usize, 2, 3, 8] {
                    let matched = ShardPool::with(shards, |pool| {
                        sample_partners_into(
                            &mut table,
                            &mut shuffle,
                            population,
                            model,
                            mkey,
                            pool,
                        )
                    });
                    assert_eq!(
                        (&table, matched),
                        (&want, want_matched),
                        "pop {population}, {shards} shards"
                    );
                }
            }
        }
    }

    /// The builder never pre-fills: it relies on π writing every slot once.
    /// A longer buffer of garbage must come out exactly the reference
    /// table, so a slot the pass skipped would show up as garbage here.
    #[test]
    fn partner_builder_overwrites_every_slot_of_a_dirty_buffer() {
        use crate::batch::ShardPool;
        const GARBAGE: u32 = 0xDEAD_BEEF;
        for population in POPULATIONS {
            for (t, model) in MODELS.into_iter().enumerate() {
                let mkey = trial_key(17, (population as u64) << 8 | t as u64);
                let (want, want_matched) = reference_partners(population, model, mkey);
                for shards in [1usize, 2] {
                    let mut table = vec![GARBAGE; population + 97];
                    let matched = ShardPool::with(shards, |pool| {
                        sample_partners_into(
                            &mut table,
                            &mut Vec::new(),
                            population,
                            model,
                            mkey,
                            pool,
                        )
                    });
                    assert_eq!(
                        (&table, matched),
                        (&want, want_matched),
                        "pop {population}, {shards} shards"
                    );
                }
            }
        }
    }

    // ---- cross-validation of the keyed sampler against the naive
    // ---- full-permutation Fisher–Yates sampler

    mod cross_validation {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Both samplers produce valid (pair-disjoint, in-range)
            /// matchings, and the keyed sampler covers exactly the model's
            /// γ fraction — exactly what the naive full matching covers
            /// when γ = 1.
            #[test]
            fn both_samplers_are_valid_and_cover_gamma(
                population in 0usize..1500,
                seed in 0u64..400,
                gamma in 0.05f64..=1.0,
            ) {
                let partial = sample_matching(
                    population,
                    MatchingModel::ExactFraction(gamma),
                    trial_key(11, seed),
                );
                assert_valid(&partial, population);
                // ≥ γ coverage, up to the integer floor of pairable agents.
                let want = (((gamma * population as f64).floor() as usize) / 2).min(population / 2);
                prop_assert_eq!(partial.len(), want);

                let mut rng = rng_from_seed(seed);
                let naive = sample_full_matching_naive(population, &mut rng);
                assert_valid(&naive, population);
                prop_assert_eq!(naive.len(), population / 2);
            }

            /// Fixed key/seed ⇒ identical output, run after run, for both
            /// samplers (the reproducibility half of the determinism
            /// contract; the distributional half is checked below).
            #[test]
            fn samplers_are_deterministic_under_fixed_key(
                population in 0usize..800,
                seed in 0u64..400,
            ) {
                let a = sample_matching(population, MatchingModel::Full, trial_key(12, seed));
                let b = sample_matching(population, MatchingModel::Full, trial_key(12, seed));
                prop_assert_eq!(a, b);
                let (a, b) = (
                    sample_full_matching_naive(population, &mut rng_from_seed(seed)),
                    sample_full_matching_naive(population, &mut rng_from_seed(seed)),
                );
                prop_assert_eq!(a, b);
            }
        }

        /// The keyed sampler and the naive full-permutation sampler
        /// draw from the same distribution: agent 0's partner is uniform
        /// over the other agents under both, and the two empirical
        /// histograms agree bucket-by-bucket.
        #[test]
        fn full_matching_distributions_agree() {
            let n = 16;
            let trials = 40_000u32;
            let keyed = {
                let mut counts = vec![0u32; n];
                for t in 0..trials {
                    let m = sample_matching(n, MatchingModel::Full, trial_key(13, u64::from(t)));
                    let partner = m.partner_table(n)[0];
                    assert_ne!(partner, UNMATCHED);
                    counts[partner as usize] += 1;
                }
                counts
            };
            let naive = {
                let mut counts = vec![0u32; n];
                let mut rng = rng_from_seed(1234);
                for _ in 0..trials {
                    let partner = sample_full_matching_naive(n, &mut rng).partner_table(n)[0];
                    assert_ne!(partner, UNMATCHED);
                    counts[partner as usize] += 1;
                }
                counts
            };
            let expected = f64::from(trials) / (n as f64 - 1.0);
            for i in 1..n {
                let (p, v) = (f64::from(keyed[i]), f64::from(naive[i]));
                assert!(
                    (0.85..1.15).contains(&(p / expected)),
                    "keyed sampler partner {i}: {p} vs expected {expected}"
                );
                assert!(
                    (0.85..1.15).contains(&(v / expected)),
                    "naive sampler partner {i}: {v} vs expected {expected}"
                );
                assert!(
                    (p - v).abs() < 6.0 * expected.sqrt() + 0.06 * expected,
                    "samplers disagree on partner {i}: {p} vs {v}"
                );
            }
        }

        /// Chi-squared cross-validation over the **full pair-frequency
        /// table**: for a full matching on `n` agents every unordered pair
        /// `{i, j}` appears with probability `1/(n−1)`; the χ² statistic of
        /// the empirical table against that uniform expectation must sit in
        /// the acceptance region for both samplers. This is strictly
        /// stronger than the partner-of-agent-0 marginal — a permutation
        /// family that favors, say, nearby slots pairs off-diagonally and
        /// fails here even with uniform marginals.
        #[test]
        fn pair_frequency_chi_squared_matches_naive_sampler() {
            let n = 8usize;
            let trials = 30_000u32;
            let cells = n * (n - 1) / 2; // 28 unordered pairs
            let chi_squared = |counts: &[u32]| {
                // Each trial matches all n agents: n/2 pairs per trial.
                let expected = f64::from(trials) * (n as f64 / 2.0) / cells as f64;
                counts
                    .iter()
                    .map(|&c| {
                        let d = f64::from(c) - expected;
                        d * d / expected
                    })
                    .sum::<f64>()
            };
            let cell = |a: u32, b: u32| {
                let (i, j) = if a < b { (a, b) } else { (b, a) };
                let (i, j) = (i as usize, j as usize);
                i * n - i * (i + 1) / 2 + (j - i - 1)
            };
            let mut keyed = vec![0u32; cells];
            for t in 0..trials {
                let m = sample_matching(n, MatchingModel::Full, trial_key(14, u64::from(t)));
                for &(a, b) in m.pairs() {
                    keyed[cell(a, b)] += 1;
                }
            }
            let mut naive = vec![0u32; cells];
            let mut rng = rng_from_seed(4321);
            for _ in 0..trials {
                for &(a, b) in sample_full_matching_naive(n, &mut rng).pairs() {
                    naive[cell(a, b)] += 1;
                }
            }
            // df = 27; χ² beyond 60 is ~p < 2·10⁻⁴ — far outside what a
            // healthy sampler produces, far inside what structural bias
            // (e.g. a near-slot preference) produces at 30k trials.
            let (k, v) = (chi_squared(&keyed), chi_squared(&naive));
            assert!(k < 60.0, "keyed sampler pair-frequency chi-squared {k}");
            assert!(v < 60.0, "naive sampler pair-frequency chi-squared {v}");
        }
    }
}
