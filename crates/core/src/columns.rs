//! Columnar (struct-of-arrays) execution of the protocol's step phase.
//!
//! [`StabilityColumns`] is the [`ColumnarStep`] implementation installed
//! into every engine running [`PopulationStability`] (via
//! [`Protocol::columnar`]). It holds the population *resident* as compact
//! columns — `round`/`to_recruit`/`lineage` vectors plus packed flag
//! bitmasks — and advances them round after round without materializing
//! `Vec<AgentState>`.
//!
//! # The round structure
//!
//! In a recruitment round (rounds `1 … T−2`) an agent that does not
//! recruit, and whose partner neither recruits nor is at the evaluation
//! round, does only two things: its round advances, and at a subphase
//! boundary it re-arms if it is active. Algorithm 5 and Algorithm 7's
//! consistency check read nothing else, and draw no coin. Such a *quiet*
//! agent also sends a quiet wire (`x` and `in_eval` clear), so every lane
//! that hears anything else is the partner of a *loud* lane. Most rounds
//! are like this: each recruiter stands down after one recruit per
//! subphase, so after a subphase's first round or two almost no lane is
//! loud. A step therefore takes one of two paths.
//!
//! **The quiet path**, when lane 0 sits in recruitment and at most one lane
//! in `DENSE_SHARE × shards` recruits (a popcount of the `recruiting`
//! column, since every recruiting lane is loud):
//!
//! 1. **classification pass** (sharded): record each 64-agent block's
//!    round and whether its lanes share it, and count the loud lanes: the
//!    recruiting lanes of uniform recruitment blocks, and every lane of
//!    every other block (mixed-round blocks, which only adversarial
//!    insertion makes, and uniform blocks at round 0 or the evaluation
//!    round). More loud lanes than the cutoff send the round to the dense
//!    path, which then reuses the classification;
//! 2. **loud pairs** (serial, in slot order): each loud lane is stepped
//!    together with its partner, read from the engine's
//!    [`RoundMatching`] one slot at a time, so the partner table is never
//!    built. Both lanes' [`AgentState`]s are read from the columns, the
//!    two messages composed, and both stepped through
//!    [`PopulationStability::step`] on their own slot streams before
//!    either is written back; their rounds are marked `STEPPED` so that
//!    a loud partner further on is not stepped again;
//! 3. **quiet pass** (sharded): every uniform recruitment block advances
//!    as its quiet lanes do (`advance_quiet`), which is what its stepped
//!    lanes already did, and every other block clears its marks.
//!
//! **The dense path**, at round 0, at the evaluation round, and in
//! recruitment rounds with many loud lanes (the first round or two after
//! a late subphase boundary), builds the partner table
//! ([`RoundMatching::table`]) and runs two sharded passes over it:
//!
//! 1. **wire pass**: from the columns, compose every agent's three-bit
//!    [`Wire`] (Algorithm 2) as *word algebra*, publishing it in one
//!    partner-readable byte column (`wire8`, the wire bits plus an
//!    always-set presence bit — cache-resident even at million-agent
//!    scale), record each 64-agent block's round uniformity (unless the
//!    classification pass did), and list the rare *latch-hazard* lanes
//!    whose pre-step lineage a partner might copy while this round
//!    overwrites it;
//! 2. **step pass**: per block, gather one masked `wire8` byte per lane
//!    and transpose them eight-at-a-time (`pack_lsb`) into four mask
//!    words held in registers, then run one of two word kernels: a uniform
//!    block at round 0 runs the leader kernel `leader_block` (each lane
//!    flips its coin with [`toss_biased_coin`] on its own slot stream, and
//!    the rare winners run [`PopulationStability::step`]); a uniform
//!    recruitment block runs `recruit_block`, Algorithm 5 as mask algebra.
//!    Every lane of an evaluation or mixed-round block runs
//!    [`PopulationStability::step`] itself.
//!
//! The cutoff between the paths is measured (single recruitment rounds and
//! whole epochs, at 2¹⁶ and 2²⁰ agents, on a 2-vCPU VM). On one shard,
//! stepping the loud pairs one at a time costs less than the dense passes
//! up to one loud lane in 16 and about as much at one in 8. On two shards
//! it costs less up to one in 32, and about as much at one in 16. Beyond
//! that it loses (at 1/2 loud, 2.2–2.8 ms against 0.5–0.8 ms at 2¹⁶). The
//! dense passes divide across shards and the serial pairs do not, so the
//! cutoff is one loud lane in `DENSE_SHARE × shards`; more than two
//! shards are unmeasured.
//!
//! The engine transposes `Vec<AgentState>` in ([`ColumnarStep::load`]) only
//! when the vector was mutated behind the columns' back, and back out
//! ([`ColumnarStep::store`]) only when an observer, a state-reading
//! adversary, or a snapshot reads it — each resident round streams ~17
//! bytes per agent instead of two passes over 24-byte structs. Adversarial
//! alterations land in the columns directly ([`ColumnarStep::alter`],
//! `O(K)` lanes), so a summary-only adversary such as churn keeps the
//! population resident too. [`ColumnarStep::apply`] runs the same
//! in-place refill plan, with the split daughters as its inserts. Recorded
//! rounds stay resident too:
//! [`ColumnarStep::stats`] computes a round's [`RoundStats`] as popcounts
//! over the flag columns plus one epoch-round histogram over `round`
//! (uniform blocks counted 64 lanes at a time), never building the vector.
//!
//! # Why this is bit-exact (no stream bump)
//!
//! The agent stream (v3) is counter-addressable: agent `slot`'s draw `j`
//! in a round is a pure finalizer of `(round_key, slot, j)`, independent
//! of any other agent's draws, so stepping lanes in any order cannot move
//! any draw. The word kernels draw only where `Protocol::step` draws:
//! leader selection flips each lane's coin with the same
//! [`toss_biased_coin`] on the lane's slot stream, which is the first draw
//! `step` makes in round 0, and recruitment draws nothing. The rest is not
//! a copy of the transition but the transition itself: every loud lane and
//! its partner on the quiet path, and on the dense path leader winners and
//! every lane of an evaluation or mixed-round block, run
//! [`PopulationStability::step`] on their own slot stream. On
//! the quiet path both messages come from both lanes' pre-step states, as
//! in the scalar loop. On the dense path the lane's [`AgentState`] is read
//! from the columns and the partner's message rebuilt by
//! [`Message::from_wire`] from the gathered wire bits plus the latched
//! lineage. That is exact because the step reads the message only through
//! its wire, whose round trip is the identity, and reads the lineage only
//! where the latch took it (matched, self inactive, partner recruiting).
//! The quiet path steps the same pairs the table holds, because
//! [`RoundMatching::partner`] equals the table entry for every slot. Split
//! and death slots are emitted in ascending slot order,
//! and [`ColumnarStep::apply`] reaches the engine's vector semantics
//! (append daughters in split order, then swap-remove deaths descending)
//! through [`fill_deleted`]'s plan, so a [`ColumnarStep::store`] after any
//! number of resident rounds
//! reproduces the scalar vector byte for byte. `epoch_len` needs no
//! column: every step writes `params.epoch_len()` into every surviving
//! agent, so `store` pins it uniformly — exact because a store can only
//! observe stepped agents: daughters clone stepped parents, and an
//! adversarial insert or modify, written into the columns by `load` or
//! `alter` with its round normalized and its `epoch_len` dropped, is
//! stepped in the same round, before anything can read the vector. The
//! engine-level equivalence property tests
//! (`tests/columnar_equivalence.rs`) pin columnar vs scalar trajectories
//! bit-for-bit, and the golden fixtures pin both against history.
//!
//! # Latch hazards
//!
//! This section concerns the dense path; the quiet path reads both lanes
//! of a pair before it writes either, and pairs are disjoint.
//!
//! Lineage is the one field copied partner-to-agent, and messages are
//! simultaneous: a recruit must latch its recruiter's *pre-step* lineage
//! even if the recruiter's own lineage changes this round. A lane latches
//! its partner's lineage only under the latch mask `mm & !me & mx &
//! !active`: matched, itself inactive, and the partner advertising
//! `recruiting` on the wire (`x` set, `in_eval` clear). Lanes overwrite
//! their own lineage this round in two cases:
//!
//! - a leader-coin winner (round 0) or a recruit (Algorithm 5). Such a
//!   lane advertises `recruiting` only if it is recruiting at round 0 or
//!   inactive yet recruiting (adversarial states, which honest populations
//!   never hold). The wire pass lists exactly those lanes, with their
//!   pre-step lineage, in ascending slot order: the latch hazards.
//! - every live lane of an evaluation round, which resets its lineage
//!   through [`PopulationStability::step`], in uniform and mixed blocks
//!   alike. These lanes are not listed, and need not be: an evaluation
//!   lane advertises `in_eval`, and the `!me` term of the latch mask
//!   excludes such a partner.
//!
//! Every other latched lineage is read live from the column, because
//! nothing writes it this round.
//!
//! Every other column is cut into per-shard `&mut` windows at word-aligned
//! bounds ([`ShardPool::dispatch_parts`]), but a partner can sit in any
//! shard's range, so the step pass shares `lineage` whole. It is therefore
//! a column of [`AtomicU64`] accessed with `Relaxed` ordering, which is a
//! plain load or store on x86-64. `Relaxed` is enough for two reasons: the
//! dispatch barrier orders each pass's accesses against the next pass's,
//! and within the step pass the hazard list, not the memory model,
//! supplies every pre-step value a partner could latch from an element
//! that is written concurrently. Wherever the columns are held by `&mut`
//! (load, apply), lineage is accessed non-atomically through `get_mut`.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use popstab_sim::batch::ShardPool;
use popstab_sim::columns::{
    fill_deleted, tail_mask, word_shard_range, BitCol, ColumnarStep, Refill,
};
use popstab_sim::matching::{RoundMatching, UNMATCHED};
use popstab_sim::rng::slot_rng;
use popstab_sim::{Action, Protocol, RoundHistogram, RoundStats};

use crate::coin::toss_biased_coin;
use crate::message::{Message, Wire};
use crate::params::Params;
use crate::protocol::PopulationStability;
use crate::state::{AgentState, Color};

/// Per-shard outputs: the split/death lists of the dense step pass, merged
/// in shard (= slot) order, and the loud-lane count of the classification
/// pass.
#[derive(Debug, Default)]
struct ShardOut {
    splits: Vec<usize>,
    deaths: Vec<usize>,
    loud: usize,
}

/// Where a round's partners come from: a built table, or the engine's
/// matching, which builds its table only when the dense path asks.
enum Partners<'m, 'a> {
    Table(&'m [u32]),
    Matching(&'m mut RoundMatching<'a>),
}

impl Partners<'_, '_> {
    /// Slot `i`'s partner, or `None` when it is unmatched.
    #[inline]
    fn partner(&self, i: usize) -> Option<usize> {
        match self {
            Partners::Table(table) => {
                let p = table[i];
                (p != UNMATCHED).then_some(p as usize)
            }
            Partners::Matching(matching) => matching.partner(i),
        }
    }

    /// The whole partner table, built on `pool` if it was not yet.
    fn table(&mut self, pool: &ShardPool) -> &[u32] {
        match self {
            Partners::Table(table) => table,
            Partners::Matching(matching) => matching.table(pool),
        }
    }
}

/// Rounds have this bit set while the quiet path runs, on the lanes it has
/// already stepped (module docs, "The round structure"). Normalized rounds
/// stay below it whenever the epoch is at most `2³¹` rounds long, which
/// [`StabilityColumns::quiet_fits`] checks.
const STEPPED: u32 = 1 << 31;

/// The dense path runs a recruitment round in which more than one lane in
/// `DENSE_SHARE × shards` is loud: the measured crossover between the
/// serial loud pairs and the sharded dense passes (module docs, "The round
/// structure").
const DENSE_SHARE: usize = 16;

/// The struct-of-arrays store for [`PopulationStability`]: authoritative
/// agent state as columns, resident across rounds inside the engine.
pub struct StabilityColumns {
    /// The protocol whose [`Protocol::step`] evaluation and mixed-round
    /// blocks and leader winners run lane by lane; it owns the [`Params`].
    proto: PopulationStability,
    /// Live population; every column holds exactly this many lanes.
    len: usize,
    // Authoritative state columns (epoch_len is implicit; see module docs).
    round: Vec<u32>,
    to_recruit: Vec<u32>,
    /// Atomic only because partner latches read it across shards (module
    /// docs, "Latch hazards"); `Relaxed` accesses are plain moves.
    lineage: Vec<AtomicU64>,
    active: BitCol,
    recruiting: BitCol,
    color: BitCol,
    is_leader: BitCol,
    // Per-round scratch, rebuilt by the wire pass.
    /// Partner-readable wire byte per agent: [`Wire::bits`] (y, x, e low to
    /// high) plus [`WIRE8_PRESENT`], so one masked gather load yields all
    /// four partner masks at once. Sized to whole 64-lane blocks.
    wire8: Vec<u8>,
    /// Normalized round of each 64-agent block's first lane.
    block_round: Vec<u32>,
    /// Whether every lane of the block shares that round.
    block_uniform: Vec<bool>,
    /// Latch-hazard lanes: (slot, pre-step lineage), ascending by slot.
    hazards: Vec<(u32, u64)>,
    shard_hazards: Vec<Vec<(u32, u64)>>,
    shard_out: Vec<ShardOut>,
}

impl std::fmt::Debug for StabilityColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StabilityColumns")
            .field("params", self.proto.params())
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// The mutable authoritative columns of one word-aligned range, as the
/// step pass borrows them (range-local indices).
struct StateRange<'a> {
    round: &'a mut [u32],
    to_recruit: &'a mut [u32],
    active: &'a mut [u64],
    recruiting: &'a mut [u64],
    color: &'a mut [u64],
    is_leader: &'a mut [u64],
}

impl<'a> StateRange<'a> {
    /// The authoritative columns cut with `split_at_mut` into one window
    /// per shard, at the [`word_shard_range`] bounds of `shards`.
    fn shards(
        mut round: &'a mut [u32],
        mut to_recruit: &'a mut [u32],
        bits: [&'a mut BitCol; 4],
        shards: usize,
    ) -> Vec<Self> {
        let [mut active, mut recruiting, mut color, mut is_leader] = bits.map(BitCol::words_mut);
        let nw = active.len();
        (0..shards)
            .map(|s| {
                let (wlo, whi) = word_shard_range(nw, shards, s);
                let (words, lanes) = (whi - wlo, (whi - wlo) * 64);
                StateRange {
                    round: front(&mut round, lanes),
                    to_recruit: front(&mut to_recruit, lanes),
                    active: front(&mut active, words),
                    recruiting: front(&mut recruiting, words),
                    color: front(&mut color, words),
                    is_leader: front(&mut is_leader, words),
                }
            })
            .collect()
    }
}

/// Takes the first `k` items (at most all of them) off the front of `items`.
fn front<'a, T>(items: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    items
        .split_off_mut(..k.min(items.len()))
        .expect("clipped to the length")
}

/// Shard `s`'s [`word_shard_range`] over the `n.div_ceil(64)` words of a
/// population of `n`, and its lane range, clipped to `n`.
fn ranges(n: usize, shards: usize, s: usize) -> (usize, usize, usize, usize) {
    let (wlo, whi) = word_shard_range(n.div_ceil(64), shards, s);
    (wlo, whi, (wlo * 64).min(n), (whi * 64).min(n))
}

/// Bit 3 of a [`StabilityColumns::wire8`] byte: set on every live lane, so
/// a gathered byte carries its own "was matched" flag (unmatched lanes
/// gather a zeroed byte).
const WIRE8_PRESENT: u8 = 0b1000;

/// Spreads bit `k` of `b` to the least-significant bit of byte `k` (the
/// other byte bits zero). The multiply replicates `b` into every byte, the
/// diagonal mask isolates bit `k` inside byte `k`, and the `+ 0x7f`
/// carry-out turns "byte non-zero" into each byte's top bit — no step ever
/// carries across a byte boundary.
#[inline]
fn spread8(b: u8) -> u64 {
    let v = u64::from(b).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    ((v + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & 0x0101_0101_0101_0101
}

/// Packs the least-significant bit of byte `k` into bit `k` — the inverse
/// of [`spread8`]. Every partial product of the multiply lands on a
/// distinct bit position (`8k + 7m` collides for no two `(k, m)` pairs),
/// so the top byte accumulates the eight lane bits carry-free.
#[inline]
fn pack_lsb(t: u64) -> u64 {
    (t & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// One block's gathered partner masks plus geometry, register-resident
/// between the gather loop and the kernel that consumes it. Lane `l`
/// corresponds to global slot `slot0 + l`.
struct Block {
    slot0: usize,
    lanes: usize,
    tail: u64,
    /// Lane was matched this round.
    mm: u64,
    /// Partner's wire `in_eval` bit.
    me: u64,
    /// Partner's wire `x` bit.
    mx: u64,
    /// Partner's wire `y` bit.
    my: u64,
}

impl StabilityColumns {
    /// A store with empty columns; sized by [`ColumnarStep::load`].
    pub fn new(params: Params) -> StabilityColumns {
        StabilityColumns {
            proto: PopulationStability::new(params),
            len: 0,
            round: Vec::new(),
            to_recruit: Vec::new(),
            lineage: Vec::new(),
            active: BitCol::default(),
            recruiting: BitCol::default(),
            color: BitCol::default(),
            is_leader: BitCol::default(),
            wire8: Vec::new(),
            block_round: Vec::new(),
            block_uniform: Vec::new(),
            hazards: Vec::new(),
            shard_hazards: Vec::new(),
            shard_out: Vec::new(),
        }
    }

    /// Sizes the authoritative columns for a population of `n`. Lanes
    /// below both lengths keep their contents; the rest are unspecified
    /// until the load pass or [`StabilityColumns::refill`] writes them.
    fn resize(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        self.round.resize(n, 0);
        self.to_recruit.resize(n, 0);
        self.lineage.resize_with(n, AtomicU64::default);
        self.active.resize_words(nw);
        self.recruiting.resize_words(nw);
        self.color.resize_words(nw);
        self.is_leader.resize_words(nw);
        self.len = n;
    }

    /// The four flag columns.
    fn flags_mut(&mut self) -> [&mut BitCol; 4] {
        [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ]
    }

    /// Writes `s` into lane `i` as the load pass would, round normalized.
    fn write_lane(&mut self, i: usize, s: &AgentState) {
        self.round[i] = normalized_round(s.round, self.proto.params().epoch_len());
        self.to_recruit[i] = s.to_recruit;
        *self.lineage[i].get_mut() = s.lineage;
        self.active.set(i, s.active);
        self.recruiting.set(i, s.recruiting);
        self.color.set(i, s.color == Color::One);
        self.is_leader.set(i, s.is_leader);
    }

    /// Lane `i` as an [`AgentState`]; `epoch_len` pinned (module docs).
    fn read_lane(&self, i: usize) -> AgentState {
        AgentState {
            round: self.round[i],
            active: self.active.get(i),
            color: Color::from_bit(u8::from(self.color.get(i))),
            recruiting: self.recruiting.get(i),
            to_recruit: self.to_recruit[i],
            is_leader: self.is_leader.get(i),
            lineage: self.lineage[i].load(Relaxed),
            epoch_len: self.proto.params().epoch_len(),
        }
    }

    /// Copies lane `from` into lane `to`.
    fn copy_lane(&mut self, from: usize, to: usize) {
        self.round[to] = self.round[from];
        self.to_recruit[to] = self.to_recruit[from];
        let lineage = *self.lineage[from].get_mut();
        *self.lineage[to].get_mut() = lineage;
        for col in self.flags_mut() {
            let v = col.get(from);
            col.set(to, v);
        }
    }

    /// Appends `inserts` lanes and removes the `deleted` ones (ascending,
    /// deduplicated) as pushing the inserts and then swap-removing the
    /// deletes in descending order would, without growing past the final
    /// length: [`fill_deleted`]'s plan refills each deleted lane, every
    /// column is resized once, and the leftover inserts are appended.
    /// `insert(self, k, slot)` writes insert `k` into lane `slot`; it may
    /// read any lane that is not deleted, since the plan writes only
    /// deleted lanes before the resize.
    fn refill(
        &mut self,
        inserts: usize,
        deleted: &[usize],
        mut insert: impl FnMut(&mut Self, usize, usize),
    ) {
        let len = self.len;
        let end = fill_deleted(len, inserts, deleted, |slot, from| match from {
            Refill::Slot(j) => self.copy_lane(j, slot),
            Refill::Insert(k) => insert(self, k, slot),
        });
        self.resize(end);
        // Lanes vacated in the last word join the tail, whose bits stay
        // zero (`BitCol` docs).
        if end % 64 != 0 {
            for col in self.flags_mut() {
                col.words_mut()[end / 64] &= tail_mask(end % 64);
            }
        }
        for k in 0..end.saturating_sub(len) {
            insert(self, k, len + k);
        }
    }

    /// Whether every flag column holds exactly the population's words,
    /// with the bits at and above `len` zero ([`BitCol`]'s tail
    /// invariant, which the popcounts in [`ColumnarStep::stats`] rely on).
    fn tail_bits_clear(&self) -> bool {
        let (nw, lanes) = (self.len.div_ceil(64), self.len % 64);
        [&self.active, &self.recruiting, &self.color, &self.is_leader]
            .iter()
            .all(|col| {
                let words = col.words();
                words.len() == nw && (lanes == 0 || words[nw - 1] & !tail_mask(lanes) == 0)
            })
    }

    /// The transpose pass, sharded over word-aligned ranges of `pool`.
    fn load_pooled(&mut self, agents: &[AgentState], pool: &ShardPool) {
        let n = agents.len();
        self.resize(n);
        let (shards, t) = (pool.shards(), self.proto.params().epoch_len());
        let bits = [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ];
        let mut lineage = &mut self.lineage[..];
        let mut parts: Vec<_> =
            StateRange::shards(&mut self.round, &mut self.to_recruit, bits, shards)
                .into_iter()
                .map(|st| {
                    let lin = front(&mut lineage, st.round.len());
                    (st, lin)
                })
                .collect();
        pool.dispatch_parts(&mut parts, &|s, (st, lin)| {
            let (_, _, lo, hi) = ranges(n, shards, s);
            load_range(t, &agents[lo..hi], st, lin);
        });
    }

    /// One step phase (module docs, "The round structure"): the quiet path
    /// when lane 0 sits in recruitment and both the recruiters and the
    /// loud lanes the classification pass counts are few, the dense path
    /// over the partner table otherwise.
    fn step_round(
        &mut self,
        mut partners: Partners<'_, '_>,
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let Some(pool) = pool else {
            return ShardPool::with(1, |pool| {
                self.step_round(partners, round_key, Some(pool), splits, deaths);
            });
        };
        let params = self.proto.params();
        let lane0 = self
            .round
            .first()
            .map(|&r| normalized_round(r, params.epoch_len()));
        let cutoff = self.len / (DENSE_SHARE * pool.shards());
        let nw = self.len.div_ceil(64);
        self.block_round.resize(nw, 0);
        self.block_uniform.resize(nw, false);
        // Every recruiting lane is loud, so more recruiters than the cutoff
        // settle the round without the classification pass.
        let classified = lane0.is_none_or(|r| r != 0 && r != params.eval_round())
            && self.quiet_fits()
            && self
                .recruiting
                .words()
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
                <= cutoff;
        if classified && self.classify(pool) <= cutoff {
            self.step_quiet(&partners, round_key, pool, splits, deaths);
            return;
        }
        let partners = partners.table(pool);
        debug_assert_eq!(partners.len(), self.len);
        // Contents are unspecified: the wire pass stores every block whole.
        self.wire8.resize(nw * 64, 0);
        self.step_dense(partners, classified, round_key, pool, splits, deaths);
    }

    /// Whether every normalized round stays below [`STEPPED`].
    fn quiet_fits(&self) -> bool {
        self.proto.params().epoch_len() <= STEPPED
    }

    /// The classification pass, sharded over word-aligned ranges of
    /// `pool`: records each block's round and uniformity, and returns the
    /// number of loud lanes: the recruiting lanes of uniform recruitment
    /// blocks, and every lane of every other block.
    fn classify(&mut self, pool: &ShardPool) -> usize {
        let (n, shards) = (self.len, pool.shards());
        if self.shard_out.len() < shards {
            self.shard_out.resize_with(shards, ShardOut::default);
        }
        let params = self.proto.params();
        let (round, recruiting) = (&self.round[..], self.recruiting.words());
        let (mut brnd, mut buni) = (&mut self.block_round[..], &mut self.block_uniform[..]);
        let mut parts: Vec<_> = self.shard_out[..shards]
            .iter_mut()
            .enumerate()
            .map(|(s, out)| {
                let (wlo, whi, _, _) = ranges(n, shards, s);
                (
                    front(&mut brnd, whi - wlo),
                    front(&mut buni, whi - wlo),
                    out,
                )
            })
            .collect();
        pool.dispatch_parts(&mut parts, &|s, (brnd, buni, out)| {
            let (wlo, whi, lo, hi) = ranges(n, shards, s);
            out.loud = classify_range(params, &round[lo..hi], &recruiting[wlo..whi], brnd, buni);
        });
        self.shard_out[..shards].iter().map(|out| out.loud).sum()
    }

    /// The quiet path, after [`classify`](Self::classify): steps every
    /// loud lane with its partner, serially in slot order, then advances
    /// the uniform recruitment blocks in one sharded pass.
    fn step_quiet(
        &mut self,
        partners: &Partners<'_, '_>,
        round_key: u64,
        pool: &ShardPool,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let (s0, d0) = (splits.len(), deaths.len());
        let eval = self.proto.params().eval_round();
        for w in 0..self.len.div_ceil(64) {
            let lanes = (self.len - w * 64).min(64);
            let rn = self.block_round[w];
            let recruitment = self.block_uniform[w] && rn != 0 && rn != eval;
            let mut loud = tail_mask(lanes);
            if recruitment {
                // Exact for every lane not stepped yet: nothing else wrote
                // this round's bits.
                loud &= self.recruiting.words()[w];
            }
            while loud != 0 {
                let i = w * 64 + loud.trailing_zeros() as usize;
                loud &= loud - 1;
                // A lane already stepped as a smaller loud lane's partner.
                if self.round[i] & STEPPED == 0 {
                    self.step_pair(i, partners.partner(i), round_key, splits, deaths);
                }
            }
        }

        let (n, shards) = (self.len, pool.shards());
        let params = self.proto.params();
        let (block_round, block_uniform) = (&self.block_round[..], &self.block_uniform[..]);
        let bits = [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ];
        let mut parts = StateRange::shards(&mut self.round, &mut self.to_recruit, bits, shards);
        pool.dispatch_parts(&mut parts, &|s, st| {
            let (wlo, whi, _, _) = ranges(n, shards, s);
            advance_range(params, st, &block_round[wlo..whi], &block_uniform[wlo..whi]);
        });
        // Pairs are stepped in the order of their smaller loud lane.
        splits[s0..].sort_unstable();
        deaths[d0..].sort_unstable();
    }

    /// Steps lane `i` and its partner `p` through
    /// [`PopulationStability::step`], each on its own slot stream, with the
    /// messages composed from both pre-step states before either lane is
    /// written back; an unmatched `i` steps alone.
    fn step_pair(
        &mut self,
        i: usize,
        p: Option<usize>,
        round_key: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let state = self.read_lane(i);
        let Some(p) = p else {
            self.step_lane(i, state, None, round_key, splits, deaths);
            return;
        };
        debug_assert!(self.round[p] & STEPPED == 0, "lane {p} stepped twice");
        let partner = self.read_lane(p);
        let (to_i, to_p) = (self.proto.message(&partner), self.proto.message(&state));
        self.step_lane(i, state, Some(&to_i), round_key, splits, deaths);
        self.step_lane(p, partner, Some(&to_p), round_key, splits, deaths);
    }

    /// Steps `state`, lane `slot`'s pre-step state, on the lane's slot
    /// stream, writes it back with its round marked [`STEPPED`], and pushes
    /// its split or death.
    fn step_lane(
        &mut self,
        slot: usize,
        mut state: AgentState,
        incoming: Option<&Message>,
        round_key: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let mut rng = slot_rng(round_key, slot as u64);
        match self.proto.step(&mut state, incoming, &mut rng) {
            Action::Split => splits.push(slot),
            Action::Die => deaths.push(slot),
            Action::Continue | Action::KillPartner => {}
        }
        self.write_lane(slot, &state);
        self.round[slot] |= STEPPED;
    }

    /// The dense path: the wire + step passes over the partner table,
    /// sharded over word-aligned ranges of `pool`, with a barrier in
    /// between (the step pass reads *global* wire bits and hazards written
    /// by the wire pass).
    fn step_dense(
        &mut self,
        partners: &[u32],
        classified: bool,
        round_key: u64,
        pool: &ShardPool,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let StabilityColumns {
            proto,
            len: n,
            round,
            to_recruit,
            lineage,
            active,
            recruiting,
            color,
            is_leader,
            wire8,
            block_round,
            block_uniform,
            hazards,
            shard_hazards,
            shard_out,
        } = self;
        let (n, shards) = (*n, pool.shards());
        if shard_out.len() < shards {
            shard_out.resize_with(shards, ShardOut::default);
        }
        if shard_hazards.len() < shards {
            shard_hazards.resize_with(shards, Vec::new);
        }
        let proto: &PopulationStability = proto;
        let lineage: &[AtomicU64] = lineage;

        // Pass 1: wire, each shard reading its own agents' state and writing
        // its own window of the wire column and its own hazard list.
        let (mut w8, mut brnd, mut buni) =
            (&mut wire8[..], &mut block_round[..], &mut block_uniform[..]);
        let mut parts: Vec<_> = shard_hazards[..shards]
            .iter_mut()
            .enumerate()
            .map(|(s, hz)| {
                let (wlo, whi, _, _) = ranges(n, shards, s);
                let words = whi - wlo;
                (
                    front(&mut w8, words * 64),
                    front(&mut brnd, words),
                    front(&mut buni, words),
                    hz,
                )
            })
            .collect();
        let (rnd, act, rec, col) = (
            &round[..],
            active.words(),
            recruiting.words(),
            color.words(),
        );
        pool.dispatch_parts(&mut parts, &|s, (w8, brnd, buni, hz)| {
            let (wlo, whi, lo, hi) = ranges(n, shards, s);
            hz.clear();
            wire_range(
                proto,
                lo,
                &rnd[lo..hi],
                &lineage[lo..hi],
                &act[wlo..whi],
                &rec[wlo..whi],
                &col[wlo..whi],
                w8,
                classified,
                brnd,
                buni,
                hz,
            );
        });

        // Shard s covers smaller slots than shard s + 1, and each shard's
        // hazards are ascending, so concatenation stays sorted by slot.
        hazards.clear();
        for hz in &shard_hazards[..shards] {
            hazards.extend_from_slice(hz);
        }
        let (hazards, wire8) = (&hazards[..], &wire8[..]);
        let (block_round, block_uniform) = (&block_round[..], &block_uniform[..]);

        // Pass 2: gather + step, each shard writing only its own windows of
        // the state columns and its own output lists. Lineage is shared:
        // partner latches read it across shards (module docs).
        let bits = [active, recruiting, color, is_leader];
        let mut parts: Vec<_> = StateRange::shards(round, to_recruit, bits, shards)
            .into_iter()
            .zip(shard_out.iter_mut())
            .collect();
        pool.dispatch_parts(&mut parts, &|s, (st, out)| {
            let (wlo, whi, lo, hi) = ranges(n, shards, s);
            out.splits.clear();
            out.deaths.clear();
            step_range(
                proto,
                round_key,
                lo,
                &partners[lo..hi],
                wire8,
                hazards,
                lineage,
                st,
                &block_round[wlo..whi],
                &block_uniform[wlo..whi],
                &mut out.splits,
                &mut out.deaths,
            );
        });

        // Shard s covers smaller slots than shard s + 1, so concatenation
        // in shard order keeps the splits and deaths in ascending slot order.
        for out in &shard_out[..shards] {
            splits.extend_from_slice(&out.splits);
            deaths.extend_from_slice(&out.deaths);
        }
    }
}

impl ColumnarStep<AgentState> for StabilityColumns {
    fn load(&mut self, agents: &[AgentState], pool: Option<&ShardPool>) {
        match pool {
            Some(pool) => self.load_pooled(agents, pool),
            None => ShardPool::with(1, |pool| self.load_pooled(agents, pool)),
        }
    }

    /// Routes the round as [`step_matched`](ColumnarStep::step_matched)
    /// does, reading single partners from the table.
    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        debug_assert_eq!(partners.len(), self.len);
        self.step_round(Partners::Table(partners), round_key, pool, splits, deaths);
    }

    /// Builds the partner table only on the dense path (module docs, "The
    /// round structure").
    fn step_matched(
        &mut self,
        matching: &mut RoundMatching<'_>,
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        debug_assert_eq!(matching.population(), self.len);
        self.step_round(
            Partners::Matching(matching),
            round_key,
            pool,
            splits,
            deaths,
        );
    }

    /// Runs [`fill_deleted`]'s plan, as [`alter`](ColumnarStep::alter)
    /// does, with the daughters as its inserts, each a copy of its
    /// parent's lane. No parent dies ([`PopulationStability`] gives each
    /// lane one action), and the plan writes only dead lanes until the
    /// resize, so every parent is read intact.
    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        debug_assert!(
            splits.iter().all(|p| deaths.binary_search(p).is_err()),
            "a split parent also dies"
        );
        self.refill(splits.len(), deaths, |cols, k, slot| {
            cols.copy_lane(splits[k], slot);
        });
    }

    /// Runs [`fill_deleted`]'s plan after the modifies: `O(K)` work against
    /// the `O(N)` store and reload it replaces. An insert off the majority
    /// round makes its block mixed-round, which the step runs through
    /// [`PopulationStability::step`].
    fn alter(
        &mut self,
        inserted: &[AgentState],
        modified: &[(usize, AgentState)],
        deleted: &[usize],
    ) -> bool {
        for (slot, state) in modified {
            self.write_lane(*slot, state);
        }
        self.refill(inserted.len(), deleted, |cols, k, slot| {
            cols.write_lane(slot, &inserted[k]);
        });
        true
    }

    fn store(&self, agents: &mut Vec<AgentState>) {
        let t = self.proto.params().epoch_len();
        agents.clear();
        agents.reserve(self.len);
        let aw = self.active.words();
        let rw = self.recruiting.words();
        let cw = self.color.words();
        let iw = self.is_leader.words();
        for la in 0..self.len {
            let (w, b) = (la >> 6, la & 63);
            agents.push(AgentState {
                round: self.round[la],
                active: aw[w] >> b & 1 != 0,
                color: if cw[w] >> b & 1 != 0 {
                    Color::One
                } else {
                    Color::Zero
                },
                recruiting: rw[w] >> b & 1 != 0,
                to_recruit: self.to_recruit[la],
                is_leader: iw[w] >> b & 1 != 0,
                lineage: self.lineage[la].load(Relaxed),
                epoch_len: t,
            });
        }
    }

    /// Popcounts over the flag columns and one epoch-round histogram over
    /// the `round` column. Exact by the store contract (module docs):
    /// `store` writes the column's round, which is normalized, and pins
    /// `epoch_len`, so an agent is in eval exactly when its round is
    /// `epoch_len − 1`.
    fn stats(&self) -> Option<RoundStats> {
        debug_assert!(self.tail_bits_clear(), "flag bits set past the population");
        let (n, nw) = (self.len, self.len.div_ceil(64));
        let mut stats = RoundStats {
            population: n,
            ..RoundStats::default()
        };
        let (aw, rw, cw, iw) = (
            self.active.words(),
            self.recruiting.words(),
            self.color.words(),
            self.is_leader.words(),
        );
        let mut rounds = RoundHistogram::new();
        for w in 0..nw {
            let lanes = (n - w * 64).min(64);
            let tailm = tail_mask(lanes);
            let active = aw[w] & tailm;
            stats.active += active.count_ones() as usize;
            stats.color1 += (active & cw[w]).count_ones() as usize;
            stats.recruiting += (rw[w] & tailm).count_ones() as usize;
            stats.leaders += (iw[w] & tailm).count_ones() as usize;
            // A block whose lanes agree on the round counts at once; a
            // desynced one (adversarial inserts) lane by lane.
            let block = &self.round[w * 64..w * 64 + lanes];
            let r0 = block[0];
            if block.iter().fold(0, |acc, &r| acc | (r ^ r0)) == 0 {
                rounds.add_n(r0, lanes);
            } else {
                rounds.add_all(block.iter().copied());
            }
        }
        stats.color0 = stats.active - stats.color1;
        stats.in_eval = rounds.count(self.proto.params().eval_round());
        stats.tally_rounds(&rounds);
        Some(stats)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let shard_lists: usize = self
            .shard_out
            .iter()
            .map(|o| (o.splits.capacity() + o.deaths.capacity()) * size_of::<usize>())
            .sum::<usize>()
            + self
                .shard_hazards
                .iter()
                .map(|h| h.capacity() * size_of::<(u32, u64)>())
                .sum::<usize>();
        self.round.capacity() * size_of::<u32>()
            + self.to_recruit.capacity() * size_of::<u32>()
            + self.lineage.capacity() * size_of::<AtomicU64>()
            + self.active.capacity_bytes()
            + self.recruiting.capacity_bytes()
            + self.color.capacity_bytes()
            + self.is_leader.capacity_bytes()
            + self.wire8.capacity()
            + self.block_round.capacity() * size_of::<u32>()
            + self.block_uniform.capacity()
            + self.hazards.capacity() * size_of::<(u32, u64)>()
            + shard_lists
    }
}

/// An agent's round as the columns hold it: reduced modulo the epoch length
/// `t`. Exact, because the scalar step normalizes before any use and a
/// store can only observe stepped (hence normalized) agents.
#[inline]
fn normalized_round(round: u32, t: u32) -> u32 {
    if round < t {
        round
    } else {
        round % t
    }
}

/// A block's round, normalized, and whether every lane holds the same one.
#[inline]
fn block_class(rounds: &[u32], t: u32) -> (u32, bool) {
    let r0 = rounds[0];
    let uniform = rounds.iter().fold(0, |acc, &r| acc | (r ^ r0)) == 0;
    (normalized_round(r0, t), uniform)
}

/// Classification pass over one range: each block's round and uniformity,
/// and the range's loud lanes, which are the recruiting lanes of uniform
/// recruitment blocks and every lane of the other blocks.
fn classify_range(
    params: &Params,
    round: &[u32],
    recruiting: &[u64],
    block_round: &mut [u32],
    block_uniform: &mut [bool],
) -> usize {
    let (t, eval, len) = (params.epoch_len(), params.eval_round(), round.len());
    let mut loud = 0;
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        let (rn, uniform) = block_class(&round[w * 64..w * 64 + lanes], t);
        block_round[w] = rn;
        block_uniform[w] = uniform;
        loud += if uniform && rn != 0 && rn != eval {
            (recruiting[w] & tail_mask(lanes)).count_ones() as usize
        } else {
            lanes
        };
    }
    loud
}

/// The quiet pass over one range, after every loud lane was stepped with
/// its partner: each uniform recruitment block advances every lane as a
/// quiet one ([`advance_quiet`]), which is what its stepped lanes already
/// did (and a dead lane's state is never read again); every other block,
/// all of whose lanes were stepped, drops its [`STEPPED`] marks.
fn advance_range(
    params: &Params,
    st: &mut StateRange<'_>,
    block_round: &[u32],
    block_uniform: &[bool],
) {
    let (eval, len) = (params.eval_round(), st.round.len());
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        let rounds = &mut st.round[w * 64..w * 64 + lanes];
        let rn = block_round[w];
        if block_uniform[w] && rn != 0 && rn != eval {
            advance_quiet(params, rn, rounds, st.active[w], &mut st.recruiting[w]);
        } else {
            for r in rounds {
                *r &= !STEPPED;
            }
        }
    }
}

/// Transpose pass: stream `agents` (one range) once into the authoritative
/// columns. Bit words are built in registers and stored whole, so stale
/// buffer contents and tail bits never leak. Rounds are normalized on the
/// way in ([`normalized_round`]).
fn load_range(t: u32, agents: &[AgentState], st: &mut StateRange<'_>, lineage: &mut [AtomicU64]) {
    for (w, chunk) in agents.chunks(64).enumerate() {
        let mut wa = 0u64;
        let mut wr = 0u64;
        let mut wc = 0u64;
        let mut il = 0u64;
        for (l, s) in chunk.iter().enumerate() {
            let la = w * 64 + l;
            wa |= u64::from(s.active) << l;
            wr |= u64::from(s.recruiting) << l;
            wc |= u64::from(s.color == Color::One) << l;
            il |= u64::from(s.is_leader) << l;
            st.round[la] = normalized_round(s.round, t);
            st.to_recruit[la] = s.to_recruit;
            *lineage[la].get_mut() = s.lineage;
        }
        st.active[w] = wa;
        st.recruiting[w] = wr;
        st.color[w] = wc;
        st.is_leader[w] = il;
    }
}

/// Wire pass: compose every agent's three-bit [`Wire`] (Algorithm 2) from
/// the columns as word algebra, publish it into the `wire8` byte column,
/// and list latch-hazard lanes. `base` is the global slot of the range's
/// first lane (word-aligned); `wire8` is the range's own `64 * words`-byte
/// window. Each block's round and uniformity are recorded here, unless the
/// classification pass already did (`classified`).
#[allow(clippy::too_many_arguments)]
fn wire_range(
    proto: &PopulationStability,
    base: usize,
    round: &[u32],
    lineage: &[AtomicU64],
    active: &[u64],
    recruiting: &[u64],
    color: &[u64],
    wire8: &mut [u8],
    classified: bool,
    block_round: &mut [u32],
    block_uniform: &mut [bool],
    hazards: &mut Vec<(u32, u64)>,
) {
    let params = proto.params();
    let t = params.epoch_len();
    let (eval, len) = (params.eval_round(), round.len());
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        let tailm = tail_mask(lanes);
        let rounds = &round[w * 64..w * 64 + lanes];
        if !classified {
            (block_round[w], block_uniform[w]) = block_class(rounds, t);
        }
        let rn0 = block_round[w];
        let (ew, zw);
        if block_uniform[w] {
            ew = if rn0 == eval { tailm } else { 0 };
            zw = if rn0 == 0 { tailm } else { 0 };
        } else {
            let mut e_bits = 0u64;
            let mut z_bits = 0u64;
            for (l, &r) in rounds.iter().enumerate() {
                let rn = normalized_round(r, t);
                e_bits |= u64::from(rn == eval) << l;
                z_bits |= u64::from(rn == 0) << l;
            }
            ew = e_bits;
            zw = z_bits;
        }
        let wa = active[w] & tailm;
        let wr = recruiting[w] & tailm;
        let wc = color[w] & tailm;
        // Algorithm 2 as word algebra: in eval, (x, y) = (active, color);
        // recruiting agents advertise (1, color); the rest (0, active).
        let xw = (ew & wa) | (!ew & wr);
        let o = ew | wr;
        let yw = (o & wc) | (!o & wa);
        // Publish the block's 64 wire bytes, eight lanes per store. Tail
        // lanes get the bare presence bit; no valid partner slot reaches
        // them, so the garbage is unobservable.
        for g in 0..8 {
            let sh = g * 8;
            let v = spread8((yw >> sh) as u8)
                | (spread8((xw >> sh) as u8) << 1)
                | (spread8((ew >> sh) as u8) << 2)
                | (u64::from(WIRE8_PRESENT) * 0x0101_0101_0101_0101);
            wire8[w * 64 + sh..w * 64 + sh + 8].copy_from_slice(&v.to_le_bytes());
        }
        debug_assert!((0..lanes).all(|l| {
            let lane = AgentState {
                active: wa >> l & 1 != 0,
                color: Color::from_bit((wc >> l) as u8),
                recruiting: wr >> l & 1 != 0,
                ..AgentState::desynced(params, rounds[l])
            };
            let got = (yw >> l & 1) as u8 | ((xw >> l & 1) as u8) << 1 | ((ew >> l & 1) as u8) << 2;
            got == proto.message(&lane).to_wire().bits() && wire8[w * 64 + l] == got | WIRE8_PRESENT
        }));
        // Latch-hazard lanes (module docs): advertising `recruiting` on the
        // wire while this round may overwrite their own lineage.
        let mut hz = wr & !ew & (zw | !wa);
        while hz != 0 {
            let l = hz.trailing_zeros() as usize;
            hz &= hz - 1;
            hazards.push((
                (base + w * 64 + l) as u32,
                lineage[w * 64 + l].load(Relaxed),
            ));
        }
    }
}

/// A matched, non-eval, recruiting partner's pre-step lineage: from the
/// hazard list if the lane's own lineage may change this round, else live
/// from the column.
#[inline]
fn latched_lineage(lineage: &[AtomicU64], hazards: &[(u32, u64)], p: usize) -> u64 {
    if !hazards.is_empty() {
        if let Ok(k) = hazards.binary_search_by_key(&(p as u32), |h| h.0) {
            return hazards[k].1;
        }
    }
    // A latched partner advertises `recruiting` and not `in_eval`, so if
    // this round overwrites its lineage it is hazard-listed (module docs):
    // this one holds its pre-step value for the whole step pass.
    lineage[p].load(Relaxed)
}

/// Step pass: per block, gather the partners' wire bytes into register
/// masks and run the round transition, writing results straight into the
/// columns. `base` is the global slot of the range's first lane
/// (word-aligned); `wire8` and `lineage` are the *global* columns (a
/// partner may sit in any shard's range); splits/deaths carry global slots
/// in ascending order.
#[allow(clippy::too_many_arguments)]
fn step_range(
    proto: &PopulationStability,
    round_key: u64,
    base: usize,
    partners: &[u32],
    wire8: &[u8],
    hazards: &[(u32, u64)],
    lin: &[AtomicU64],
    st: &mut StateRange<'_>,
    block_round: &[u32],
    block_uniform: &[bool],
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    let params = proto.params();
    let (eval, len) = (params.eval_round(), partners.len());
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        // Gather this block's partner masks: one masked byte load per lane,
        // branch-free (a random `p != UNMATCHED` branch would mispredict
        // half the time), then one bit-plane transpose per eight lanes.
        // The presence bit doubles as the matched mask, and the byte column
        // stays cache-resident even at million-agent scale.
        let mut mm = 0u64;
        let mut me = 0u64;
        let mut mx = 0u64;
        let mut my = 0u64;
        for (g, chunk) in partners[w * 64..w * 64 + lanes].chunks(8).enumerate() {
            let mut t = 0u64;
            for (b, &p) in chunk.iter().enumerate() {
                let sel = p != UNMATCHED;
                let idx = if sel { p as usize } else { 0 };
                // An unmatched lane reads slot 0 and masks the byte off; a
                // partner slot past the column panics on the bound check
                // (`ColumnarStep::step` takes any table from safe code).
                let byte = wire8[idx] & 0u8.wrapping_sub(u8::from(sel));
                t |= u64::from(byte) << (b * 8);
            }
            let sh = g * 8;
            my |= pack_lsb(t) << sh;
            mx |= pack_lsb(t >> 1) << sh;
            me |= pack_lsb(t >> 2) << sh;
            mm |= pack_lsb(t >> 3) << sh;
        }
        let blk = Block {
            slot0: base + w * 64,
            lanes,
            tail: tail_mask(lanes),
            mm,
            me,
            mx,
            my,
        };
        // Latch the partner's pre-step lineage at every lane the
        // recruitment rule could read it from: matched, self inactive,
        // partner advertising `recruiting` (not-eval with `x` set).
        let mut plin = [0u64; 64];
        let mut latch = mm & !me & mx & !st.active[w];
        while latch != 0 {
            let l = latch.trailing_zeros() as usize;
            latch &= latch - 1;
            let p = partners[w * 64 + l] as usize;
            plin[l] = latched_lineage(lin, hazards, p);
        }
        let rn = block_round[w];
        if block_uniform[w] && rn == 0 {
            leader_block(proto, round_key, &blk, st, w, lin, deaths);
        } else if block_uniform[w] && rn != eval {
            recruit_block(params, rn, &blk, st, w, lin, &plin, deaths);
        } else {
            // The evaluation round (one in T), or lanes that disagree on the
            // round (adversarial desync): run the protocol's own transition
            // lane by lane, in slot order.
            for (l, &partner) in plin.iter().enumerate().take(lanes) {
                match scalar_step(proto, round_key, &blk, l, partner, st, w, lin) {
                    Action::Split => splits.push(blk.slot0 + l),
                    Action::Die => deaths.push(blk.slot0 + l),
                    Action::Continue | Action::KillPartner => {}
                }
            }
        }
    }
}

/// Steps lane `l` of block `w` through [`Protocol::step`] itself: builds
/// the lane's [`AgentState`] from the columns and its partner's [`Message`]
/// from the gathered wire bits and `plin` (the latched partner lineage,
/// valid wherever the recruitment rule reads it), draws from the lane's
/// own slot stream, and writes the state back. The lineage element is
/// written only if the step changed it: at a lane that advertises no
/// `recruiting`, at a hazard-listed lane, or at an evaluation lane, which
/// advertises `in_eval` and so fails the latch mask `mm & !me & mx &
/// !active` (module docs).
#[allow(clippy::too_many_arguments)]
fn scalar_step(
    proto: &PopulationStability,
    round_key: u64,
    blk: &Block,
    l: usize,
    plin: u64,
    st: &mut StateRange<'_>,
    w: usize,
    lin: &[AtomicU64],
) -> Action {
    let (i, slot, bit) = (w * 64 + l, blk.slot0 + l, 1u64 << l);
    let has = |word: u64| word & bit != 0;
    let lineage = lin[slot].load(Relaxed);
    let mut s = AgentState {
        round: st.round[i],
        active: has(st.active[w]),
        color: Color::from_bit((st.color[w] >> l) as u8),
        recruiting: has(st.recruiting[w]),
        to_recruit: st.to_recruit[i],
        is_leader: has(st.is_leader[w]),
        lineage,
        epoch_len: proto.params().epoch_len(),
    };
    let incoming = has(blk.mm)
        .then(|| Message::from_wire(Wire::from_bits(has(blk.me), has(blk.mx), has(blk.my)), plin));
    let mut rng = slot_rng(round_key, slot as u64);
    let action = proto.step(&mut s, incoming.as_ref(), &mut rng);
    st.round[i] = s.round;
    st.to_recruit[i] = s.to_recruit;
    for (word, set) in [
        (&mut st.active[w], s.active),
        (&mut st.recruiting[w], s.recruiting),
        (&mut st.color[w], s.color == Color::One),
        (&mut st.is_leader[w], s.is_leader),
    ] {
        *word = *word & !bit | u64::from(set) << l;
    }
    if s.lineage != lineage {
        lin[slot].store(s.lineage, Relaxed);
    }
    action
}

/// Round 0 (Algorithm 3, `DetermineIfLeader`) over one uniform block.
fn leader_block(
    proto: &PopulationStability,
    round_key: u64,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: &[AtomicU64],
    deaths: &mut Vec<usize>,
) {
    // Consistency (Algorithm 7): a matched partner claiming eval kills us
    // before anything else; dead lanes keep their state (round stays 0).
    let die = blk.mm & blk.me;
    let live = !die & blk.tail;
    let exp = proto.params().leader_bias_exp();
    // Each lane's coin is the first draw `Protocol::step` makes on its slot
    // stream in round 0.
    let mut win = 0u64;
    for l in 0..blk.lanes {
        let mut rng = slot_rng(round_key, (blk.slot0 + l) as u64);
        win |= u64::from(toss_biased_coin(exp, &mut rng)) << l;
    }
    win &= live;
    // Winners are ~2^-exp rare: each runs `Protocol::step` on its own slot
    // stream, which redraws the coin, then color and lineage. Round 0 never
    // reads a partner's lineage, so none is latched.
    let mut bits = win;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        scalar_step(proto, round_key, blk, l, 0, st, w, lin);
        debug_assert!(
            st.active[w] >> l & 1 != 0,
            "a coin winner must replay as a scalar winner"
        );
    }
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = (live >> l & 1) as u32;
    }
    // Losers: `active` is *assigned* false (Algorithm 3 overwrites whatever
    // an adversarially inserted agent claimed); winners and dead lanes keep
    // theirs.
    st.active[w] &= die | win;
    let mut bits = die;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        deaths.push(blk.slot0 + l);
    }
}

/// Rounds `1 … T−2` (Algorithm 5, `RecruitmentPhase`) over one uniform
/// block, as pure mask algebra (the only coin-free phase).
#[allow(clippy::too_many_arguments)]
fn recruit_block(
    params: &Params,
    rn: u32,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: &[AtomicU64],
    plin: &[u64; 64],
    deaths: &mut Vec<usize>,
) {
    let die = blk.mm & blk.me;
    let live = !die & blk.tail;
    let active = st.active[w];
    let recruiting = st.recruiting[w];
    // Word-level wire decode (Wire::active / Wire::recruiting, vectorized);
    // only meaningful under `mm`, and always consumed under it.
    let p_active = (blk.me & blk.mx) | (!blk.me & (blk.mx | blk.my));
    let p_recruiting = !blk.me & blk.mx;
    let stand_down = recruiting & blk.mm & !p_active & live;
    let recruited = !active & p_recruiting & blk.mm & live;
    // The scalar `else if` order cannot matter: a recruiting wire implies
    // an active wire, so the two branch conditions are disjoint.
    debug_assert_eq!(stand_down & recruited, 0);
    let mut recruiting_new = recruiting & !(stand_down | recruited);
    if params.is_subphase_boundary(rn) {
        // Re-arm uses the *updated* active set: an agent recruited at a
        // boundary round re-arms immediately, exactly as in the scalar
        // branch order.
        recruiting_new |= (active | recruited) & live;
    }
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = rn + (live >> l & 1) as u32;
    }
    st.active[w] = active | recruited;
    st.recruiting[w] = recruiting_new;
    let mut wc = st.color[w];
    let mut bits = recruited;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if blk.my >> l & 1 != 0 {
            wc |= 1u64 << l;
        } else {
            wc &= !(1u64 << l);
        }
        st.to_recruit[w * 64 + l] = params.to_recruit_at(rn);
        // A recruit's own lineage element; if any partner could latch it,
        // the lane is hazard-listed and readers use the list.
        lin[blk.slot0 + l].store(plin[l], Relaxed);
    }
    st.color[w] = wc;
    let mut bits = stand_down;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let tr = &mut st.to_recruit[w * 64 + l];
        *tr = tr.saturating_sub(1);
    }
    let mut bits = die;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        deaths.push(blk.slot0 + l);
    }
}

/// Rounds `1 … T−2` (Algorithm 5) for a uniform recruitment block at
/// round `rn` none of whose lanes recruits or hears a recruiting or
/// evaluating partner. Algorithm 7's check passes, and of Algorithm 5 only
/// two things reach them: the round advances, and at a subphase boundary
/// every active lane re-arms. Neither draws a coin.
#[inline]
fn advance_quiet(params: &Params, rn: u32, rounds: &mut [u32], active: u64, recruiting: &mut u64) {
    rounds.fill(rn + 1);
    if params.is_subphase_boundary(rn) {
        *recruiting |= active & tail_mask(rounds.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::rng::{rng_from_seed, round_key};
    use popstab_sim::{MatchingModel, Protocol};

    /// One scalar reference round: messages, steps, splits/deaths.
    fn scalar_round(
        proto: &PopulationStability,
        agents: &mut [AgentState],
        partners: &[u32],
        rkey: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let messages: Vec<Option<crate::message::Message>> = partners
            .iter()
            .map(|&p| {
                if p == UNMATCHED {
                    None
                } else {
                    Some(proto.message(&agents[p as usize]))
                }
            })
            .collect();
        for (i, incoming) in messages.iter().enumerate() {
            let mut rng = slot_rng(rkey, i as u64);
            match proto.step(&mut agents[i], incoming.as_ref(), &mut rng) {
                Action::Continue => {}
                Action::Split => splits.push(i),
                Action::Die => deaths.push(i),
                Action::KillPartner => unreachable!("core protocol never kills partners"),
            }
        }
    }

    fn partner_table(n: usize, seed: u64, round: u64) -> Vec<u32> {
        let mut partners = Vec::new();
        let mkey = round_key(seed ^ 0x6d61, round);
        let mut matching =
            RoundMatching::new(&mut partners, &mut Vec::new(), n, MatchingModel::Full, mkey);
        ShardPool::with(1, |pool| {
            matching.table(pool);
        });
        partners
    }

    /// Drives one load → step → store cycle (on `pool`, or one shard) and
    /// the scalar `Protocol::step` loop over the same population + matching
    /// and asserts bit-identical states, splits, and deaths — the
    /// unit-level twin of the engine-level equivalence tests. Returns the
    /// stepped population.
    fn assert_step_phase_matches_scalar(
        proto: &PopulationStability,
        agents: &[AgentState],
        seed: u64,
        round: u64,
        pool: Option<&ShardPool>,
    ) -> Vec<AgentState> {
        let partners = partner_table(agents.len(), seed, round);
        let rkey = round_key(seed, round);

        let mut scalar = agents.to_vec();
        let mut s_splits = Vec::new();
        let mut s_deaths = Vec::new();
        scalar_round(
            proto,
            &mut scalar,
            &partners,
            rkey,
            &mut s_splits,
            &mut s_deaths,
        );

        let mut stepper = StabilityColumns::new(proto.params().clone());
        stepper.load(agents, pool);
        let mut c_splits = Vec::new();
        let mut c_deaths = Vec::new();
        stepper.step(&partners, rkey, pool, &mut c_splits, &mut c_deaths);
        let mut columnar = Vec::new();
        stepper.store(&mut columnar);

        assert_eq!(scalar, columnar, "states diverged at round {round}");
        assert_eq!(s_splits, c_splits, "splits diverged at round {round}");
        assert_eq!(s_deaths, c_deaths, "deaths diverged at round {round}");
        columnar
    }

    /// The leader round at every coin width: exponents at and across the
    /// 64-flip word boundary, low ones that mix winners and losers in one
    /// word, and the default; 300 lanes are 4 full words plus a 44-lane
    /// tail, stepped on one shard and on three.
    #[test]
    fn leader_round_matches_scalar_at_every_coin_width() {
        for exp in [
            Some(0),
            Some(1),
            Some(2),
            None,
            Some(63),
            Some(64),
            Some(65),
            Some(128),
        ] {
            let builder = Params::builder(1024);
            let params = match exp {
                Some(e) => builder.leader_bias_exp(e),
                None => builder,
            }
            .build()
            .unwrap();
            let proto = PopulationStability::new(params.clone());
            let agents: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
            for seed in [3, 17, 2018] {
                let serial = assert_step_phase_matches_scalar(&proto, &agents, seed, 0, None);
                let sharded = ShardPool::with(3, |pool| {
                    assert_step_phase_matches_scalar(&proto, &agents, seed, 0, Some(pool))
                });
                assert_eq!(serial, sharded, "exp {exp:?} seed {seed}: shards diverged");
                if exp == Some(1) {
                    assert!(
                        serial.iter().any(|s| s.active) && serial.iter().any(|s| !s.active),
                        "exp 1 seed {seed}: no mixed verdicts"
                    );
                }
            }
        }
    }

    #[test]
    fn columnar_step_matches_scalar_across_whole_epochs() {
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut agents: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
        // Drive the *population* forward with the scalar path, checking
        // every round's step phase on the way (covers leader, boundary,
        // plain recruitment, and eval rounds).
        for round in 0..u64::from(params.epoch_len()) + 3 {
            assert_step_phase_matches_scalar(&proto, &agents, 77, round, None);
            let partners = partner_table(agents.len(), 77, round);
            let rkey = round_key(77, round);
            let (mut splits, mut deaths) = (Vec::new(), Vec::new());
            scalar_round(
                &proto,
                &mut agents,
                &partners,
                rkey,
                &mut splits,
                &mut deaths,
            );
        }
    }

    #[test]
    fn resident_columns_match_scalar_over_epochs_with_apply() {
        // The resident lifecycle: load once, then step + apply round after
        // round on the columns alone (population changing through splits
        // and deaths), storing only at the very end. Must reproduce the
        // scalar trajectory byte for byte.
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut scalar: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
        let mut stepper = StabilityColumns::new(params.clone());
        stepper.load(&scalar, None);
        for round in 0..2 * u64::from(params.epoch_len()) + 3 {
            let partners = partner_table(scalar.len(), 909, round);
            let rkey = round_key(909, round);
            let (mut s_splits, mut s_deaths) = (Vec::new(), Vec::new());
            scalar_round(
                &proto,
                &mut scalar,
                &partners,
                rkey,
                &mut s_splits,
                &mut s_deaths,
            );
            let (mut c_splits, mut c_deaths) = (Vec::new(), Vec::new());
            stepper.step(&partners, rkey, None, &mut c_splits, &mut c_deaths);
            assert_eq!(s_splits, c_splits, "splits diverged at round {round}");
            assert_eq!(s_deaths, c_deaths, "deaths diverged at round {round}");
            // Engine apply semantics on both representations.
            s_deaths.sort_unstable();
            s_deaths.dedup();
            for &i in &s_splits {
                let d = scalar[i];
                scalar.push(d);
            }
            for &i in s_deaths.iter().rev() {
                scalar.swap_remove(i);
            }
            stepper.apply(&c_splits, &s_deaths);
            assert_eq!(
                stepper.len(),
                scalar.len(),
                "population diverged at round {round}"
            );
        }
        let mut columnar = Vec::new();
        stepper.store(&mut columnar);
        assert_eq!(scalar, columnar, "resident trajectory diverged");
    }

    #[test]
    fn columnar_step_matches_scalar_on_desynced_blocks() {
        // Mixed-round blocks force the per-lane fallback; make sure it and
        // the uniform kernels agree with the scalar path side by side.
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let t = params.epoch_len();
        let mut g = rng_from_seed(42);
        let agents: Vec<AgentState> = (0u64..200)
            .map(|i| {
                use rand::Rng;
                let r: u32 = (g.random::<u32>()) % (2 * t);
                match i % 4 {
                    0 => AgentState::fresh(&params),
                    1 => AgentState::desynced(&params, r),
                    2 => AgentState::active_at(&params, r % t, Color::One),
                    _ => AgentState::leader(&params, Color::Zero, i | 1),
                }
            })
            .collect();
        for round in 0..6 {
            assert_step_phase_matches_scalar(&proto, &agents, 1234, round, None);
        }
    }

    /// Recruitment rounds on both paths: a few recruiters (the quiet path,
    /// which steps them and their partners pair by pair), every other lane
    /// recruiting (the dense path, chosen by the recruiter count alone),
    /// and a few recruiters beside one mixed-round block (the dense path
    /// after the classification pass, whose block rounds the wire pass
    /// reuses), at a plain round and at a subphase boundary, where active
    /// lanes re-arm. The other lanes are active or inactive idlers; the
    /// mixed block holds lanes one round ahead, at round 0 and at the
    /// evaluation round. One shard and three.
    #[test]
    fn recruitment_rounds_match_scalar_on_both_paths() {
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        for round in [5, params.t_inner() - 1] {
            for (recruit_every, mixed) in [(2usize, false), (97, false), (97, true)] {
                let agents: Vec<AgentState> = (0..300)
                    .map(|i| {
                        let color = Color::from_bit((i / 2 % 2) as u8);
                        let mut s = if i % recruit_every == 0 {
                            AgentState::leader(&params, color, i as u64 | 1)
                        } else if i % 3 == 0 {
                            AgentState::active_at(&params, round, color)
                        } else {
                            AgentState::desynced(&params, round)
                        };
                        s.round = round;
                        if mixed && (64..128).contains(&i) {
                            s.round = [round, round + 1, 0, params.eval_round()][i % 4];
                        }
                        s
                    })
                    .collect();
                for seed in [3, 41] {
                    let r = u64::from(round);
                    let serial = assert_step_phase_matches_scalar(&proto, &agents, seed, r, None);
                    let sharded = ShardPool::with(3, |pool| {
                        assert_step_phase_matches_scalar(&proto, &agents, seed, r, Some(pool))
                    });
                    assert_eq!(serial, sharded, "round {round}: shards diverged");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn stepping_with_an_out_of_range_partner_panics() {
        let params = Params::for_target(1024).unwrap();
        let agents: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
        let mut stepper = StabilityColumns::new(params);
        stepper.load(&agents, None);
        let mut partners = partner_table(agents.len(), 5, 0);
        partners[0] = UNMATCHED - 1;
        stepper.step(
            &partners,
            round_key(5, 0),
            None,
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn shards_emptied_by_a_shrinking_population_report_nothing() {
        // Three shards over 300 agents all get words; after the population
        // shrinks to 100 (two words) the third shard is empty and must not
        // report its lists from the round before again.
        let params = Params::for_target(1024).unwrap();
        let t = params.epoch_len();
        let agents: Vec<AgentState> = (0..300)
            .map(|i| match i % 3 {
                0 => AgentState::fresh(&params),
                1 => AgentState::active_at(&params, t - 1, Color::One),
                _ => AgentState::desynced(&params, i % (2 * t)),
            })
            .collect();
        let run = |pool: &ShardPool| {
            let mut stepper = StabilityColumns::new(params.clone());
            stepper.load(&agents, Some(pool));
            let mut lists = Vec::new();
            for (round, n) in [(0u64, 300usize), (1, 100)] {
                let (mut splits, mut deaths) = (Vec::new(), Vec::new());
                let partners = partner_table(n, 8, round);
                stepper.step(
                    &partners,
                    round_key(8, round),
                    Some(pool),
                    &mut splits,
                    &mut deaths,
                );
                stepper.apply(&[], &(100..stepper.len()).collect::<Vec<_>>());
                lists.push((splits, deaths));
            }
            assert!(
                lists[0].1.iter().any(|&i| i >= 256),
                "third shard reported nothing"
            );
            lists
        };
        let sharded = ShardPool::with(3, run);
        assert_eq!(sharded, ShardPool::with(1, run));
    }

    /// Asserts the stats kernel equals observing the vector `store` builds.
    fn assert_stats_match_stored(stepper: &StabilityColumns, what: &str) {
        let mut stored = Vec::new();
        stepper.store(&mut stored);
        assert_eq!(
            stepper.stats(),
            Some(RoundStats::observe(0, &stored)),
            "{what}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Altering resident columns equals loading the vector that the
        /// engine's push-then-swap-remove semantics leave, lane for lane:
        /// stores, stats and tail bits alike, growing and shrinking across
        /// word boundaries.
        #[test]
        fn alter_matches_loading_the_altered_vector(
            kinds in proptest::collection::vec(0u8..3, 0..300),
            inserts in proptest::collection::vec((0u32..600, 0u8..3), 0..70),
            deletes in proptest::collection::vec(0usize..300, 0..150),
            modifies in proptest::collection::vec((0usize..300, 0u32..600), 0..8),
        ) {
            let params = Params::for_target(1024).unwrap();
            let state = |kind: u8, round: u32| match kind {
                0 => AgentState::desynced(&params, round),
                1 => AgentState::leader(&params, Color::One, u64::from(round) | 1),
                _ => AgentState::active_at(&params, round.max(1), Color::Zero),
            };
            let agents: Vec<AgentState> =
                kinds.iter().enumerate().map(|(i, &k)| state(k, i as u32)).collect();
            let len = agents.len();
            let inserted: Vec<AgentState> = inserts.iter().map(|&(r, k)| state(k, r)).collect();
            let modified: Vec<(usize, AgentState)> = modifies
                .iter()
                .filter(|&&(i, _)| i < len)
                .map(|&(i, r)| (i, state(1, r)))
                .collect();
            let mut deleted: Vec<usize> = deletes.into_iter().filter(|&i| i < len).collect();
            deleted.sort_unstable();
            deleted.dedup();

            let mut want = agents.clone();
            for (i, s) in &modified {
                want[*i] = *s;
            }
            want.extend(inserted.iter().cloned());
            for &i in deleted.iter().rev() {
                want.swap_remove(i);
            }
            let mut loaded = StabilityColumns::new(params.clone());
            loaded.load(&want, None);

            let mut altered = StabilityColumns::new(params.clone());
            altered.load(&agents, None);
            proptest::prop_assert!(altered.alter(&inserted, &modified, &deleted));
            proptest::prop_assert_eq!(altered.len(), want.len());
            proptest::prop_assert!(altered.tail_bits_clear(), "tail bits set");
            let (mut got, mut reference) = (Vec::new(), Vec::new());
            altered.store(&mut got);
            loaded.store(&mut reference);
            proptest::prop_assert_eq!(got, reference);
            proptest::prop_assert_eq!(altered.stats(), loaded.stats());
        }


        /// Applying splits and deaths to resident columns equals loading
        /// the vector that the engine's push-daughters-then-swap-remove
        /// semantics leave: stores, stats and tail bits alike. Lanes hold
        /// rounds past the epoch, and the lists are disjoint and ascending,
        /// of any sizes from empty to every lane.
        #[test]
        fn apply_matches_loading_the_applied_vector(
            lanes in proptest::collection::vec((0u8..3, 0u32..2000, 0u8..16), 0..300),
            split_odds in 0u8..=8,
            death_odds in 0u8..=8,
        ) {
            let params = Params::for_target(1024).unwrap();
            let agents: Vec<AgentState> = lanes
                .iter()
                .map(|&(kind, round, _)| match kind {
                    0 => AgentState::desynced(&params, round),
                    1 => AgentState::leader(&params, Color::One, u64::from(round) | 1),
                    _ => AgentState::active_at(&params, round.max(1), Color::Zero),
                })
                .collect();
            let (mut splits, mut deaths) = (Vec::new(), Vec::new());
            for (i, &(_, _, act)) in lanes.iter().enumerate() {
                if act < split_odds {
                    splits.push(i);
                } else if act >= 16 - death_odds {
                    deaths.push(i);
                }
            }

            let mut want = agents.clone();
            for &i in &splits {
                want.push(agents[i]);
            }
            for &i in deaths.iter().rev() {
                want.swap_remove(i);
            }
            let mut loaded = StabilityColumns::new(params.clone());
            loaded.load(&want, None);

            let mut applied = StabilityColumns::new(params.clone());
            applied.load(&agents, None);
            applied.apply(&splits, &deaths);
            proptest::prop_assert_eq!(applied.len(), want.len());
            proptest::prop_assert!(applied.tail_bits_clear(), "tail bits set");
            let (mut got, mut reference) = (Vec::new(), Vec::new());
            applied.store(&mut got);
            loaded.store(&mut reference);
            proptest::prop_assert_eq!(got, reference);
            proptest::prop_assert_eq!(applied.stats(), loaded.stats());
        }

        /// On load and after every step and apply, the stats kernel counts
        /// what observing the stored vector counts. The populations mix
        /// desynced rounds (so blocks fall back to per-lane counting),
        /// leaders of both colors at a drawn density, and active agents,
        /// and shrink by up to `shrink` extra deaths a round, under one and
        /// three shards.
        #[test]
        fn stats_match_observing_the_stored_vector(
            seed in 0u64..10_000,
            n in 0usize..400,
            leader_every in 1usize..6,
            shrink in 0usize..48,
        ) {
            use rand::Rng;
            let params = Params::for_target(1024).unwrap();
            let t = params.epoch_len();
            let mut g = rng_from_seed(seed);
            let agents: Vec<AgentState> = (0..n)
                .map(|i| {
                    let r = g.random::<u32>() % (2 * t);
                    let color = if g.random::<bool>() { Color::One } else { Color::Zero };
                    if i % leader_every == 0 {
                        return AgentState::leader(&params, color, i as u64 | 1);
                    }
                    match i % 3 {
                        0 => AgentState::desynced(&params, r),
                        1 => AgentState::active_at(&params, r % t, color),
                        _ => AgentState::fresh(&params),
                    }
                })
                .collect();
            for shards in [1, 3] {
                ShardPool::with(shards, |pool| {
                    let mut stepper = StabilityColumns::new(params.clone());
                    stepper.load(&agents, Some(pool));
                    assert_stats_match_stored(&stepper, "after load");
                    for round in 0..2 * u64::from(t) / 3 {
                        let (mut splits, mut deaths) = (Vec::new(), Vec::new());
                        let partners = partner_table(stepper.len(), seed, round);
                        let rkey = round_key(seed, round);
                        stepper.step(&partners, rkey, Some(pool), &mut splits, &mut deaths);
                        assert_stats_match_stored(&stepper, "after step");
                        deaths.extend(stepper.len().saturating_sub(shrink)..stepper.len());
                        deaths.sort_unstable();
                        deaths.dedup();
                        stepper.apply(&splits, &deaths);
                        assert_stats_match_stored(&stepper, "after apply");
                    }
                });
            }
        }
    }

    #[test]
    fn apply_keeps_flag_bits_past_the_population_clear() {
        // Leaders of color one set every flag column, so each lane that a
        // death vacates held set bits in all four.
        let params = Params::for_target(1024).unwrap();
        let agents: Vec<AgentState> = (0..200)
            .map(|i| AgentState::leader(&params, Color::One, i | 1))
            .collect();
        let mut stepper = StabilityColumns::new(params);
        stepper.load(&agents, None);
        assert!(stepper.tail_bits_clear());
        stepper.apply(&[3, 70], &[0, 5, 64, 150]);
        assert_eq!(stepper.len(), 198);
        assert!(stepper.tail_bits_clear(), "deaths left tail bits set");
        stepper.apply(&[], &(120..198).collect::<Vec<_>>());
        assert_eq!(stepper.len(), 120);
        assert!(stepper.tail_bits_clear(), "shrinking left tail bits set");
        assert_eq!(stepper.stats().map(|s| s.leaders), Some(120));
        assert_stats_match_stored(&stepper, "after shrinking");
    }

    /// The capacity of every authoritative column.
    fn capacities(stepper: &StabilityColumns) -> [usize; 7] {
        [
            stepper.round.capacity(),
            stepper.to_recruit.capacity(),
            stepper.lineage.capacity(),
            stepper.active.capacity_bytes(),
            stepper.recruiting.capacity_bytes(),
            stepper.color.capacity_bytes(),
            stepper.is_leader.capacity_bytes(),
        ]
    }

    /// A net-zero alteration (as many inserts as deletes) on full columns
    /// refills the deleted lanes in place: no column reallocates, which
    /// pushing the inserts before removing would have done.
    #[test]
    fn net_zero_alter_keeps_every_column_capacity() {
        let params = Params::for_target(1024).unwrap();
        let agents: Vec<AgentState> = (0..1024)
            .map(|i| AgentState::leader(&params, Color::One, i | 1))
            .collect();
        let mut stepper = StabilityColumns::new(params.clone());
        stepper.load(&agents, None);
        assert_eq!(
            stepper.round.capacity(),
            stepper.len(),
            "load sizes exactly"
        );
        let before = capacities(&stepper);
        let inserted = vec![AgentState::desynced(&params, 9); 4];
        let modified = [(7, AgentState::fresh(&params))];
        assert!(stepper.alter(&inserted, &modified, &[3, 64, 500, 1023]));
        assert_eq!(stepper.len(), 1024);
        assert_eq!(capacities(&stepper), before, "a column reallocated");
        assert!(stepper.tail_bits_clear());
    }

    /// A round with at least as many deaths as splits fills the dead lanes
    /// with the daughters in place: no column grows, which pushing the
    /// daughters before removing the deaths would have made them do.
    #[test]
    fn apply_without_growth_keeps_mem_bytes() {
        let params = Params::for_target(1024).unwrap();
        let agents: Vec<AgentState> = (0..1024)
            .map(|i| AgentState::leader(&params, Color::One, i | 1))
            .collect();
        let mut stepper = StabilityColumns::new(params);
        stepper.load(&agents, None);
        assert_eq!(
            stepper.round.capacity(),
            stepper.len(),
            "load sizes exactly"
        );
        let before = stepper.mem_bytes();
        stepper.apply(&[5, 700, 1000], &[3, 64, 500, 1023]);
        assert_eq!(stepper.len(), 1023);
        assert_eq!(stepper.mem_bytes(), before, "a column grew");
        assert!(stepper.tail_bits_clear());
    }

    #[test]
    fn mem_bytes_grows_with_population() {
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut stepper = StabilityColumns::new(params.clone());
        assert_eq!(stepper.mem_bytes(), 0);
        let agents: Vec<AgentState> = (0..1024).map(|_| AgentState::fresh(&params)).collect();
        stepper.load(&agents, None);
        let partners = partner_table(agents.len(), 5, 0);
        let (mut splits, mut deaths) = (Vec::new(), Vec::new());
        stepper.step(&partners, round_key(5, 0), None, &mut splits, &mut deaths);
        let _ = &proto;
        let bytes = stepper.mem_bytes();
        // 16 B of u32/u64 columns + 7 bit columns + block metadata
        // ≈ 17 B/agent.
        assert!(bytes >= 16 * 1024, "columns too small: {bytes}");
        assert!(bytes <= 24 * 1024, "columns unexpectedly large: {bytes}");
    }
}
