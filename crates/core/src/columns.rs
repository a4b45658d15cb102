//! Columnar (struct-of-arrays) execution of the protocol's step phase.
//!
//! [`StabilityColumns`] is the [`ColumnarStep`] implementation installed
//! into every engine running [`PopulationStability`] (via
//! [`Protocol::columnar`](popstab_sim::Protocol::columnar)). It holds the
//! population *resident* as compact columns — `round`/`to_recruit`/`lineage`
//! vectors plus packed flag bitmasks — and advances them round after round
//! without materializing `Vec<AgentState>`:
//!
//! 1. **wire pass**: from the columns, compose every agent's three-bit
//!    [`Wire`] (Algorithm 2) as *word algebra*, publishing it in one
//!    partner-readable byte column (`wire8`, the wire bits plus an
//!    always-set presence bit — cache-resident even at million-agent
//!    scale), record each 64-agent block's round uniformity, and list the
//!    rare *latch-hazard* lanes whose pre-step lineage a partner might
//!    copy while this round overwrites it;
//! 2. **step pass**: per block, gather one masked `wire8` byte per lane
//!    and transpose them eight-at-a-time (`pack_lsb`) into four mask
//!    words held in registers, then execute the round's transition as
//!    bitwise algebra straight into the columns, batching coin draws with
//!    [`biased_coin_x8`]. Blocks whose agents disagree on the round number
//!    (possible only under adversarial insertion) fall back to an exact
//!    per-lane transition.
//!
//! The engine transposes `Vec<AgentState>` in ([`ColumnarStep::load`]) only
//! when the vector was mutated behind the columns' back, and back out
//! ([`ColumnarStep::store`]) only when an observer, adversary, or snapshot
//! reads it — each resident round streams ~17 bytes per agent instead of
//! two passes over 24-byte structs. Recorded rounds stay resident too:
//! [`ColumnarStep::stats`] computes a round's [`RoundStats`] as popcounts
//! over the flag columns plus one epoch-round histogram over `round`
//! (uniform blocks counted 64 lanes at a time), never building the vector.
//!
//! # Why this is bit-exact (no stream bump)
//!
//! The agent stream (v3) is counter-addressable: agent `slot`'s draw `j`
//! in a round is a pure finalizer of `(round_key, slot, j)`, independent
//! of any other agent's draws, so *batching* evaluation cannot move any
//! draw. The kernels consume exactly the draw positions `Protocol::step`
//! consumes wherever a draw's outcome is observable: leader selection
//! evaluates each lane's biased coin at the same word positions
//! ([`biased_coin_x8`] is pinned lane-for-lane against
//! [`toss_biased_coin`]), winners replay the scalar draw order (coin
//! words, then color, then lineage) on their own slot stream, and the
//! evaluation split coin is the same first-draws-of-slot-stream the scalar
//! path uses. Split and death slots are emitted in ascending slot order,
//! and [`ColumnarStep::apply`] mirrors the engine's vector semantics
//! (append daughters in split order, then swap-remove deaths descending),
//! so a [`ColumnarStep::store`] after any number of resident rounds
//! reproduces the scalar vector byte for byte. `epoch_len` needs no
//! column: every step writes `params.epoch_len()` into every surviving
//! agent, so `store` pins it uniformly — exact because a store can only
//! observe stepped agents (daughters clone stepped parents; adversarial
//! inserts force a reload first). The engine-level equivalence property
//! tests (`tests/columnar_equivalence.rs`) pin columnar vs scalar
//! trajectories bit-for-bit, and the golden fixtures pin both against
//! history.
//!
//! # Latch hazards
//!
//! Lineage is the one field copied partner-to-agent, and messages are
//! simultaneous: a recruit must latch its recruiter's *pre-step* lineage
//! even if the recruiter's own lineage changes this round. A lane
//! advertising `recruiting` on the wire can have its own lineage
//! overwritten only if it is at round 0 (leader coin) or inactive yet
//! recruiting (adversarial state, itself recruited this round) — honest
//! populations have no such lanes. The wire pass lists them (slot,
//! pre-step lineage) in ascending order; everyone else's lineage is read
//! live from the column, because no kernel writes it this round.
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
use popstab_sim::columns::{tail_mask, word_shard_range, BitCol, ColumnarProtocol, ColumnarStep};
use popstab_sim::matching::UNMATCHED;
use popstab_sim::rng::{biased_coin_x8, slot_key_x8, slot_rng, LANES};
use popstab_sim::{Action, RoundHistogram, RoundStats};
use rand::Rng;

use crate::coin::toss_biased_coin;
use crate::message::Wire;
use crate::params::Params;
use crate::protocol::PopulationStability;
use crate::state::{AgentState, Color};

impl ColumnarProtocol for PopulationStability {
    type Columns = StabilityColumns;

    fn columns(&self) -> StabilityColumns {
        StabilityColumns::new(self.params().clone())
    }
}

/// Per-shard split/death output lists, merged in shard (= slot) order.
#[derive(Debug, Default)]
struct ShardOut {
    splits: Vec<usize>,
    deaths: Vec<usize>,
}

/// The struct-of-arrays store for [`PopulationStability`]: authoritative
/// agent state as columns, resident across rounds inside the engine.
pub struct StabilityColumns {
    params: Params,
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
            .field("params", &self.params)
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
            params,
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

    /// Sizes the authoritative columns for a population of `n`. Contents
    /// are unspecified: the load pass overwrites every lane.
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

    /// Appends a copy of lane `i` (a split daughter of a stepped parent).
    fn push_clone(&mut self, i: usize) {
        let la = self.len;
        let nw = (la + 1).div_ceil(64);
        self.round.push(self.round[i]);
        self.to_recruit.push(self.to_recruit[i]);
        let lineage = *self.lineage[i].get_mut();
        self.lineage.push(AtomicU64::new(lineage));
        for col in [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ] {
            col.resize_words(nw);
            let v = col.get(i);
            col.set(la, v);
        }
        self.len = la + 1;
    }

    /// Swap-removes lane `i`, exactly as `Vec::swap_remove` would.
    fn swap_remove(&mut self, i: usize) {
        let last = self.len - 1;
        self.round.swap_remove(i);
        self.to_recruit.swap_remove(i);
        self.lineage.swap_remove(i);
        let nw = last.div_ceil(64);
        for col in [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ] {
            if i != last {
                let v = col.get(last);
                col.set(i, v);
            }
            // The vacated lane joins the tail, whose bits stay zero
            // (`BitCol` docs); words above ceil(len/64) hold no live lanes.
            col.set(last, false);
            col.resize_words(nw);
        }
        self.len = last;
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
        let (shards, t) = (pool.shards(), self.params.epoch_len());
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

    /// The wire + step passes, sharded over word-aligned ranges of `pool`,
    /// with a barrier in between (the step pass reads *global* wire bits
    /// and hazards written by the wire pass).
    fn step_pooled(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: &ShardPool,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let StabilityColumns {
            params,
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
        let params: &Params = params;
        let lineage: &[AtomicU64] = lineage;

        // Pass 1: wire, each shard reading its own agents' state and writing
        // its own windows of the wire columns and its own hazard list.
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
                params,
                lo,
                &rnd[lo..hi],
                &lineage[lo..hi],
                &act[wlo..whi],
                &rec[wlo..whi],
                &col[wlo..whi],
                w8,
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
                params,
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

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        debug_assert_eq!(partners.len(), self.len);
        let nw = self.len.div_ceil(64);
        // Contents are unspecified: the wire pass stores every block whole.
        self.wire8.resize(nw * 64, 0);
        self.block_round.resize(nw, 0);
        self.block_uniform.resize(nw, false);
        match pool {
            Some(pool) => self.step_pooled(partners, round_key, pool, splits, deaths),
            None => ShardPool::with(1, |pool| {
                self.step_pooled(partners, round_key, pool, splits, deaths);
            }),
        }
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        for &i in splits {
            self.push_clone(i);
        }
        for &i in deaths.iter().rev() {
            self.swap_remove(i);
        }
    }

    fn store(&self, agents: &mut Vec<AgentState>) {
        let t = self.params.epoch_len();
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
        stats.in_eval = rounds.count(self.params.eval_round());
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

/// Transpose pass: stream `agents` (one range) once into the authoritative
/// columns. Bit words are built in registers and stored whole, so stale
/// buffer contents and tail bits never leak. Rounds are normalized on the
/// way in — exact, because the scalar step normalizes before any use and
/// a store can only observe stepped (hence normalized) agents.
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
            st.round[la] = if s.round < t { s.round } else { s.round % t };
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
/// record block round uniformity, and list latch-hazard lanes. `base` is
/// the global slot of the range's first lane (word-aligned); `wire8` is
/// the range's own `64 * words`-byte window.
#[allow(clippy::too_many_arguments)]
fn wire_range(
    params: &Params,
    base: usize,
    round: &[u32],
    lineage: &[AtomicU64],
    active: &[u64],
    recruiting: &[u64],
    color: &[u64],
    wire8: &mut [u8],
    block_round: &mut [u32],
    block_uniform: &mut [bool],
    hazards: &mut Vec<(u32, u64)>,
) {
    let t = params.epoch_len();
    let (eval, len) = (params.eval_round(), round.len());
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        let tailm = tail_mask(lanes);
        let rounds = &round[w * 64..w * 64 + lanes];
        let r0 = rounds[0];
        let mut acc = 0u32;
        for &r in rounds {
            acc |= r ^ r0;
        }
        let rn0 = if r0 < t { r0 } else { r0 % t };
        let (ew, zw);
        if acc == 0 {
            ew = if rn0 == eval { tailm } else { 0 };
            zw = if rn0 == 0 { tailm } else { 0 };
            block_uniform[w] = true;
        } else {
            let mut e_bits = 0u64;
            let mut z_bits = 0u64;
            for (l, &r) in rounds.iter().enumerate() {
                let rn = if r < t { r } else { r % t };
                e_bits |= u64::from(rn == eval) << l;
                z_bits |= u64::from(rn == 0) << l;
            }
            ew = e_bits;
            zw = z_bits;
            block_uniform[w] = false;
        }
        block_round[w] = rn0;
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
            let r = rounds[l];
            let rn = if r < t { r } else { r % t };
            let in_eval = rn == eval;
            let (a, rq, c) = (wa >> l & 1 != 0, wr >> l & 1 != 0, wc >> l & 1 != 0);
            let (xb, yb) = if in_eval {
                (a, c)
            } else if rq {
                (true, c)
            } else {
                (false, a)
            };
            let got = (yw >> l & 1) as u8 | ((xw >> l & 1) as u8) << 1 | ((ew >> l & 1) as u8) << 2;
            got == Wire::from_bits(in_eval, xb, yb).bits()
                && wire8[w * 64 + l] == got | WIRE8_PRESENT
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
    // Any lineage element a kernel overwrites this round belongs to a
    // hazard-listed lane (module docs), so this one holds its pre-step
    // value for the whole step pass.
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
    params: &Params,
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
        if block_uniform[w] {
            let rn = block_round[w];
            if rn == 0 {
                leader_block(params, round_key, &blk, st, w, lin, deaths);
            } else if rn == eval {
                eval_block(params, round_key, rn, &blk, st, w, lin, splits, deaths);
            } else {
                recruit_block(params, rn, &blk, st, w, lin, &plin, deaths);
            }
        } else {
            let mut wa = st.active[w];
            let mut wr = st.recruiting[w];
            let mut wc = st.color[w];
            let mut il = st.is_leader[w];
            for (l, &partner) in plin.iter().enumerate().take(lanes) {
                step_lane(
                    params,
                    round_key,
                    &blk,
                    l,
                    partner,
                    &mut wa,
                    &mut wr,
                    &mut wc,
                    &mut il,
                    &mut st.round[w * 64 + l],
                    &mut st.to_recruit[w * 64 + l],
                    lin,
                    splits,
                    deaths,
                );
            }
            st.active[w] = wa;
            st.recruiting[w] = wr;
            st.color[w] = wc;
            st.is_leader[w] = il;
        }
    }
}

/// Round 0 (Algorithm 3, `DetermineIfLeader`) over one uniform block.
fn leader_block(
    params: &Params,
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
    let exp = params.leader_bias_exp();
    let mut win = 0u64;
    for g in 0..blk.lanes.div_ceil(LANES) {
        let keys = slot_key_x8(round_key, (blk.slot0 + g * LANES) as u64);
        win |= u64::from(biased_coin_x8(exp, &keys)) << (g * LANES);
    }
    win &= live;
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = (live >> l & 1) as u32;
    }
    // Losers: `active` is *assigned* false (Algorithm 3 overwrites whatever
    // an adversarially inserted agent claimed); winners set the flag, dead
    // lanes keep theirs.
    st.active[w] = (st.active[w] & die) | win;
    st.recruiting[w] |= win;
    st.is_leader[w] |= win;
    // Winners are ~2^-exp rare: replay the scalar draw order (coin words,
    // color, lineage) on each winner's own slot stream.
    let mut wc = st.color[w];
    let mut bits = win;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let slot = blk.slot0 + l;
        let mut rng = slot_rng(round_key, slot as u64);
        let won = toss_biased_coin(exp, &mut rng);
        debug_assert!(won, "x8 winner must replay as a scalar winner");
        if rng.random::<bool>() {
            wc |= 1u64 << l;
        } else {
            wc &= !(1u64 << l);
        }
        st.to_recruit[w * 64 + l] = params.subphases();
        // A winner's own lineage element; if any partner could latch it,
        // the lane is hazard-listed and readers use the list.
        lin[slot].store(rng.random::<u64>() | 1, Relaxed);
    }
    st.color[w] = wc;
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

/// Round `T−1` (Algorithm 6, `EvaluationPhase`) over one uniform block.
#[allow(clippy::too_many_arguments)]
fn eval_block(
    params: &Params,
    round_key: u64,
    rn: u32,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: &[AtomicU64],
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    // Consistency: a matched partner NOT in eval kills us, and the scalar
    // path early-returns — those lanes keep their whole state.
    let die_c = blk.mm & !blk.me;
    let live = !die_c & blk.tail;
    let active = st.active[w];
    let color = st.color[w];
    // In eval the partner's wire `x` bit IS its active flag.
    let decision = active & blk.mm & blk.mx & live;
    let diff = decision & (blk.my ^ color);
    let same = decision & !(blk.my ^ color);
    let mut split_mask = 0u64;
    if same != 0 {
        let exp = params.split_bias_exp();
        for g in 0..blk.lanes.div_ceil(LANES) {
            let gm = (same >> (g * LANES)) as u8;
            if gm == 0 {
                continue;
            }
            let keys = slot_key_x8(round_key, (blk.slot0 + g * LANES) as u64);
            // `true` = all heads = keep; split on the complement. Unused
            // lanes cost nothing: draws are addressable, so computing a
            // lane the scalar path would not have drawn perturbs no other
            // draw position.
            let heads = biased_coin_x8(exp, &keys);
            split_mask |= u64::from(!heads & gm) << (g * LANES);
        }
    }
    // Reset every live lane for the next epoch (including different-color
    // deaths: Algorithm 6 resets before returning Die). Consistency deaths
    // keep their state bar the normalized round.
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = if die_c >> l & 1 != 0 { rn } else { 0 };
    }
    st.active[w] = active & die_c;
    st.recruiting[w] &= die_c;
    st.color[w] = color & die_c;
    st.is_leader[w] &= die_c;
    // An eval lane's own lineage element; eval lanes advertise `in_eval`
    // on the wire, so no partner latches them.
    let lin = &lin[blk.slot0..blk.slot0 + blk.lanes];
    for (l, lineage) in lin.iter().enumerate() {
        let keep32 = 0u32.wrapping_sub((die_c >> l & 1) as u32);
        st.to_recruit[w * 64 + l] &= keep32;
        let keep64 = 0u64.wrapping_sub(die_c >> l & 1);
        lineage.store(lineage.load(Relaxed) & keep64, Relaxed);
    }
    // One ascending sweep emits deaths and splits in slot order, exactly
    // as the scalar loop pushes them (a lane is in at most one set).
    let die_all = die_c | diff;
    let mut bits = die_all | split_mask;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if die_all >> l & 1 != 0 {
            deaths.push(blk.slot0 + l);
        } else {
            splits.push(blk.slot0 + l);
        }
    }
}

/// Exact per-lane transition for blocks with mixed round numbers
/// (adversarial desync): a transcription of `PopulationStability::step`
/// against the gathered wire bits, draw-for-draw, writing the columns.
/// `plin` is the lane's latched partner lineage (valid wherever the
/// recruitment rule reads it); `wa`/`wr`/`wc`/`il` are the block's flag
/// words, register-resident across the caller's lane loop.
#[allow(clippy::too_many_arguments)]
fn step_lane(
    params: &Params,
    round_key: u64,
    blk: &Block,
    l: usize,
    plin: u64,
    wa: &mut u64,
    wr: &mut u64,
    wc: &mut u64,
    il: &mut u64,
    round: &mut u32,
    to_recruit: &mut u32,
    lin: &[AtomicU64],
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    let slot = blk.slot0 + l;
    let bit = 1u64 << l;
    let t = params.epoch_len();
    let mut r = *round;
    if r >= t {
        r %= t;
    }
    let in_eval = r == params.eval_round();
    let matched = blk.mm & bit != 0;
    if matched && (blk.me & bit != 0) != in_eval {
        *round = r;
        deaths.push(slot);
        return;
    }
    if r == 0 {
        let mut rng = slot_rng(round_key, slot as u64);
        if toss_biased_coin(params.leader_bias_exp(), &mut rng) {
            *wa |= bit;
            if rng.random::<bool>() {
                *wc |= bit;
            } else {
                *wc &= !bit;
            }
            *wr |= bit;
            *to_recruit = params.subphases();
            *il |= bit;
            // Own lineage element; hazard-listed if latchable.
            lin[slot].store(rng.random::<u64>() | 1, Relaxed);
        } else {
            *wa &= !bit;
        }
        *round = 1;
    } else if !in_eval {
        if matched {
            let px = blk.mx & bit != 0;
            let py = blk.my & bit != 0;
            // Partner passed consistency, so it is not in eval: decode
            // active as `x || y`, recruiting as `x`.
            let p_active = px || py;
            if *wr & bit != 0 && !p_active {
                *wr &= !bit;
                *to_recruit = to_recruit.saturating_sub(1);
            } else if *wa & bit == 0 && px {
                *wa |= bit;
                if py {
                    *wc |= bit;
                } else {
                    *wc &= !bit;
                }
                *wr &= !bit;
                *to_recruit = params.to_recruit_at(r);
                // Own lineage element; hazard-listed if latchable.
                lin[slot].store(plin, Relaxed);
            }
        }
        if params.is_subphase_boundary(r) && *wa & bit != 0 {
            *wr |= bit;
        }
        *round = r + 1;
    } else {
        let mut action = Action::Continue;
        if *wa & bit != 0 && matched && blk.mx & bit != 0 {
            if (blk.my & bit != 0) == (*wc & bit != 0) {
                let mut rng = slot_rng(round_key, slot as u64);
                if !toss_biased_coin(params.split_bias_exp(), &mut rng) {
                    action = Action::Split;
                }
            } else {
                action = Action::Die;
            }
        }
        *round = 0;
        *wa &= !bit;
        *wr &= !bit;
        *wc &= !bit;
        *il &= !bit;
        *to_recruit = 0;
        // Own lineage element; eval lanes are never latched.
        lin[slot].store(0, Relaxed);
        match action {
            Action::Split => splits.push(slot),
            Action::Die => deaths.push(slot),
            Action::Continue | Action::KillPartner => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::matching::sample_partners_into;
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
        ShardPool::with(1, |pool| {
            sample_partners_into(
                &mut partners,
                &mut Vec::new(),
                n,
                MatchingModel::Full,
                round_key(seed ^ 0x6d61, round),
                pool,
            )
        });
        partners
    }

    /// Drives one load → step → store cycle and the scalar `Protocol::step`
    /// loop over the same population + matching and asserts bit-identical
    /// states, splits, and deaths — the unit-level twin of the engine-level
    /// equivalence tests.
    fn assert_step_phase_matches_scalar(
        proto: &PopulationStability,
        agents: &[AgentState],
        seed: u64,
        round: u64,
    ) {
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
        stepper.load(agents, None);
        let mut c_splits = Vec::new();
        let mut c_deaths = Vec::new();
        stepper.step(&partners, rkey, None, &mut c_splits, &mut c_deaths);
        let mut columnar = Vec::new();
        stepper.store(&mut columnar);

        assert_eq!(scalar, columnar, "states diverged at round {round}");
        assert_eq!(s_splits, c_splits, "splits diverged at round {round}");
        assert_eq!(s_deaths, c_deaths, "deaths diverged at round {round}");
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
            assert_step_phase_matches_scalar(&proto, &agents, 77, round);
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
            assert_step_phase_matches_scalar(&proto, &agents, 1234, round);
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
