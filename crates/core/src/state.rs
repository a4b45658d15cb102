//! Per-agent state (§3 of the paper).
//!
//! The protocol-relevant memory of an agent is: the epoch round counter
//! `round ∈ [0, T)` plus the boolean flags `active`, `color`, `recruiting`.
//! Everything else in [`AgentState`] is **instrumentation** — fields the
//! simulator keeps so that experiments can check the paper's invariants
//! (cluster sizes, recruitment trees, leader counts). Instrumentation is
//! never read by the protocol's decision logic and is excluded from the
//! memory accounting in [`crate::accounting`].

use std::fmt;

use popstab_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotState};
use popstab_sim::{Observable, Observation};

use crate::params::Params;

/// An agent's color: the value its cluster's leader drew in round 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// Color 0.
    #[default]
    Zero,
    /// Color 1.
    One,
}

impl Color {
    /// The opposite color.
    pub fn flipped(self) -> Color {
        match self {
            Color::Zero => Color::One,
            Color::One => Color::Zero,
        }
    }

    /// Encodes as one bit.
    pub fn as_bit(self) -> u8 {
        match self {
            Color::Zero => 0,
            Color::One => 1,
        }
    }

    /// Decodes from the low bit.
    pub fn from_bit(bit: u8) -> Color {
        if bit & 1 == 0 {
            Color::Zero
        } else {
            Color::One
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Color::Zero => "0",
            Color::One => "1",
        })
    }
}

/// The full simulated state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentState {
    /// Round counter within the epoch, in `[0, T)`. *Protocol memory.*
    pub round: u32,
    /// Whether the agent has been activated (is a leader or was recruited)
    /// this epoch. *Protocol memory.*
    pub active: bool,
    /// The agent's color; only meaningful while `active`. *Protocol memory.*
    pub color: Color,
    /// Whether the agent is still looking for a recruit in the current
    /// subphase. *Protocol memory.*
    pub recruiting: bool,
    /// Number of further recruitment subphases this agent owes. The paper
    /// notes this variable is needed only for the analysis; the protocol's
    /// behaviour is fully determined by the round number. *Instrumentation.*
    pub to_recruit: u32,
    /// Whether the agent became a leader in round 0 of the current epoch.
    /// *Instrumentation.*
    pub is_leader: bool,
    /// Cluster tag: the lineage id of the leader whose recruitment tree this
    /// agent joined (0 = none). *Instrumentation.*
    pub lineage: u64,
    /// The epoch length `T` this agent was configured with; kept in the
    /// state only so [`Observable`] can compute phase flags without access
    /// to the protocol. The protocol always uses its own `Params`, so an
    /// adversary forging this field gains nothing. *Instrumentation.*
    pub epoch_len: u32,
}

impl AgentState {
    /// The all-zeros onset state ("initially ... all variables are set to
    /// zero").
    pub fn fresh(params: &Params) -> AgentState {
        AgentState {
            round: 0,
            active: false,
            color: Color::Zero,
            recruiting: false,
            to_recruit: 0,
            is_leader: false,
            lineage: 0,
            epoch_len: params.epoch_len(),
        }
    }

    /// A freshly-selected leader with the given color and lineage tag, as
    /// produced by `DetermineIfLeader` (Algorithm 3). `round` is 1 because
    /// leader selection happens in round 0 and the counter has advanced.
    pub fn leader(params: &Params, color: Color, lineage: u64) -> AgentState {
        AgentState {
            round: 1,
            active: true,
            color,
            recruiting: true,
            to_recruit: params.subphases(),
            is_leader: true,
            lineage,
            epoch_len: params.epoch_len(),
        }
    }

    /// An active (recruited) non-leader agent at the given round, as an
    /// adversary might insert.
    pub fn active_at(params: &Params, round: u32, color: Color) -> AgentState {
        AgentState {
            round,
            active: true,
            color,
            recruiting: false,
            to_recruit: params.to_recruit_at(round.max(1)),
            is_leader: false,
            lineage: 0,
            epoch_len: params.epoch_len(),
        }
    }

    /// An inactive agent whose clock reads `round` (adversarial desync
    /// insertion).
    pub fn desynced(params: &Params, round: u32) -> AgentState {
        AgentState {
            round,
            ..AgentState::fresh(params)
        }
    }

    /// Whether the agent believes it is in the evaluation round.
    pub fn in_eval_phase(&self) -> bool {
        self.epoch_len > 0 && self.round == self.epoch_len - 1
    }
}

impl Observable for AgentState {
    fn observe(&self) -> Observation {
        Observation {
            round_in_epoch: Some(self.round),
            active: self.active,
            color: if self.active {
                Some(self.color == Color::One)
            } else {
                None
            },
            recruiting: self.recruiting,
            in_eval_phase: self.in_eval_phase(),
            is_leader: self.is_leader,
            lineage: if self.active {
                Some(self.lineage)
            } else {
                None
            },
        }
    }
}

/// Bytes of one [`AgentState`] snapshot record (format v3): `round` (u32),
/// the `active`, colour and `recruiting` bytes, `to_recruit` (u32), the
/// `is_leader` byte, `lineage` (u64) and `epoch_len` (u32), little-endian
/// and unpadded.
const RECORD_LEN: usize = 24;

/// Records [`SnapshotState::encode_all`] builds in a stack block before it
/// appends them with one copy.
const BLOCK_RECORDS: usize = 64;

impl AgentState {
    /// This state's snapshot record.
    #[inline]
    fn record(&self) -> [u8; RECORD_LEN] {
        let mut rec = [0u8; RECORD_LEN];
        rec[0..4].copy_from_slice(&self.round.to_le_bytes());
        rec[4] = u8::from(self.active);
        rec[5] = self.color.as_bit();
        rec[6] = u8::from(self.recruiting);
        rec[7..11].copy_from_slice(&self.to_recruit.to_le_bytes());
        rec[11] = u8::from(self.is_leader);
        rec[12..20].copy_from_slice(&self.lineage.to_le_bytes());
        rec[20..24].copy_from_slice(&self.epoch_len.to_le_bytes());
        rec
    }

    /// The state a record holds, read as if its flag bytes were 0 or 1;
    /// the caller rejects a record whose flags are not.
    #[inline]
    fn from_record(rec: &[u8; RECORD_LEN]) -> AgentState {
        let u32_at =
            |at: usize| u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
        let mut lineage = [0u8; 8];
        lineage.copy_from_slice(&rec[12..20]);
        AgentState {
            round: u32_at(0),
            active: rec[4] == 1,
            color: Color::from_bit(rec[5]),
            recruiting: rec[6] == 1,
            to_recruit: u32_at(7),
            is_leader: rec[11] == 1,
            lineage: u64::from_le_bytes(lineage),
            epoch_len: u32_at(20),
        }
    }
}

/// The OR of a record's `active`, `recruiting` and `is_leader` bytes:
/// above 1 exactly when one of them is neither 0 nor 1.
#[inline]
fn flag_bits(rec: &[u8; RECORD_LEN]) -> u8 {
    rec[4] | rec[6] | rec[11]
}

/// Decodes one record field by field, the way the record is laid out.
/// [`SnapshotState::decode`] reads a whole record at once and comes here
/// only for a record the column cuts short, so such a column fails at the
/// field it ends inside, after any bad flag before it.
#[cold]
fn decode_fields(r: &mut SnapshotReader<'_>) -> Result<AgentState, SnapshotError> {
    Ok(AgentState {
        round: r.u32()?,
        active: r.bool()?,
        color: Color::from_bit(r.u8()?),
        recruiting: r.bool()?,
        to_recruit: r.u32()?,
        is_leader: r.bool()?,
        lineage: r.u64()?,
        epoch_len: r.u32()?,
    })
}

// The per-record `encode` and `decode` are the reference codec; capture and
// restore move the whole column through `encode_all` and `decode_all`,
// which must give the same bytes, states and errors (pinned by the
// `column_twin` tests). The engine's generic capture and restore
// instantiate in the caller's crate; the `#[inline]`s make the codec
// available for inlining there.
impl SnapshotState for AgentState {
    fn state_tag() -> String {
        "population-stability".to_string()
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        if out.capacity() == 0 {
            // `Snapshot::capture` sizes the column from its first record.
            // Grow an empty column through the 8-, 16- and 32-byte
            // allocations the per-field writes made, so a checkpoint
            // allocates exactly as before: those small chunks decide
            // whether glibc hands the next 24 MiB buffers warm pages
            // (ROADMAP, "Heap layout is a benchmark input").
            for cap in [8, 16, 32] {
                out.reserve_exact(cap);
            }
        }
        out.extend_from_slice(&self.record());
    }

    #[inline]
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let start = r.offset();
        let Ok(rec) = r.bytes(RECORD_LEN) else {
            return decode_fields(r);
        };
        let rec: &[u8; RECORD_LEN] = rec.try_into().expect("bytes(RECORD_LEN) is a whole record");
        if flag_bits(rec) > 1 {
            return Err(bad_flag(r, rec, start));
        }
        Ok(AgentState::from_record(rec))
    }

    /// The first record goes through [`encode`](SnapshotState::encode), so
    /// the column grows as the per-record loop grows it; the rest are built
    /// 64 at a time on the stack, one append per block.
    fn encode_all(states: &[Self], out: &mut Vec<u8>) {
        let Some((first, rest)) = states.split_first() else {
            return;
        };
        first.encode(out);
        out.reserve_exact(RECORD_LEN * rest.len());
        let mut block = [0u8; RECORD_LEN * BLOCK_RECORDS];
        for states in rest.chunks(BLOCK_RECORDS) {
            let block = &mut block[..RECORD_LEN * states.len()];
            for (rec, state) in block.chunks_exact_mut(RECORD_LEN).zip(states) {
                rec.copy_from_slice(&state.record());
            }
            out.extend_from_slice(block);
        }
    }

    /// Takes the whole column as one slice and decodes it in one pass,
    /// OR-ing the flag bytes as it goes. A column cut short goes record by
    /// record through [`decode`](SnapshotState::decode), and a bad flag is
    /// reported at its record; both give the per-record loop's error.
    fn decode_all(
        r: &mut SnapshotReader<'_>,
        count: usize,
        out: &mut Vec<Self>,
    ) -> Result<(), SnapshotError> {
        let start = r.offset();
        let Some(column) = count
            .checked_mul(RECORD_LEN)
            .and_then(|len| r.bytes(len).ok())
        else {
            for _ in 0..count {
                out.push(AgentState::decode(r)?);
            }
            return Ok(());
        };
        let before = out.len();
        let mut flags = 0u8;
        out.extend(column.chunks_exact(RECORD_LEN).map(|rec| {
            let rec = rec.try_into().expect("chunks_exact yields whole records");
            flags |= flag_bits(rec);
            AgentState::from_record(rec)
        }));
        if flags > 1 {
            return Err(first_bad_flag(r, column, start, out, before));
        }
        Ok(())
    }
}

/// The error for a record starting at `start` whose `active`,
/// `recruiting` or `is_leader` byte is neither 0 nor 1: the first such
/// byte's, at the offset the per-field reads report. Kept out of line so
/// the record decoder stays one test on its hot path.
#[cold]
fn bad_flag(r: &SnapshotReader<'_>, rec: &[u8; RECORD_LEN], start: usize) -> SnapshotError {
    [4, 6, 11]
        .into_iter()
        .find_map(|at| r.bool_byte(rec[at], start + at + 1).err())
        .expect("some flag byte is out of range")
}

/// The error for a `column` starting at `start` that holds a bad flag
/// byte: [`bad_flag`]'s for the first record with one. `out` is cut back
/// to the states before that record, as the per-record loop leaves it.
#[cold]
fn first_bad_flag(
    r: &SnapshotReader<'_>,
    column: &[u8],
    start: usize,
    out: &mut Vec<AgentState>,
    before: usize,
) -> SnapshotError {
    let (i, rec) = column
        .chunks_exact(RECORD_LEN)
        .map(|rec| -> &[u8; RECORD_LEN] { rec.try_into().expect("a whole record") })
        .enumerate()
        .find(|(_, rec)| flag_bits(rec) > 1)
        .expect("some record has a bad flag");
    out.truncate(before + i);
    bad_flag(r, rec, start + i * RECORD_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::for_target(1024).unwrap()
    }

    #[test]
    fn snapshot_encoding_roundtrips_exactly() {
        let p = params();
        for state in [
            AgentState::fresh(&p),
            AgentState::leader(&p, Color::One, 42),
            AgentState::active_at(&p, 3, Color::Zero),
            AgentState::desynced(&p, 77),
        ] {
            let mut bytes = Vec::new();
            state.encode(&mut bytes);
            let mut r = SnapshotReader::new(&bytes);
            assert_eq!(AgentState::decode(&mut r).unwrap(), state);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn snapshot_record_is_the_pinned_v3_layout() {
        // Every field distinct and non-zero, so a reordered, resized or
        // dropped field moves bytes this array pins.
        let state = AgentState {
            round: 0x1122_3344,
            active: true,
            color: Color::One,
            recruiting: true,
            to_recruit: 0x5566_7788,
            is_leader: true,
            lineage: 0x99AA_BBCC_DDEE_FF0F,
            epoch_len: 0x0A0B_0C0D,
        };
        let record: [u8; 24] = [
            0x44, 0x33, 0x22, 0x11, // round
            1,    // active
            1,    // color
            1,    // recruiting
            0x88, 0x77, 0x66, 0x55, // to_recruit
            1,    // is_leader
            0x0F, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, // lineage
            0x0D, 0x0C, 0x0B, 0x0A, // epoch_len
        ];
        let mut bytes = Vec::new();
        state.encode(&mut bytes);
        assert_eq!(bytes, record);
        // An empty column grows as the per-field writes grew it.
        assert_eq!(bytes.capacity(), 32);
        let mut r = SnapshotReader::new(&record);
        assert_eq!(AgentState::decode(&mut r).unwrap(), state);
        assert_eq!(r.remaining(), 0);
    }

    /// Restores a three-agent snapshot of the paper's protocol whose agent
    /// column `patch` rewrote (the length word follows, and the file is
    /// resealed), so the edit reaches `Engine::restore`'s record decoder
    /// the way a corrupt-but-sealed file would.
    fn restore_patched(patch: impl FnOnce(&mut Vec<u8>)) -> Result<(), SnapshotError> {
        use crate::PopulationStability;
        use popstab_sim::{Engine, NoOpAdversary, SimConfig, Snapshot};
        let p = params();
        let cfg = SimConfig::builder().seed(3).target(1024).build().unwrap();
        let file = Engine::with_population(PopulationStability::new(p.clone()), cfg, 3)
            .snapshot()
            .to_bytes();
        let col_start = file.len() - 8 - 3 * 24;
        let mut column = file[col_start..file.len() - 8].to_vec();
        patch(&mut column);
        let mut patched = file[..col_start - 8].to_vec();
        patched.extend_from_slice(&(column.len() as u64).to_le_bytes());
        patched.extend_from_slice(&column);
        let trailer = popstab_sim::snapshot::seal(&patched);
        patched.extend_from_slice(&trailer.to_le_bytes());
        let snap = Snapshot::from_bytes(&patched)?;
        Engine::restore(PopulationStability::new(p), NoOpAdversary, &snap).map(|_| ())
    }

    #[test]
    fn out_of_range_flag_bytes_are_malformed_just_past_the_byte() {
        // Record 1 of 3 starts at column byte 24; a flag byte other than
        // 0/1 is reported at the offset just past it, in "agent states".
        assert!(restore_patched(|_| {}).is_ok());
        for (field, at, want) in [
            ("active", 4, 29),
            ("recruiting", 6, 31),
            ("is_leader", 11, 36),
        ] {
            match restore_patched(|col| col[24 + at] = 2) {
                Err(SnapshotError::Malformed {
                    what,
                    offset,
                    section,
                }) => assert_eq!(
                    (what, offset, section),
                    ("bool byte out of range", want, "agent states"),
                    "{field}"
                ),
                other => panic!("{field}: expected a malformed flag, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_column_cut_mid_record_reports_the_first_field_that_does_not_fit() {
        // Record 2 of 3 starts at column byte 48. Each cut names the field
        // the column ends inside; a bad flag before the cut still wins.
        for (len, want) in [(49, 48), (58, 55), (63, 60), (70, 68)] {
            match restore_patched(|col| col.truncate(len)) {
                Err(SnapshotError::Truncated { offset, section }) => {
                    assert_eq!((offset, section), (want, "agent states"), "cut at {len}");
                }
                other => panic!("cut at {len}: expected truncation, got {other:?}"),
            }
        }
        match restore_patched(|col| {
            col.truncate(58);
            col[52] = 2;
        }) {
            Err(SnapshotError::Malformed {
                offset, section, ..
            }) => assert_eq!((offset, section), (53, "agent states")),
            other => panic!("expected a malformed flag before the cut, got {other:?}"),
        }
    }

    mod record_twin {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The whole-record decoder and the per-field reads agree on
            /// every 24-byte record: the same state, or the same error.
            /// Flag bytes are drawn from 0..=3 so both outcomes occur.
            #[test]
            fn record_decode_matches_the_per_field_reads(
                words in prop::collection::vec(any::<u8>(), 24..=24),
                flags in (0u8..=3, 0u8..=3, 0u8..=3),
            ) {
                let mut rec = words;
                (rec[4], rec[6], rec[11]) = flags;
                let whole = AgentState::decode(&mut SnapshotReader::new(&rec));
                let fields = decode_fields(&mut SnapshotReader::new(&rec));
                prop_assert_eq!(format!("{whole:?}"), format!("{fields:?}"));
            }
        }
    }

    /// The column codec against the per-record reference it replaces: the
    /// bytes, final capacity, states and errors of `encode_all` and
    /// `decode_all` are those of `encode` and `decode` in a loop.
    mod column_twin {
        use super::*;
        use proptest::prelude::*;

        /// Bytes ahead of the column in every reader, so the offsets the
        /// errors carry are checked as absolute positions.
        const PREFIX: usize = 5;

        /// A state with every field free: rounds past any epoch, any
        /// `to_recruit` and lineage, and each flag bit drawn on its own.
        fn adversarial(round: u32, bits: u8, to_recruit: u32, lineage: u64, t: u32) -> AgentState {
            AgentState {
                round,
                active: bits & 1 != 0,
                color: Color::from_bit(bits >> 1),
                recruiting: bits & 4 != 0,
                to_recruit,
                is_leader: bits & 8 != 0,
                lineage,
                epoch_len: t,
            }
        }

        /// `n` adversarial states from a fixed mix, for the block-edge
        /// lengths.
        fn column(n: usize) -> Vec<AgentState> {
            (0..n as u64)
                .map(|i| {
                    let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
                    let to_recruit = if i % 3 == 0 { u32::MAX } else { h as u32 };
                    adversarial((h >> 32) as u32, h as u8, to_recruit, h, (h >> 40) as u32)
                })
                .collect()
        }

        /// The capture loop the column encoder replaced.
        fn encode_each(states: &[AgentState]) -> Vec<u8> {
            let mut out = Vec::new();
            if let Some((first, rest)) = states.split_first() {
                first.encode(&mut out);
                out.reserve_exact(RECORD_LEN * rest.len());
                for state in rest {
                    state.encode(&mut out);
                }
            }
            out
        }

        fn encode_column(states: &[AgentState]) -> Vec<u8> {
            let mut out = Vec::new();
            AgentState::encode_all(states, &mut out);
            out
        }

        /// Decodes `count` states from `column` behind [`PREFIX`] bytes,
        /// record by record (`each`) or through `decode_all`: the states,
        /// the outcome, and the reader's final offset on success.
        fn decode(column: &[u8], count: usize, each: bool) -> String {
            let mut bytes = vec![0xEE; PREFIX];
            bytes.extend_from_slice(column);
            let mut r = SnapshotReader::new(&bytes);
            r.set_section("agent states");
            r.bytes(PREFIX).unwrap();
            let mut out = Vec::new();
            let result = if each {
                (0..count).try_for_each(|_| {
                    out.push(AgentState::decode(&mut r)?);
                    Ok(())
                })
            } else {
                AgentState::decode_all(&mut r, count, &mut out)
            };
            let end = result.as_ref().ok().map(|_| r.offset());
            format!("{out:?} {result:?} {end:?}")
        }

        /// Pins both halves of the codec on one column.
        fn assert_twins(states: &[AgentState]) {
            let (each, all) = (encode_each(states), encode_column(states));
            assert_eq!(all, each, "{} states", states.len());
            assert_eq!(all.capacity(), each.capacity(), "{} states", states.len());
            assert_eq!(
                decode(&all, states.len(), false),
                decode(&all, states.len(), true)
            );
            let mut decoded = Vec::new();
            let mut r = SnapshotReader::new(&all);
            AgentState::decode_all(&mut r, states.len(), &mut decoded).unwrap();
            assert_eq!(decoded, states);
        }

        #[test]
        fn block_edge_lengths_match_the_per_record_codec() {
            for n in [0, 1, 2, 63, 64, 65, 127, 128, 129, 200] {
                assert_twins(&column(n));
            }
        }

        #[test]
        fn every_bad_flag_reports_the_per_record_error() {
            let good = encode_column(&column(3));
            for record in 0..3 {
                for at in [4, 6, 11] {
                    for value in [2, 3, 0x80, 0xFF] {
                        let mut bad = good.clone();
                        bad[record * RECORD_LEN + at] = value;
                        let all = decode(&bad, 3, false);
                        assert_eq!(all, decode(&bad, 3, true), "record {record} byte {at}");
                        assert!(all.contains("bool byte out of range"), "{all}");
                    }
                }
            }
        }

        #[test]
        fn a_cut_at_every_offset_reports_the_per_record_error() {
            let good = encode_column(&column(3));
            let mut flagged = good.clone();
            flagged[RECORD_LEN + 6] = 2;
            for column in [&good, &flagged] {
                for len in 0..column.len() {
                    let all = decode(&column[..len], 3, false);
                    assert_eq!(all, decode(&column[..len], 3, true), "cut at {len}");
                    assert!(all.contains("Err"), "cut at {len}: {all}");
                }
            }
        }

        proptest! {
            /// Random lengths of fully adversarial states, then one bad
            /// flag byte anywhere in the column.
            #[test]
            fn random_columns_match_the_per_record_codec(
                fields in prop::collection::vec(
                    (
                        any::<u32>(),
                        any::<u8>(),
                        prop_oneof![Just(u32::MAX), any::<u32>()],
                        any::<u64>(),
                        any::<u32>(),
                    ),
                    0..=300,
                ),
                flag in (any::<usize>(), 0usize..3, 2u8..=255),
            ) {
                let states: Vec<AgentState> = fields
                    .into_iter()
                    .map(|(round, bits, to_recruit, lineage, t)| {
                        adversarial(round, bits, to_recruit, lineage, t)
                    })
                    .collect();
                assert_twins(&states);
                if !states.is_empty() {
                    let (record, field, value) = flag;
                    let mut bad = encode_column(&states);
                    bad[record % states.len() * RECORD_LEN + [4, 6, 11][field]] = value;
                    prop_assert_eq!(
                        decode(&bad, states.len(), false),
                        decode(&bad, states.len(), true)
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_state_is_all_zeros() {
        let s = AgentState::fresh(&params());
        assert_eq!(s.round, 0);
        assert!(!s.active);
        assert_eq!(s.color, Color::Zero);
        assert!(!s.recruiting);
        assert_eq!(s.to_recruit, 0);
        assert!(!s.is_leader);
        assert_eq!(s.lineage, 0);
    }

    #[test]
    fn leader_state_matches_algorithm_3() {
        let p = params();
        let s = AgentState::leader(&p, Color::One, 42);
        assert!(s.active && s.recruiting && s.is_leader);
        assert_eq!(s.color, Color::One);
        assert_eq!(s.to_recruit, p.subphases());
        assert_eq!(s.lineage, 42);
    }

    #[test]
    fn eval_phase_flag() {
        let p = params();
        let mut s = AgentState::fresh(&p);
        assert!(!s.in_eval_phase());
        s.round = p.eval_round();
        assert!(s.in_eval_phase());
    }

    #[test]
    fn color_flip_and_bits() {
        assert_eq!(Color::Zero.flipped(), Color::One);
        assert_eq!(Color::One.flipped(), Color::Zero);
        assert_eq!(Color::Zero.as_bit(), 0);
        assert_eq!(Color::One.as_bit(), 1);
        assert_eq!(Color::from_bit(0), Color::Zero);
        assert_eq!(Color::from_bit(1), Color::One);
        assert_eq!(Color::from_bit(3), Color::One);
        assert_eq!(Color::from_bit(2), Color::Zero);
    }

    #[test]
    fn observation_hides_color_of_inactive_agents() {
        let p = params();
        let mut s = AgentState::fresh(&p);
        s.color = Color::One;
        let obs = s.observe();
        assert_eq!(obs.color, None);
        assert_eq!(obs.lineage, None);
        s.active = true;
        let obs = s.observe();
        assert_eq!(obs.color, Some(true));
        assert_eq!(obs.lineage, Some(0));
    }

    #[test]
    fn desynced_state_only_differs_in_round() {
        let p = params();
        let s = AgentState::desynced(&p, 77);
        assert_eq!(s.round, 77);
        assert!(!s.active);
    }

    #[test]
    fn active_at_uses_round_schedule() {
        let p = params();
        let s = AgentState::active_at(&p, 1, Color::Zero);
        assert_eq!(s.to_recruit, p.subphases() - 1);
        assert!(s.active && !s.recruiting);
    }
}
