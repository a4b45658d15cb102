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

// `encode` and `decode` run once per agent from the engine's generic
// capture and restore loops, which instantiate in the caller's crate; the
// `#[inline]`s make the record codec available for inlining there.
impl SnapshotState for AgentState {
    fn state_tag() -> String {
        "population-stability".to_string()
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        let mut rec = [0u8; RECORD_LEN];
        rec[0..4].copy_from_slice(&self.round.to_le_bytes());
        rec[4] = u8::from(self.active);
        rec[5] = self.color.as_bit();
        rec[6] = u8::from(self.recruiting);
        rec[7..11].copy_from_slice(&self.to_recruit.to_le_bytes());
        rec[11] = u8::from(self.is_leader);
        rec[12..20].copy_from_slice(&self.lineage.to_le_bytes());
        rec[20..24].copy_from_slice(&self.epoch_len.to_le_bytes());
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
        out.extend_from_slice(&rec);
    }

    #[inline]
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let start = r.offset();
        let Ok(rec) = r.bytes(RECORD_LEN) else {
            return decode_fields(r);
        };
        let rec: &[u8; RECORD_LEN] = rec.try_into().expect("bytes(RECORD_LEN) is a whole record");
        if (rec[4] | rec[6] | rec[11]) > 1 {
            return Err(bad_flag(r, rec, start));
        }
        let u32_at =
            |at: usize| u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
        let mut lineage = [0u8; 8];
        lineage.copy_from_slice(&rec[12..20]);
        Ok(AgentState {
            round: u32_at(0),
            active: rec[4] == 1,
            color: Color::from_bit(rec[5]),
            recruiting: rec[6] == 1,
            to_recruit: u32_at(7),
            is_leader: rec[11] == 1,
            lineage: u64::from_le_bytes(lineage),
            epoch_len: u32_at(20),
        })
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
