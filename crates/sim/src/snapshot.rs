//! Exact checkpoint/restore of engine state (ROADMAP open item 3).
//!
//! Because every random quantity in the engine is *counter-addressable* —
//! agent draws are keyed on `(seed, round, slot)` (agent stream
//! [`AGENT_STREAM_VERSION`]), matching on
//! `round_key(match_key, round)` (matching stream
//! [`MATCHING_STREAM_VERSION`])
//! — an engine's future is a pure function of `(SimConfig, round, agent
//! states, adversary-stream position)`. A [`Snapshot`] captures exactly
//! those four things, so a restored engine continues **bit-for-bit**
//! identically to the uninterrupted run, under [`Threads::Serial`] and
//! [`Threads::Sharded`] alike (pinned by the `snapshot_resume` property
//! tests and the CI snapshot determinism leg).
//!
//! [`Threads::Serial`]: crate::Threads::Serial
//! [`Threads::Sharded`]: crate::Threads::Sharded
//!
//! # What is (and is not) captured
//!
//! Captured: the [`SimConfig`] (seed, matching model, budget, caps), the
//! round counter, the halt flag, every agent's protocol state (via
//! [`SnapshotState`]), and the raw position of the engine-owned adversary
//! RNG stream. Per-round agent/matching keys are *not* stored — they are
//! re-derived from the config seed on restore, which is what makes a
//! seed-perturbed [`fork`](Snapshot::fork) diverge.
//!
//! Not captured: the protocol instance and the adversary instance (the
//! caller supplies both to [`Engine::restore`](crate::Engine::restore) —
//! which is the fork hook: restore the same bytes against a *different*
//! adversary to branch the future), any internal adversary state outside
//! the engine-owned RNG stream (every workspace adversary is stateless or
//! round-keyed, so registry scenarios resume exactly), and the engine's
//! scratch buffers (semantically invisible; rebuilt lazily).
//!
//! # Format
//!
//! A versioned, std-only little-endian binary layout: an 8-byte magic, the
//! [`SNAPSHOT_FORMAT_VERSION`], the two embedded stream versions (a
//! snapshot from a different stream generation is *rejected*, not
//! reinterpreted), a free-form label, the protocol-state tag, the config,
//! the round/halt/adversary-stream words, the encoded agent column, and a
//! trailing [`seal`] checksum over everything before it, verified before
//! any payload field is parsed. A truncated or bit-flipped file is
//! therefore always rejected with a contextual [`SnapshotError`] (byte
//! offset + layout section) instead of decoding to plausible garbage.
//! [`write_to_file`](Snapshot::write_to_file) is atomic (temp file + fsync +
//! rename), so a crash mid-write never leaves a half-snapshot at the target
//! path. Format bumps follow the same coordinated protocol as stream bumps
//! (see `tests/golden/README.md`), and popstab-lint's
//! `stream-version-coherence` rule cross-checks the constant against the
//! README table and this module's version history.
//!
//! # Auto-checkpointing and crash recovery
//!
//! The [`Checkpoint`] observer snapshots a running engine every `k` rounds
//! into a rotation of files, and [`Checkpoint::scan`] finds the newest
//! *valid* checkpoint in such a rotation — skipping corrupt files, which the
//! checksum makes detectable — so a crashed run resumes from the latest
//! surviving state (`experiments run-recoverable` wires this end to end).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::agent::Protocol;
use crate::config::SimConfig;
use crate::driver::{EngineView, Observer};
use crate::engine::{HaltReason, RoundReport};
use crate::matching::{MatchingModel, MATCHING_STREAM_VERSION};
use crate::rng::{splitmix_finalize, AGENT_STREAM_VERSION};

/// Version of the snapshot binary format. Bumped whenever the byte layout
/// changes; the README table under `### Snapshot format` in
/// `tests/golden/README.md` records the history (cross-checked by
/// popstab-lint, which also requires the newest `vN` entry below to match
/// this constant).
///
/// * v1 — initial layout: magic + versions + label + state tag + config +
///   round/halt/adv-stream + encoded agent column.
/// * v2 — appends a trailing FNV-1a 64 checksum over all preceding bytes,
///   verified at decode before any payload field is parsed.
/// * v3 — the v2 layout with the trailer computed by [`seal`], a four-lane
///   word checksum that runs at memory speed (FNV-1a's byte-serial
///   multiply chain took ~40 ms per 24 MiB snapshot on a 2-vCPU x86-64
///   VM); v2 files are rejected as [`SnapshotError::UnsupportedVersion`].
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Leading magic of every snapshot file.
const MAGIC: &[u8; 8] = b"POPSNAP\0";

/// Bytes of the checksum trailer (one little-endian `u64`).
const CHECKSUM_LEN: usize = 8;

/// Sanity cap on the agent count a snapshot may claim. Decoding is
/// length-checked everywhere, but the agent *count* is a bare integer a
/// corrupted-yet-resealed file could set to `u64::MAX`; capping it bounds
/// the restore loop (and any pre-allocation) long before memory pressure.
pub const MAX_SNAPSHOT_AGENTS: u64 = 1 << 26;

/// Domain separator for the adversary-stream perturbation in
/// [`Snapshot::fork`], so the adversary stream and the master seed never
/// receive the same mix of one salt.
const ADV_FORK_DOMAIN: u64 = 0xA5A5_1DE0_0B5E_55ED;

/// Multiplier of every [`seal`] lane step (odd, so the multiply is a
/// bijection on `u64`).
const SEAL_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial states of the four [`seal`] lanes (the first hex digits of π's
/// fraction), distinct so equal words in different lanes hash apart.
const SEAL_LANES: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The snapshot's std-only integrity checksum (the format-v3 trailer).
///
/// Four independent lanes run over 32-byte strides of little-endian `u64`
/// words, lane `i` taking word `i` of every stride and stepping as
/// `h = (h ^ w).wrapping_mul(K).rotate_left(31)`; the lanes have no data
/// dependence on each other, so the pass runs at memory speed. The tail
/// left after the last full stride (fewer than 32 bytes, zero-padded to
/// whole words), then the byte length, then the four lanes in order, are
/// folded through the SplitMix64 finalizer as `h = finalize(h ^ x)`.
///
/// Every step — xor, multiply by an odd constant, rotation, finalizer — is
/// a bijection in the running state for a fixed input and in the input for
/// a fixed state. So a corruption confined to one aligned 8-byte word or
/// one tail byte changes the seal **with certainty**, not with probability
/// 2⁻⁶⁴. Inputs of different lengths fold different length words; the
/// snapshot layout's length prefixes then make a truncated or extended
/// file fail to parse even in the unlikely event that its seal matches.
/// Not cryptographic: it detects the accidental corruption class
/// (truncation, bit rot, torn writes), which is the failure model snapshot
/// files actually face in checkpoint rotations.
pub fn seal(bytes: &[u8]) -> u64 {
    let mut lanes = SEAL_LANES;
    let mut strides = bytes.chunks_exact(32);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(SEAL_K).rotate_left(31);
        }
    }
    let mut h = 0u64;
    for word in strides.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        h = splitmix_finalize(h ^ u64::from_le_bytes(padded));
    }
    h = splitmix_finalize(h ^ bytes.len() as u64);
    for lane in lanes {
        h = splitmix_finalize(h ^ lane);
    }
    h
}

/// What can go wrong encoding, decoding, or restoring a snapshot.
///
/// Every decode-side variant carries enough context to act on: truncation
/// and malformation name the byte offset and the layout section being
/// decoded, checksum mismatches carry both sums.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(io::Error),
    /// The byte stream ended before the layout did.
    Truncated {
        /// Byte offset the failed read started at.
        offset: usize,
        /// The layout section being decoded when the bytes ran out.
        section: &'static str,
    },
    /// The bytes parse but violate the layout's invariants.
    Malformed {
        /// What invariant the bytes violate.
        what: &'static str,
        /// Byte offset of the offending value.
        offset: usize,
        /// The layout section being decoded.
        section: &'static str,
    },
    /// The trailing checksum does not match the payload: the file was
    /// corrupted (bit flip, torn write, truncation) after it was sealed.
    ChecksumMismatch {
        /// The checksum computed over the payload actually present.
        expected: u64,
        /// The checksum stored in the trailer.
        found: u64,
    },
    /// The leading magic is not a snapshot's.
    BadMagic,
    /// The snapshot was written by an unknown (newer) format version.
    UnsupportedVersion {
        /// The format version the snapshot claims.
        found: u32,
    },
    /// The snapshot was captured under a different randomness stream
    /// generation; resuming it would not reproduce the original run.
    StreamMismatch {
        /// Which stream disagrees (`"agent"` or `"matching"`).
        stream: &'static str,
        /// The version embedded in the snapshot.
        found: u32,
        /// This build's version.
        expected: u32,
    },
    /// The snapshot holds a different protocol's agent states.
    StateTagMismatch {
        /// The state tag embedded in the snapshot.
        found: String,
        /// The restoring protocol's tag.
        expected: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Truncated { offset, section } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} (decoding {section})"
                )
            }
            SnapshotError::Malformed {
                what,
                offset,
                section,
            } => write!(f, "malformed snapshot at byte {offset} ({section}): {what}"),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: payload hashes to {expected:#018x} but the trailer \
                 says {found:#018x} — the file is corrupted"
            ),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format v{found} (this build reads v{SNAPSHOT_FORMAT_VERSION})"
                )
            }
            SnapshotError::StreamMismatch {
                stream,
                found,
                expected,
            } => write!(
                f,
                "snapshot was captured under {stream} stream v{found}, this build runs v{expected}"
            ),
            SnapshotError::StateTagMismatch { found, expected } => write!(
                f,
                "snapshot holds `{found}` agent states, the restoring protocol needs `{expected}`"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Appends a `u8` to a snapshot byte stream.
pub fn write_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `bool` as one byte (`0`/`1`).
pub fn write_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    write_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a snapshot byte stream, handed to
/// [`SnapshotState::decode`] implementations. Every read is
/// bounds-checked; running off the end yields
/// [`SnapshotError::Truncated`] carrying the byte offset and the layout
/// section being decoded (set with [`set_section`](Self::set_section)).
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader {
            buf,
            pos: 0,
            section: "snapshot",
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The byte offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Names the layout section subsequent reads belong to, so decode
    /// errors report *where in the layout* the bytes went wrong, not just
    /// the raw offset.
    pub fn set_section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// A [`SnapshotError::Malformed`] at the reader's current position —
    /// the error constructor `decode` implementations should use, so their
    /// diagnostics carry the same offset/section context as the reader's
    /// own.
    pub fn malformed(&self, what: &'static str) -> SnapshotError {
        SnapshotError::Malformed {
            what,
            offset: self.pos,
            section: self.section,
        }
    }

    /// A [`SnapshotError::Truncated`] at the reader's current position.
    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            offset: self.pos,
            section: self.section,
        }
    }

    /// Consumes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.buf.len() {
            return Err(self.truncated());
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Consumes one `bool` byte; anything but `0`/`1` is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.malformed("bool byte out of range")),
        }
    }

    /// Consumes an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consumes a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("string is not UTF-8"))
    }
}

/// Exact binary encode/decode of one protocol's per-agent state.
///
/// Implementations must round-trip exactly (`decode(encode(s)) == s` field
/// for field) — the snapshot determinism guarantee is only as strong as
/// the state encoding. The tag names the state type so a snapshot cannot
/// be restored against the wrong protocol; wrapper states compose it
/// (e.g. the extensions crate's malice wrapper tags itself
/// `malice<{inner}>`).
pub trait SnapshotState: Sized {
    /// A stable, human-readable name for this state type.
    fn state_tag() -> String;
    /// Appends this state's exact binary encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one state from the reader (the inverse of
    /// [`encode`](SnapshotState::encode)).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`] when the
    /// bytes do not hold a valid state (build the latter with
    /// [`SnapshotReader::malformed`], which stamps the offset context in).
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// A checkpoint of a running engine: everything its future depends on.
///
/// Produced by [`Engine::snapshot`](crate::Engine::snapshot) (or
/// [`EngineView::snapshot`] from inside an observer), consumed by
/// [`Engine::restore`](crate::Engine::restore); serialized with
/// [`to_bytes`](Snapshot::to_bytes) / [`from_bytes`](Snapshot::from_bytes)
/// (or the file conveniences). [`fork`](Snapshot::fork) derives divergent
/// branches. See the module docs for what is and is not captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Free-form caller label (e.g. the registry scenario name a CLI
    /// snapshot was taken from); round-trips through the byte format but
    /// never affects the simulation.
    pub label: String,
    pub(crate) state_tag: String,
    pub(crate) config: SimConfig,
    pub(crate) round: u64,
    pub(crate) halted: Option<HaltReason>,
    pub(crate) adv_rng_state: u64,
    pub(crate) agent_count: u64,
    pub(crate) agent_bytes: Vec<u8>,
}

impl Snapshot {
    /// The round the engine had completed when the snapshot was taken.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The captured population size.
    pub fn population(&self) -> usize {
        self.agent_count as usize
    }

    /// The captured configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Mutable access to the captured configuration, for counterfactual
    /// branches that change parameters (budget, matching model, caps)
    /// before [`Engine::restore`](crate::Engine::restore). Changing the
    /// `seed` re-keys the *future* randomness exactly like
    /// [`fork`](Snapshot::fork) does.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// The tag of the protocol state type captured here.
    pub fn state_tag(&self) -> &str {
        &self.state_tag
    }

    /// Whether the captured engine had halted, and why.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// A branch of this snapshot: the same population and round, with all
    /// *future* randomness re-keyed by `salt`.
    ///
    /// Salt `0` is the identity — restoring the branch reproduces the
    /// straight-line run bit for bit. Any other salt perturbs the master
    /// seed (re-keying the agent and matching streams, which restore
    /// re-derives from the seed) and, through a separate domain, the
    /// adversary stream position, so sibling branches diverge immediately
    /// but each remains exactly reproducible.
    #[must_use]
    pub fn fork(&self, salt: u64) -> Snapshot {
        let mut branch = self.clone();
        if salt != 0 {
            branch.config.seed = splitmix_finalize(self.config.seed ^ splitmix_finalize(salt));
            branch.adv_rng_state =
                splitmix_finalize(self.adv_rng_state ^ splitmix_finalize(salt ^ ADV_FORK_DOMAIN));
        }
        branch
    }

    /// Captures a population and the engine words its future depends on —
    /// the one capture path behind [`Engine::snapshot`](crate::Engine::snapshot)
    /// and [`EngineView::snapshot`]. The column is sized from the first
    /// agent's encoding, so a fixed-width state fills it in one allocation.
    pub(crate) fn capture<S: SnapshotState>(
        agents: &[S],
        config: &SimConfig,
        round: u64,
        halted: Option<HaltReason>,
        adv_rng_state: u64,
    ) -> Snapshot {
        let mut agent_bytes = Vec::new();
        if let Some((first, rest)) = agents.split_first() {
            first.encode(&mut agent_bytes);
            agent_bytes.reserve_exact(agent_bytes.len() * rest.len());
            for agent in rest {
                agent.encode(&mut agent_bytes);
            }
        }
        Snapshot {
            label: String::new(),
            state_tag: S::state_tag(),
            config: config.clone(),
            round,
            halted,
            adv_rng_state,
            agent_count: agents.len() as u64,
            agent_bytes,
        }
    }

    /// Serializes the snapshot (see the module docs for the layout),
    /// sealing it with the [`seal`] checksum trailer. The output is
    /// allocated once, at its exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        write_u32(&mut head, SNAPSHOT_FORMAT_VERSION);
        write_u32(&mut head, AGENT_STREAM_VERSION);
        write_u32(&mut head, MATCHING_STREAM_VERSION);
        write_str(&mut head, &self.label);
        write_str(&mut head, &self.state_tag);
        encode_config(&mut head, &self.config);
        write_u64(&mut head, self.round);
        write_u8(&mut head, encode_halt(self.halted));
        write_u64(&mut head, self.adv_rng_state);
        write_u64(&mut head, self.agent_count);
        write_u64(&mut head, self.agent_bytes.len() as u64);
        let mut out = Vec::with_capacity(head.len() + self.agent_bytes.len() + CHECKSUM_LEN);
        out.extend_from_slice(&head);
        out.extend_from_slice(&self.agent_bytes);
        let trailer = seal(&out);
        write_u64(&mut out, trailer);
        out
    }

    /// Deserializes a snapshot, rejecting wrong magic, unknown format
    /// versions, corrupted payloads (checksum verified before any payload
    /// field is parsed), and snapshots captured under a different
    /// randomness stream generation.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; every decode error names the byte offset and
    /// layout section it arose in. Trailing bytes after the layout are
    /// [`SnapshotError::Malformed`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        r.set_section("magic");
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        r.set_section("format version");
        let format = r.u32()?;
        if format != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: format });
        }
        // Trailer: the final 8 bytes checksum everything before them.
        // Verified *now*, before any payload parsing, so corruption anywhere
        // in the payload reports as a checksum mismatch rather than as
        // whatever decode error the flipped bytes happen to trip.
        r.set_section("checksum trailer");
        if bytes.len() < r.offset() + CHECKSUM_LEN {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
                section: "checksum trailer",
            });
        }
        let body_len = bytes.len() - CHECKSUM_LEN;
        let found = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
        let expected = seal(&bytes[..body_len]);
        if found != expected {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        r.set_section("stream versions");
        for (stream, expected) in [
            ("agent", AGENT_STREAM_VERSION),
            ("matching", MATCHING_STREAM_VERSION),
        ] {
            let found = r.u32()?;
            if found != expected {
                return Err(SnapshotError::StreamMismatch {
                    stream,
                    found,
                    expected,
                });
            }
        }
        r.set_section("label");
        let label = r.str()?;
        r.set_section("state tag");
        let state_tag = r.str()?;
        r.set_section("config");
        let config = decode_config(&mut r)?;
        r.set_section("round/halt/adversary stream");
        let round = r.u64()?;
        let halted = decode_halt(&mut r)?;
        let adv_rng_state = r.u64()?;
        r.set_section("agent column");
        let agent_count = r.u64()?;
        if agent_count > MAX_SNAPSHOT_AGENTS {
            return Err(r.malformed("agent count exceeds the sanity cap"));
        }
        let agent_len = r.u64()?;
        let agent_len =
            usize::try_from(agent_len).map_err(|_| r.malformed("agent column too large"))?;
        let agent_bytes = r.bytes(agent_len)?.to_vec();
        if r.remaining() != CHECKSUM_LEN {
            return Err(r.malformed("trailing bytes"));
        }
        Ok(Snapshot {
            label,
            state_tag,
            config,
            round,
            halted,
            adv_rng_state,
            agent_count,
            agent_bytes,
        })
    }

    /// Writes [`to_bytes`](Snapshot::to_bytes) to a file **atomically**:
    /// the bytes go to a `.tmp` sibling first, are fsynced, and the
    /// temporary is renamed over `path` — so a crash (or injected fault) at
    /// any point leaves either the previous file or the complete new one,
    /// never a half-snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure (the temporary is
    /// cleaned up on the error path).
    pub fn write_to_file<Q: AsRef<Path>>(&self, path: Q) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let bytes = self.to_bytes();
        let result = (|| -> io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, &bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(result?)
    }

    /// Reads and [`from_bytes`](Snapshot::from_bytes)-decodes a file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, plus every
    /// [`from_bytes`](Snapshot::from_bytes) error.
    pub fn read_from_file<Q: AsRef<Path>>(path: Q) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_bytes(&std::fs::read(path)?)
    }
}

impl<P: Protocol> EngineView<'_, P>
where
    P::State: SnapshotState,
{
    /// Captures the observed post-round engine state as an unlabeled
    /// [`Snapshot`] — the observer-side twin of
    /// [`Engine::snapshot`](crate::Engine::snapshot), which is what lets
    /// the [`Checkpoint`] combinator checkpoint a run from *inside* the
    /// round loop. On the columnar path this materializes the agents
    /// ([`EngineView::agents`]), so only snapshotted rounds cost a store.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(
            self.agents(),
            self.config,
            self.round,
            self.halted,
            self.adv_rng_state,
        )
    }
}

/// An [`Observer`] that checkpoints the run every `k` rounds into a
/// rotation of snapshot files.
///
/// Rounds `k, 2k, 3k, …` (the engine's post-round global counter) are
/// snapshotted to `<base>.<slot>.snap` with `slot = (round / k) % keep`, so
/// at most `keep` files ever exist and the newest checkpoints overwrite the
/// oldest slots. Writes are atomic ([`Snapshot::write_to_file`]), and write
/// *failures never interrupt the run* — they are collected into
/// [`errors`](Checkpoint::errors) for the caller to inspect, because a
/// full disk should cost you checkpoints, not the simulation.
///
/// [`Checkpoint::scan`] is the recovery-side counterpart: it inspects a
/// rotation and returns the newest checkpoint that still decodes, skipping
/// corrupt files (which the [`seal`] trailer makes reliably detectable).
///
/// ```no_run
/// use popstab_sim::{protocols::Inert, Checkpoint, Engine, RunSpec, SimConfig};
///
/// let cfg = SimConfig::builder().seed(7).build().unwrap();
/// let mut engine = Engine::with_population(Inert, cfg, 64);
/// let mut ckpt = Checkpoint::every(10, "run.ckpt").keep(3).label("demo");
/// engine.run(RunSpec::rounds(100), &mut ckpt);
/// assert!(ckpt.errors().is_empty());
/// ```
#[derive(Debug)]
pub struct Checkpoint {
    base: PathBuf,
    every: u64,
    keep: usize,
    label: String,
    written: u64,
    errors: Vec<(u64, SnapshotError)>,
}

impl Checkpoint {
    /// Checkpoints every `every` rounds (`0` is clamped to 1) into the
    /// rotation rooted at `base`, keeping 3 slots by default.
    pub fn every<Q: Into<PathBuf>>(every: u64, base: Q) -> Checkpoint {
        Checkpoint {
            base: base.into(),
            every: every.max(1),
            keep: 3,
            label: String::new(),
            written: 0,
            errors: Vec::new(),
        }
    }

    /// Sets the rotation depth (`0` is clamped to 1).
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Checkpoint {
        self.keep = keep.max(1);
        self
    }

    /// Sets the label stamped into every written snapshot (e.g. the
    /// registry scenario name, which is how `experiments run-recoverable`
    /// refuses to resume the wrong scenario's checkpoints).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Checkpoint {
        self.label = label.into();
        self
    }

    /// Snapshots successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Checkpoint writes that failed, as `(round, error)` pairs. Failures
    /// never interrupt the observed run.
    pub fn errors(&self) -> &[(u64, SnapshotError)] {
        &self.errors
    }

    /// The rotation file for `slot`: `<base>.<slot>.snap`.
    pub fn slot_path(base: &Path, slot: usize) -> PathBuf {
        let mut name = base.as_os_str().to_os_string();
        name.push(format!(".{slot}.snap"));
        PathBuf::from(name)
    }

    /// Scans the rotation rooted at `base` (slots `0..keep`) for the newest
    /// *valid* checkpoint: the decodable snapshot with the highest round.
    /// Files that exist but fail to decode — truncated, bit-flipped,
    /// version-foreign — are reported in [`RecoveryScan::skipped`] and
    /// recovery falls back to the next-best slot; missing slots are simply
    /// absent.
    pub fn scan(base: &Path, keep: usize) -> RecoveryScan {
        let mut best: Option<(PathBuf, Snapshot)> = None;
        let mut skipped = Vec::new();
        for slot in 0..keep.max(1) {
            let path = Checkpoint::slot_path(base, slot);
            match Snapshot::read_from_file(&path) {
                Ok(snap) => {
                    if best.as_ref().is_none_or(|(_, b)| snap.round > b.round) {
                        best = Some((path, snap));
                    }
                }
                Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => skipped.push((path, e)),
            }
        }
        RecoveryScan { best, skipped }
    }
}

impl<P: Protocol> Observer<P> for Checkpoint
where
    P::State: SnapshotState,
{
    fn on_round(&mut self, _report: &RoundReport, view: &EngineView<'_, P>) {
        if !view.round().is_multiple_of(self.every) {
            return;
        }
        let mut snap = view.snapshot();
        snap.label = self.label.clone();
        let slot = ((view.round() / self.every) % self.keep as u64) as usize;
        match snap.write_to_file(Checkpoint::slot_path(&self.base, slot)) {
            Ok(()) => self.written += 1,
            Err(e) => self.errors.push((view.round(), e)),
        }
    }
}

/// The result of [`Checkpoint::scan`]: the newest valid checkpoint in a
/// rotation, plus every corrupt file the scan skipped on the way.
#[derive(Debug)]
pub struct RecoveryScan {
    /// The decodable snapshot with the highest round, and its path.
    pub best: Option<(PathBuf, Snapshot)>,
    /// Rotation files that exist but failed to decode (missing files are
    /// not listed — only genuine corruption or version skew).
    pub skipped: Vec<(PathBuf, SnapshotError)>,
}

/// Encodes a [`SimConfig`] (tagged matching model, then the scalar
/// fields; `usize` fields widen to `u64`).
fn encode_config(out: &mut Vec<u8>, cfg: &SimConfig) {
    match cfg.matching {
        MatchingModel::Full => write_u8(out, 0),
        MatchingModel::ExactFraction(gamma) => {
            write_u8(out, 1);
            write_f64(out, gamma);
        }
        MatchingModel::RandomFraction { min_gamma } => {
            write_u8(out, 2);
            write_f64(out, min_gamma);
        }
    }
    write_u64(out, cfg.adversary_budget as u64);
    write_u64(out, cfg.seed);
    write_u64(out, cfg.max_population as u64);
    write_u64(out, cfg.target);
}

/// The inverse of [`encode_config`].
fn decode_config(r: &mut SnapshotReader<'_>) -> Result<SimConfig, SnapshotError> {
    let matching = match r.u8()? {
        0 => MatchingModel::Full,
        1 => MatchingModel::ExactFraction(r.f64()?),
        2 => MatchingModel::RandomFraction {
            min_gamma: r.f64()?,
        },
        _ => return Err(r.malformed("unknown matching model tag")),
    };
    let adversary_budget = read_usize(r, "adversary budget does not fit usize")?;
    let seed = r.u64()?;
    let max_population = read_usize(r, "max population does not fit usize")?;
    let target = r.u64()?;
    Ok(SimConfig {
        matching,
        adversary_budget,
        seed,
        max_population,
        target,
    })
}

/// Reads a `u64` that must fit this platform's `usize`.
fn read_usize(r: &mut SnapshotReader<'_>, what: &'static str) -> Result<usize, SnapshotError> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| r.malformed(what))
}

/// One-byte halt tag: `0` running, `1` extinct, `2` exploded.
fn encode_halt(halted: Option<HaltReason>) -> u8 {
    match halted {
        None => 0,
        Some(HaltReason::Extinct) => 1,
        Some(HaltReason::Exploded) => 2,
    }
}

/// The inverse of [`encode_halt`].
fn decode_halt(r: &mut SnapshotReader<'_>) -> Result<Option<HaltReason>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(HaltReason::Extinct)),
        2 => Ok(Some(HaltReason::Exploded)),
        _ => Err(r.malformed("unknown halt tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            label: "clean-1024".into(),
            state_tag: "inert".into(),
            config: SimConfig::builder()
                .seed(0xFEED)
                .matching(MatchingModel::ExactFraction(0.25))
                .adversary_budget(3)
                .target(1024)
                .build()
                .unwrap(),
            round: 17,
            halted: None,
            adv_rng_state: 0xDEAD_BEEF_CAFE_F00D,
            agent_count: 2,
            agent_bytes: vec![1, 2, 3, 4],
        }
    }

    /// Recomputes the checksum trailer after a test hand-patches payload
    /// bytes, so the patch under test is reached instead of the checksum
    /// rejecting the edit first.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - CHECKSUM_LEN;
        let trailer = seal(&bytes[..body]);
        bytes[body..].copy_from_slice(&trailer.to_le_bytes());
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let snap = sample();
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn every_matching_model_roundtrips() {
        for model in [
            MatchingModel::Full,
            MatchingModel::ExactFraction(0.7),
            MatchingModel::RandomFraction { min_gamma: 0.4 },
        ] {
            let mut snap = sample();
            snap.config.matching = model;
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(back.config.matching, model);
        }
    }

    #[test]
    fn every_halt_state_roundtrips() {
        for halted in [None, Some(HaltReason::Extinct), Some(HaltReason::Exploded)] {
            let mut snap = sample();
            snap.halted = halted;
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(back.halted, halted);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_format_versions_are_rejected() {
        // No reseal: the format version is checked before the checksum, so
        // a genuinely newer format (whose trailer location we cannot know)
        // still reports *version*, not corruption.
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn foreign_stream_versions_are_rejected() {
        // Resealed: a file genuinely written under a foreign stream carries
        // a valid checksum, and must still be rejected for its *streams*.
        let mut bytes = sample().to_bytes();
        bytes[12..16].copy_from_slice(&(AGENT_STREAM_VERSION + 1).to_le_bytes());
        reseal(&mut bytes);
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::StreamMismatch { stream, .. }) => assert_eq!(stream, "agent"),
            other => panic!("expected a stream mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        // The checksum covers every payload byte and the trailer is
        // self-invalidating, so *no* single-bit corruption may decode.
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&flipped).is_err(),
                    "flip of byte {i} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn payload_corruption_reports_a_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        // Flip a bit in the label region, past the version words.
        bytes[20] ^= 0x10;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        let at = bytes.len() - CHECKSUM_LEN;
        bytes.insert(at, 0);
        reseal(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed {
                what: "trailing bytes",
                ..
            })
        ));
    }

    #[test]
    fn absurd_agent_counts_are_rejected_by_the_sanity_cap() {
        let mut snap = sample();
        snap.agent_count = MAX_SNAPSHOT_AGENTS + 1;
        let bytes = snap.to_bytes();
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed { what, section, .. }) => {
                assert!(what.contains("sanity cap"), "{what}");
                assert_eq!(section, "agent column");
            }
            other => panic!("expected the sanity cap to fire, got {other:?}"),
        }
    }

    #[test]
    fn decode_errors_carry_offset_and_section_context() {
        let bytes = sample().to_bytes();
        // Truncate inside the label string, then reseal so the checksum
        // passes and the *parser* reports the damage: the error must name
        // the label section and an offset inside it. (Without the reseal
        // the checksum catches the truncation first — see
        // `truncation_anywhere_is_rejected`.)
        let mut cut = bytes[..22].to_vec();
        cut.extend_from_slice(&[0u8; CHECKSUM_LEN]);
        reseal(&mut cut);
        match Snapshot::from_bytes(&cut) {
            Err(SnapshotError::Truncated { offset, section }) => {
                assert_eq!(section, "label");
                assert!(offset >= 20, "offset {offset} before the label");
            }
            other => panic!("expected contextual truncation, got {other:?}"),
        }
    }

    #[test]
    fn fork_with_salt_zero_is_the_identity() {
        let snap = sample();
        assert_eq!(snap.fork(0), snap);
    }

    #[test]
    fn fork_perturbs_seed_and_adversary_stream_independently() {
        let snap = sample();
        let a = snap.fork(1);
        let b = snap.fork(2);
        // The branch keeps population/round but re-keys future randomness.
        assert_eq!(a.round, snap.round);
        assert_eq!(a.agent_bytes, snap.agent_bytes);
        assert_ne!(a.config.seed, snap.config.seed);
        assert_ne!(a.adv_rng_state, snap.adv_rng_state);
        // Distinct salts yield distinct branches, and forking is a pure
        // function of (snapshot, salt).
        assert_ne!(a.config.seed, b.config.seed);
        assert_eq!(snap.fork(1), a);
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut out = Vec::new();
        write_u8(&mut out, 7);
        write_u32(&mut out, 0xAABB_CCDD);
        write_u64(&mut out, u64::MAX - 1);
        write_bool(&mut out, true);
        write_f64(&mut out, -0.125);
        write_str(&mut out, "tag<inner>");
        let mut r = SnapshotReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "tag<inner>");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn bogus_bool_bytes_are_malformed() {
        let mut r = SnapshotReader::new(&[2]);
        r.set_section("bool test");
        match r.bool() {
            Err(SnapshotError::Malformed {
                offset, section, ..
            }) => {
                assert_eq!(offset, 1);
                assert_eq!(section, "bool test");
            }
            other => panic!("expected malformed bool, got {other:?}"),
        }
    }

    #[test]
    fn to_bytes_allocates_exactly_once() {
        let bytes = sample().to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn capture_sizes_a_fixed_width_column_once() {
        #[derive(Debug, PartialEq)]
        struct Word(u64);
        impl SnapshotState for Word {
            fn state_tag() -> String {
                "word".into()
            }
            fn encode(&self, out: &mut Vec<u8>) {
                write_u64(out, self.0);
            }
            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Word(r.u64()?))
            }
        }
        let agents: Vec<Word> = (0..1000).map(Word).collect();
        let snap = Snapshot::capture(&agents, &sample().config, 3, None, 9);
        assert_eq!(snap.agent_bytes.len(), 8 * agents.len());
        assert_eq!(snap.agent_bytes.capacity(), snap.agent_bytes.len());
        let mut r = SnapshotReader::new(&snap.agent_bytes);
        for agent in &agents {
            assert_eq!(&Word::decode(&mut r).unwrap(), agent);
        }
        let empty = Snapshot::capture::<Word>(&[], &sample().config, 0, None, 0);
        assert_eq!((empty.agent_count, empty.agent_bytes.len()), (0, 0));
    }

    #[test]
    fn seal_matches_the_pinned_reference_values() {
        // Lengths around the 32-byte stride and the 8-byte tail words, so
        // the lanes, the padded tail and the length fold all stay pinned.
        let input: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let pinned: [(usize, u64); 8] = [
            (0, 0x22A6_1BA7_F80F_5303),
            (1, 0xE834_2CDA_BC0A_D98E),
            (7, 0x2272_CC78_E75D_3636),
            (8, 0x929F_11A8_D57B_DEC9),
            (31, 0x4281_757C_264F_2A61),
            (32, 0xE54B_55A6_5171_AF10),
            (33, 0x889C_2C3C_C45E_2AAC),
            (100, 0xA7F2_A8B2_D7FF_870D),
        ];
        for (len, want) in pinned {
            assert_eq!(seal(&input[..len]), want, "seal of {len} bytes");
        }
    }

    #[test]
    fn any_aligned_word_corruption_is_detected() {
        // A change confined to one aligned word is certain to move the
        // seal, so every such corruption must be rejected.
        let bytes = sample().to_bytes();
        for at in (0..bytes.len()).step_by(8) {
            for delta in [1u64, 0x8000_0000_0000_0000, u64::MAX, 0x0123_4567_89AB_CDEF] {
                let mut dirty = bytes.clone();
                let end = (at + 8).min(bytes.len());
                for (b, d) in dirty[at..end].iter_mut().zip(delta.to_le_bytes()) {
                    *b ^= d;
                }
                if dirty == bytes {
                    continue; // the delta lies wholly past a short final word
                }
                assert!(
                    Snapshot::from_bytes(&dirty).is_err(),
                    "xor {delta:#x} into the word at byte {at} decoded"
                );
            }
        }
    }

    #[test]
    fn a_swap_of_words_in_different_lanes_is_detected() {
        // Bytes 32..40 feed lane 0 of the second stride, 72..80 lane 1 of
        // the third; both lie past the version words.
        let bytes = sample().to_bytes();
        let (a, b) = (32, 72);
        assert_ne!(bytes[a..a + 8], bytes[b..b + 8]);
        let mut swapped = bytes.clone();
        swapped[a..a + 8].copy_from_slice(&bytes[b..b + 8]);
        swapped[b..b + 8].copy_from_slice(&bytes[a..a + 8]);
        assert!(matches!(
            Snapshot::from_bytes(&swapped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn format_v2_files_are_rejected_as_unsupported() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 2 })
        ));
    }
}
