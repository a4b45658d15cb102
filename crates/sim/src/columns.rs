//! Struct-of-arrays (columnar) execution of the engine's step phase.
//!
//! The scalar step phase walks `Vec<P::State>` one agent at a time:
//! compose the partner's message, key a [`slot_rng`](crate::rng::slot_rng),
//! call [`Protocol::step`]. That layout streams the whole agent vector
//! through the cache every round and re-derives per-agent control flow
//! that is identical across almost every agent. A protocol can opt in to
//! a columnar twin of its step function via [`ColumnarProtocol`]: agent
//! state lives transposed in contiguous columns (`Vec<u32>`/`Vec<u64>`
//! words, packed [`BitCol`] bitmasks) and the round's transition runs as
//! word-at-a-time kernels over 64-agent blocks, batching coin draws with
//! the `_x8` kernels in [`rng`](crate::rng).
//!
//! # Residency: who owns the state
//!
//! A [`ColumnarStep`] is a *second representation* of the population, and
//! the engine tracks which side is current. [`ColumnarStep::load`]
//! transposes `Vec<P::State>` into the columns; [`ColumnarStep::step`]
//! and [`ColumnarStep::apply`] then advance the columns round after round
//! **without touching the vector**; [`ColumnarStep::store`] transposes
//! back on demand. On the recording-free fast path (`()` observer, no-op
//! adversary) the engine loads once, keeps the columns resident for the
//! whole run, and stores once at the end — the per-round traffic drops
//! from two streams over 24-byte structs to a handful of compact columns.
//! Whenever something needs the vector (a recording observer, a real
//! adversary, a snapshot), the engine materializes it first; whenever
//! something mutates the vector, the engine reloads the columns before
//! the next step. See [`Engine`](crate::Engine) for the exact gating
//! ([`Observer::needs_engine_state`](crate::Observer::needs_engine_state),
//! [`Adversary::is_noop`](crate::Adversary::is_noop)).
//!
//! # Determinism contract
//!
//! The columnar path is an *evaluation batching* change only: it must
//! consume exactly the draw positions the scalar path would consume for
//! every agent whose behavior is observable (draws are counter-addressable,
//! so batching cannot reorder them), and a `store` after any number of
//! resident rounds must leave `Vec<P::State>`, the split/death lists, and
//! therefore traces, snapshots and golden fixtures
//! bit-identical to the scalar path. Engines expose
//! [`set_columnar`](crate::Engine::set_columnar) so equivalence tests can
//! pin the two paths against each other; `tests/columnar_equivalence.rs`
//! does exactly that over random `(seed, rounds, workers)`.

use std::fmt;

use crate::agent::Protocol;
use crate::batch::ShardPool;

/// A protocol's columnar state store and step-phase executor, as installed
/// into an engine.
///
/// One value lives inside each engine (carrying the column buffers across
/// rounds, so steady-state rounds allocate nothing). The engine drives it
/// through a load → (step → apply)* → store lifecycle; implementations
/// must uphold the module-level determinism contract at every `store`
/// point.
///
/// `Debug` keeps `Engine`'s derive working; `Send` lets engines holding a
/// stepper migrate across [`BatchRunner`](crate::BatchRunner) workers.
pub trait ColumnarStep<S>: fmt::Debug + Send {
    /// Transposes `agents` into the columns, making them authoritative.
    /// Called by the engine whenever the vector was mutated behind the
    /// columns' back (initial round, adversary alterations, restores).
    ///
    /// `pool` is the pool the round runs on — the engine always passes
    /// `Some`, and `None` means one shard. The transpose may fan out across
    /// [`dispatch`](ShardPool::dispatch), but the result must not depend on
    /// the shard count.
    fn load(&mut self, agents: &[S], pool: Option<&ShardPool>);

    /// Runs one step phase over the resident columns (which must be
    /// current, i.e. `load` or a previous `step`/`apply` produced them).
    ///
    /// `partners` is the round's partner table as
    /// [`sample_partners_into`](crate::matching::sample_partners_into)
    /// builds it: one entry per resident agent, `partners[i]` agent `i`'s
    /// partner slot (`< self.len()`, and `partners[partners[i]] == i`) or
    /// [`UNMATCHED`](crate::matching::UNMATCHED). Implementations may rely
    /// on that bound to index without checks. `round_key` is the
    /// engine's per-round agent-stream key (agent `i` draws from
    /// [`slot_rng`](crate::rng::slot_rng)`(round_key, i)`). `pool` means
    /// what it means for [`load`](Self::load): the engine always passes
    /// `Some`, `None` is one shard, and the result must not depend on the
    /// shard count. Split and death
    /// slots must be pushed exactly as the scalar loop pushes them:
    /// ascending slot order (the engine applies splits in push order).
    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    );

    /// Applies the round's splits and deaths to the columns, mirroring the
    /// engine's vector semantics exactly: daughters are appended in
    /// `splits` order (each a copy of its post-step parent), then `deaths`
    /// (sorted ascending, deduplicated by the engine) are swap-removed in
    /// descending order.
    fn apply(&mut self, splits: &[usize], deaths: &[usize]);

    /// Transposes the columns back into `agents` (clearing it first),
    /// reproducing byte for byte the vector the scalar path would hold
    /// after the same rounds.
    fn store(&self, agents: &mut Vec<S>);

    /// Current population held in the columns.
    fn len(&self) -> usize;

    /// Whether the resident population is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the stepper's column buffers, for the
    /// bench harness's `mem_bytes_per_agent` accounting. Default 0 for
    /// steppers without retained buffers.
    fn mem_bytes(&self) -> usize {
        0
    }
}

/// Opt-in trait for protocols with a columnar step-phase twin.
///
/// Implementing this (plus overriding [`Protocol::columnar`] to call
/// [`columnar_box`]) switches every engine running the protocol onto the
/// columnar path; nothing else about the protocol, the observer surface,
/// or the snapshot format changes.
pub trait ColumnarProtocol: Protocol {
    /// The stepper type carrying this protocol's column buffers.
    type Columns: ColumnarStep<Self::State> + 'static;

    /// Builds a fresh stepper (empty buffers; sized lazily per round).
    fn columns(&self) -> Self::Columns;
}

/// Boxes a [`ColumnarProtocol`]'s stepper for [`Protocol::columnar`] — the
/// one-line body of the override:
///
/// ```ignore
/// fn columnar(&self) -> Option<Box<dyn ColumnarStep<Self::State>>> {
///     popstab_sim::columns::columnar_box(self)
/// }
/// ```
pub fn columnar_box<P: ColumnarProtocol>(protocol: &P) -> Option<Box<dyn ColumnarStep<P::State>>> {
    Some(Box::new(protocol.columns()))
}

/// A packed bit column: bit `i % 64` of word `i / 64` holds agent `i`'s
/// flag. The unit of kernel work is one 64-agent word; loaders write whole
/// words (tail bits zero), so resizing never needs to clear.
#[derive(Debug, Clone, Default)]
pub struct BitCol {
    words: Vec<u64>,
}

impl BitCol {
    /// Resizes to `words` words. Contents are unspecified — every loader
    /// writes each word in full before kernels read it, so no clearing.
    #[inline]
    pub fn resize_words(&mut self, words: usize) {
        self.words.resize(words, 0);
    }

    /// The packed words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, mutably.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Retained capacity in bytes, for memory accounting.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// The mask selecting the live low `lanes` bits of a word (`lanes ≤ 64`);
/// kernels use it to keep a population tail's dead high bits zero.
#[inline]
pub fn tail_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// The *word* range shard `s` of `nshards` owns over `n_words` bitmask
/// words: contiguous, disjoint, covering `0..n_words`, balanced to within
/// one word. Sharding on word boundaries means no two shards ever touch
/// the same `u64` of a [`BitCol`], so the per-shard column writes of a
/// pooled [`ColumnarStep`] are disjoint by construction.
#[inline]
pub fn word_shard_range(n_words: usize, nshards: usize, s: usize) -> (usize, usize) {
    crate::batch::shard_range(n_words, nshards, s)
}

/// A raw pointer that may cross thread boundaries: the public twin of the
/// engine's internal shard pointer, for [`ColumnarStep`] implementations
/// that fan their column passes out over a [`ShardPool`]. Every
/// dereference site must document why its accesses are disjoint across
/// shards (word-aligned ranges from [`word_shard_range`] make that
/// argument structural).
pub struct ColPtr<T>(*mut T);

impl<T> ColPtr<T> {
    /// Wraps a raw pointer for cross-shard use.
    #[inline]
    pub fn new(ptr: *mut T) -> Self {
        ColPtr(ptr)
    }

    /// The wrapped pointer. A method (not field access) so closures capture
    /// the `ColPtr` itself — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut T` field, which is not `Sync`.
    #[inline]
    pub fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for ColPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ColPtr<T> {}

impl<T> fmt::Debug for ColPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColPtr({:p})", self.0)
    }
}

// SAFETY: dereferencing is the caller's responsibility (each unsafe block
// at the use sites states its disjointness argument); the pointer value
// itself is freely copyable across threads.
unsafe impl<T> Send for ColPtr<T> {}
// SAFETY: shared references to the wrapper expose only the raw pointer
// value, never the pointee — same argument as `Send` above.
unsafe impl<T> Sync for ColPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitcol_set_get_roundtrip() {
        let mut col = BitCol::default();
        col.resize_words(3);
        col.words_mut().fill(0);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 170] {
            assert!(!col.get(i));
            col.set(i, true);
            assert!(col.get(i));
        }
        col.set(64, false);
        assert!(!col.get(64));
        assert!(col.get(65), "clearing one bit must not touch neighbors");
    }

    #[test]
    fn tail_mask_covers_exact_lane_counts() {
        assert_eq!(tail_mask(0), 0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(63), u64::MAX >> 1);
        assert_eq!(tail_mask(64), u64::MAX);
    }

    #[test]
    fn word_shard_ranges_partition_and_balance() {
        for n_words in [0usize, 1, 5, 64, 1000] {
            for nshards in [1usize, 2, 3, 7] {
                let mut next = 0;
                for s in 0..nshards {
                    let (lo, hi) = word_shard_range(n_words, nshards, s);
                    assert_eq!(lo, next, "gap at shard {s}");
                    assert!(hi - lo <= n_words / nshards + 1, "unbalanced shard {s}");
                    next = hi;
                }
                assert_eq!(next, n_words, "ranges must cover all words");
            }
        }
    }
}
