//! Struct-of-arrays (columnar) execution of the engine's step phase.
//!
//! The scalar step phase walks `Vec<P::State>` one agent at a time:
//! compose the partner's message, key a [`slot_rng`](crate::rng::slot_rng),
//! call [`Protocol::step`](crate::Protocol::step). That layout streams the whole agent vector
//! through the cache every round and re-derives per-agent control flow
//! that is identical across almost every agent. A protocol can opt in to
//! a columnar twin of its step function by returning a [`ColumnarStep`]
//! from [`Protocol::columnar`](crate::Protocol::columnar): agent state
//! lives transposed in contiguous columns (`Vec<u32>`/`Vec<u64>` words,
//! packed [`BitCol`] bitmasks) and the round's transition runs as
//! word-at-a-time kernels over 64-agent blocks, each lane drawing its coins
//! from its own slot stream ([`slot_rng`](crate::rng::slot_rng)).
//!
//! # Residency: who owns the state
//!
//! A [`ColumnarStep`] is a *second form* of the population, next to the
//! agent vector. The engine holds both in one crate-private `Population`,
//! the only code that decides which form is current and the only caller of
//! [`ColumnarStep::load`], [`step_matched`](ColumnarStep::step_matched),
//! [`apply`](ColumnarStep::apply) and [`store`](ColumnarStep::store).
//! `load` transposes `Vec<P::State>` into the columns; a step and `apply`
//! then advance the columns round after round **without touching the
//! vector**; `store` transposes back on demand. A columnar run loads once,
//! keeps the columns resident, and stores once at its end — the per-round
//! traffic is a handful of compact columns, not two streams over 24-byte
//! structs.
//!
//! A step leaves the vector stale. Its buffer is parked, and the first
//! read of the vector through a shared reference stores the columns into
//! it; the vector then stays current until the next step. Every reader
//! goes through that one read, so whatever needs the vector pays for it
//! when it reads it, and only then:
//!
//! * an observer's [`EngineView::agents`](crate::EngineView::agents);
//! * [`EngineView::stats`](crate::EngineView::stats) asks
//!   [`ColumnarStep::stats`] first, so a [`RecordStats`](crate::RecordStats)
//!   run over a stepper with a stats kernel never stores mid-run;
//! * an adversary that reads states
//!   ([`Adversary::reads_states`](crate::Adversary::reads_states)). One
//!   that decides from the round context alone, and the declared no-op,
//!   are handed an empty slice. The context's population size and
//!   majority round come from the same stats as `EngineView::stats`;
//! * [`Engine::agents`](crate::Engine::agents) and
//!   [`Engine::snapshot`](crate::Engine::snapshot), at any time — also
//!   after an observer's panic was caught mid-run, when the end-of-run
//!   store never happened.
//!
//! Adversarial alterations go to each form that is current, through one
//! in-place plan ([`fill_deleted`]): the vector when it is current, and
//! the columns through [`ColumnarStep::alter`] when they are. A stepper
//! whose `alter` declines (the default) leaves the alterations to the
//! vector, which is stored first if it was stale. Any other write of the
//! vector (that fallback, the scalar step) marks the columns stale, and
//! the next columnar step reloads them first. So a run whose adversary
//! reads no states and whose stepper implements `alter` and `stats` loads
//! once and stores once, as a clean run does.
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

use std::cell::{Cell, OnceCell};
use std::fmt;

use crate::adversary::Alteration;
use crate::agent::Observable;
use crate::batch::ShardPool;
use crate::engine::RoundReport;
use crate::matching::RoundMatching;
use crate::metrics::RoundStats;

/// A protocol's columnar state store and step-phase executor, as installed
/// into an engine.
///
/// One value lives inside each engine (carrying the column buffers across
/// rounds, so steady-state rounds allocate nothing). The engine drives it
/// through a load → (step → apply)* → store lifecycle; implementations
/// must uphold the module-level determinism contract at every `store`
/// point.
///
/// The round's partners reach a step as a [`RoundMatching`], through
/// [`step_matched`](Self::step_matched), and its partner table is built
/// only on demand: when the stepper asks for it, or when the stepper
/// implements only the table-taking [`step`](Self::step), which the
/// default `step_matched` then builds the table for.
///
/// `Debug` keeps `Engine`'s derive working; `Send` lets engines holding a
/// stepper migrate across [`BatchRunner`](crate::BatchRunner) workers.
pub trait ColumnarStep<S>: fmt::Debug + Send {
    /// Transposes `agents` into the columns, making them current. Called
    /// before a step whenever the vector was written since the columns
    /// were last current (first round, restores, alterations that
    /// [`alter`](Self::alter) declined).
    ///
    /// `pool` is the pool the round runs on — the engine always passes
    /// `Some`, and `None` means one shard. The transpose may fan out across
    /// [`dispatch_parts`](ShardPool::dispatch_parts), each shard getting
    /// the column windows of its [`word_shard_range`], but the result must
    /// not depend on the shard count.
    fn load(&mut self, agents: &[S], pool: Option<&ShardPool>);

    /// Runs one step phase over the resident columns (which must be
    /// current, i.e. `load` or a previous `step`/`apply` produced them).
    ///
    /// `partners` is the round's partner table as
    /// [`RoundMatching::table`] builds it: one entry per resident agent,
    /// `partners[i]` agent `i`'s partner slot (`< self.len()`, and
    /// `partners[partners[i]] == i`) or
    /// [`UNMATCHED`](crate::matching::UNMATCHED). `step` is a safe method,
    /// so implementations must not index without checks on the strength of
    /// that bound: a bad table may panic or give unspecified results, but
    /// never read out of bounds. `round_key` is the
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

    /// Runs one step phase as [`step`](Self::step) does, with the round's
    /// partners taken from `matching` on demand. This is what the engine
    /// calls: a stepper that reads only some agents' partners asks
    /// [`RoundMatching::partner`] for those, and the partner table is then
    /// never built. `matching` ranges over the resident population.
    ///
    /// The default builds the table ([`RoundMatching::table`], on `pool`)
    /// and calls [`step`](Self::step) with it, so a stepper that implements
    /// only `step` behaves exactly as before.
    fn step_matched(
        &mut self,
        matching: &mut RoundMatching<'_>,
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        match pool {
            Some(pool) => self.step(matching.table(pool), round_key, Some(pool), splits, deaths),
            None => ShardPool::with(1, |pool| {
                self.step_matched(matching, round_key, Some(pool), splits, deaths);
            }),
        }
    }

    /// Applies the round's splits and deaths to the columns, mirroring the
    /// engine's vector semantics exactly: daughters are appended in
    /// `splits` order (each a copy of its post-step parent), then `deaths`
    /// (sorted ascending, deduplicated by the engine) are swap-removed in
    /// descending order.
    fn apply(&mut self, splits: &[usize], deaths: &[usize]);

    /// Applies one round's adversarial alterations to the current columns
    /// in place, in the order [`fill_deleted`] plans them, and returns
    /// `true`: the columns then hold what loading the altered vector would
    /// give, and stay current. Every slot is below [`len`](Self::len);
    /// `modified` lists (slot, state) pairs in the adversary's order, a
    /// later pair overwriting an earlier one; `deleted` is ascending and
    /// deduplicated. No column needs to grow past the final length.
    ///
    /// The default returns `false` and leaves the columns untouched: the
    /// engine then alters the vector and reloads the columns before the
    /// next step.
    fn alter(&mut self, inserted: &[S], modified: &[(usize, S)], deleted: &[usize]) -> bool {
        let _ = (inserted, modified, deleted);
        false
    }

    /// Transposes the columns back into `agents` (clearing it first),
    /// reproducing byte for byte the vector the scalar path would hold
    /// after the same rounds.
    fn store(&self, agents: &mut Vec<S>);

    /// The observation part of [`RoundStats`] over the resident population,
    /// computed in the columns: equal to [`RoundStats::observe`] of the
    /// vector [`store`](Self::store) would produce, except that `round` is
    /// left 0 for the caller to set. The default `None` means the stepper
    /// has no such kernel, and the engine observes the stored vector.
    fn stats(&self) -> Option<RoundStats> {
        None
    }

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

/// Where [`fill_deleted`] refills a deleted slot from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refill {
    /// The current content of this population slot, which lies at or past
    /// the final length and is read no more.
    Slot(usize),
    /// This index of the round's insert list.
    Insert(usize),
}

/// The in-place alteration plan, shared by both forms of the population.
///
/// Of a population of `len` slots, with `inserted` agents to insert and
/// the `deleted` slots (ascending, deduplicated, each `< len`) to remove,
/// the engine's semantics are: append the inserts, then swap-remove the
/// deleted slots in descending order. This plan reaches the same result
/// without growing past the final length. Over the virtual tail — the
/// `len` slots followed by the inserts — it calls `fill(slot, from)` for
/// each deleted slot that the swap-remove would refill, in that order, and
/// returns the final length `end`. The caller then keeps slots `0..end`:
/// it truncates to `end` when `end ≤ len`, and otherwise appends inserts
/// `0..end − len`. Modifies are applied before the plan.
pub fn fill_deleted(
    len: usize,
    inserted: usize,
    deleted: &[usize],
    mut fill: impl FnMut(usize, Refill),
) -> usize {
    let mut end = len + inserted;
    for &slot in deleted.iter().rev() {
        end -= 1;
        if slot != end {
            fill(
                slot,
                if end < len {
                    Refill::Slot(end)
                } else {
                    Refill::Insert(end - len)
                },
            );
        }
    }
    end
}

/// Runs the alteration plan ([`fill_deleted`]) on the agent vector.
fn alter_vec<S: Clone>(
    agents: &mut Vec<S>,
    inserted: &[S],
    modified: &[(usize, S)],
    deleted: &[usize],
) {
    for (slot, state) in modified {
        agents[*slot] = state.clone();
    }
    let len = agents.len();
    let end = fill_deleted(len, inserted.len(), deleted, |slot, from| match from {
        Refill::Slot(j) => agents.swap(slot, j),
        Refill::Insert(k) => agents[slot] = inserted[k].clone(),
    });
    if end <= len {
        agents.truncate(end);
    } else {
        agents.extend_from_slice(&inserted[..end - len]);
    }
}

/// The population in its two forms — the agent vector and, when the
/// protocol has them, the resident columns — and the one owner of which
/// form is current (module docs, "Residency").
///
/// After a columnar step the vector's buffer waits in `parked`, and
/// [`agents`](Self::agents) stores the columns into it through `&self`, so
/// readers holding a shared borrow get a current vector. `columns_current`
/// says whether the next columnar step can skip the load.
///
/// Invariant: an empty `vector` implies `columns` is `Some` and current.
pub(crate) struct Population<S> {
    vector: OnceCell<Vec<S>>,
    parked: Cell<Vec<S>>,
    columns: Option<Box<dyn ColumnarStep<S>>>,
    columns_current: bool,
}

impl<S: Clone> Population<S> {
    /// `agents` as the current form, with `columns` (if any) to be loaded
    /// by the first columnar step.
    pub(crate) fn new(agents: Vec<S>, columns: Option<Box<dyn ColumnarStep<S>>>) -> Self {
        Population {
            vector: OnceCell::from(agents),
            parked: Cell::default(),
            columns,
            columns_current: false,
        }
    }

    /// The resident columns, which are current whenever the vector is not.
    fn resident(&self) -> &dyn ColumnarStep<S> {
        self.columns
            .as_deref()
            .expect("a stale vector implies resident columns")
    }

    /// Number of agents, read from whichever form is current.
    pub(crate) fn len(&self) -> usize {
        self.vector
            .get()
            .map_or_else(|| self.resident().len(), Vec::len)
    }

    /// The agent vector, stored from the columns on the first read after a
    /// step; later reads return the same slice until the next step.
    pub(crate) fn agents(&self) -> &[S] {
        self.vector.get_or_init(|| {
            let mut agents = self.parked.take();
            self.resident().store(&mut agents);
            agents
        })
    }

    /// The agent vector for writing. The columns stop being current, so the
    /// next columnar step reloads them.
    pub(crate) fn agents_mut(&mut self) -> &mut Vec<S> {
        self.agents();
        self.columns_current = false;
        self.vector
            .get_mut()
            .expect("agents() made the vector current")
    }

    /// Whether the population has a columnar form.
    pub(crate) fn is_columnar(&self) -> bool {
        self.columns.is_some()
    }

    /// Replaces the columnar form (`None` removes it), keeping the
    /// population: the vector is made current first.
    pub(crate) fn set_columns(&mut self, columns: Option<Box<dyn ColumnarStep<S>>>) {
        self.agents();
        self.columns = columns;
        self.columns_current = false;
    }

    /// Applies the adversary's alterations, the first `budget` of them in
    /// order, to each form that is current (module docs, "Residency"), and
    /// counts them into `report`. Delete and modify slots at or above the
    /// population are ignored; repeated deletes collapse but still consume
    /// budget. The result equals pushing the inserts and then
    /// swap-removing the sorted, deduplicated deletes in descending order.
    /// `deleted` is scratch for the delete list.
    pub(crate) fn apply_alterations(
        &mut self,
        alterations: Vec<Alteration<S>>,
        budget: usize,
        deleted: &mut Vec<usize>,
        report: &mut RoundReport,
    ) {
        let len = self.len();
        let (mut inserted, mut modified) = (Vec::new(), Vec::new());
        deleted.clear();
        for alt in alterations.into_iter().take(budget) {
            match alt {
                // Duplicates are collapsed by the sort+dedup below; a
                // per-push `contains` probe made bulk deletes O(budget²).
                Alteration::Delete(i) if i < len => deleted.push(i),
                Alteration::Insert(state) => inserted.push(state),
                Alteration::Modify(i, state) if i < len => modified.push((i, state)),
                Alteration::Delete(_) | Alteration::Modify(..) => {}
            }
        }
        deleted.sort_unstable();
        deleted.dedup();
        report.inserted = inserted.len();
        report.deleted = deleted.len();
        report.modified = modified.len();
        if inserted.is_empty() && modified.is_empty() && deleted.is_empty() {
            return;
        }
        let in_columns = self.columns_current
            && self
                .columns
                .as_mut()
                .is_some_and(|columns| columns.alter(&inserted, &modified, deleted));
        if !in_columns {
            self.agents();
            self.columns_current = false;
        }
        if let Some(agents) = self.vector.get_mut() {
            alter_vec(agents, &inserted, &modified, deleted);
        }
    }

    /// Runs the step phase in the columns ([`ColumnarStep::step_matched`]),
    /// loading them first if the vector was written since they were last
    /// current; the vector is stale afterwards. Returns `false` and does
    /// nothing when the population has no columns.
    pub(crate) fn step_columns(
        &mut self,
        matching: &mut RoundMatching<'_>,
        round_key: u64,
        pool: &ShardPool,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) -> bool {
        let Some(columns) = self.columns.as_mut() else {
            return false;
        };
        if !self.columns_current {
            let agents = self
                .vector
                .get()
                .expect("stale columns imply a current vector");
            columns.load(agents, Some(pool));
            self.columns_current = true;
        }
        columns.step_matched(matching, round_key, Some(pool), splits, deaths);
        if let Some(agents) = self.vector.take() {
            self.parked.set(agents);
        }
        true
    }

    /// Applies the round's splits and deaths to the form the step left
    /// current: daughters appended in `splits` order, each a copy of its
    /// post-step parent, then `deaths` (sorted ascending, deduplicated)
    /// swap-removed in descending order.
    pub(crate) fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        if self.vector.get().is_none() {
            let columns = self
                .columns
                .as_mut()
                .expect("a stale vector implies columns");
            columns.apply(splits, deaths);
            return;
        }
        let agents = self.agents_mut();
        for &i in splits {
            let daughter = agents[i].clone();
            agents.push(daughter);
        }
        for &i in deaths.iter().rev() {
            agents.swap_remove(i);
        }
    }

    /// Approximate resident bytes: the vector's capacity, current or parked,
    /// plus the columns' [`mem_bytes`](ColumnarStep::mem_bytes).
    pub(crate) fn mem_bytes(&self) -> usize {
        let parked = self.parked.take();
        let capacity = self.vector.get().map_or(0, Vec::capacity) + parked.capacity();
        self.parked.set(parked);
        capacity * std::mem::size_of::<S>() + self.columns.as_ref().map_or(0, |c| c.mem_bytes())
    }
}

impl<S: Clone + Observable> Population<S> {
    /// The observation part of [`RoundStats`] (`round` left 0): from the
    /// columns' [`stats`](ColumnarStep::stats) kernel when they are current
    /// and have one, otherwise [`RoundStats::observe`] of the vector,
    /// stored first if it was stale. Both give the same stats.
    pub(crate) fn stats(&self) -> RoundStats {
        let columns = self.columns.as_deref().filter(|_| self.columns_current);
        match columns.and_then(|columns| columns.stats()) {
            Some(stats) => {
                debug_assert_eq!(stats.population, self.len());
                stats
            }
            None => RoundStats::observe(0, self.agents()),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for Population<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Population")
            .field("vector", &self.vector.get())
            .field("columns", &self.columns)
            .field("columns_current", &self.columns_current)
            .finish_non_exhaustive()
    }
}

/// A packed bit column: bit `i % 64` of word `i / 64` holds agent `i`'s
/// flag. The unit of kernel work is one 64-agent word. Bits at and above
/// the population (the last word's tail) stay zero: loaders write whole
/// words, and whatever shrinks the population clears the lanes it vacates,
/// so popcounts over the words count live lanes only.
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
/// the same `u64` of a [`BitCol`]: a pooled [`ColumnarStep`] cuts its
/// columns at these bounds with `split_at_mut` and hands each shard its
/// own `&mut` windows through [`ShardPool::dispatch_parts`].
#[inline]
pub fn word_shard_range(n_words: usize, nshards: usize, s: usize) -> (usize, usize) {
    crate::batch::shard_range(n_words, nshards, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The engine's alteration semantics as a loop: modifies in order,
    /// inserts pushed, then the sorted, deduplicated in-range deletes
    /// swap-removed in descending order.
    fn reference(agents: &[u32], alterations: &[Alteration<u32>], budget: usize) -> Vec<u32> {
        let mut agents = agents.to_vec();
        let len = agents.len();
        let mut deleted = Vec::new();
        for alt in alterations.iter().take(budget) {
            match *alt {
                Alteration::Delete(i) if i < len => deleted.push(i),
                Alteration::Insert(s) => agents.push(s),
                Alteration::Modify(i, s) if i < len => agents[i] = s,
                _ => {}
            }
        }
        deleted.sort_unstable();
        deleted.dedup();
        for &i in deleted.iter().rev() {
            agents.swap_remove(i);
        }
        agents
    }

    /// A columnar form that is a plain vector. Its step does nothing, and
    /// its `alter` runs the plan when `accepts`, else declines.
    #[derive(Debug)]
    struct VecColumns {
        lanes: Vec<u32>,
        accepts: bool,
    }

    impl ColumnarStep<u32> for VecColumns {
        fn load(&mut self, agents: &[u32], _pool: Option<&ShardPool>) {
            self.lanes = agents.to_vec();
        }

        fn step(
            &mut self,
            _partners: &[u32],
            _round_key: u64,
            _pool: Option<&ShardPool>,
            _splits: &mut Vec<usize>,
            _deaths: &mut Vec<usize>,
        ) {
        }

        fn apply(&mut self, _splits: &[usize], _deaths: &[usize]) {}

        fn alter(
            &mut self,
            inserted: &[u32],
            modified: &[(usize, u32)],
            deleted: &[usize],
        ) -> bool {
            if self.accepts {
                alter_vec(&mut self.lanes, inserted, modified, deleted);
            }
            self.accepts
        }

        fn store(&self, agents: &mut Vec<u32>) {
            agents.clone_from(&self.lanes);
        }

        fn len(&self) -> usize {
            self.lanes.len()
        }
    }

    /// Random alterations over slots `0..40`, so some are out of range for
    /// a shorter population and deletes repeat.
    fn arb_alterations() -> impl Strategy<Value = Vec<Alteration<u32>>> {
        prop::collection::vec(
            (0u8..3, 0usize..40, any::<u32>()).prop_map(|(kind, i, s)| match kind {
                0 => Alteration::Delete(i),
                1 => Alteration::Insert(s),
                _ => Alteration::Modify(i, s),
            }),
            0..48,
        )
    }

    /// How the population holds its forms before the alterations land.
    #[derive(Debug, Clone, Copy)]
    enum Forms {
        VectorOnly,
        ColumnsOnly,
        Both,
    }

    proptest! {
        /// The in-place plan reproduces the push + descending swap-remove
        /// loop exactly, in every form the population can be in, with
        /// columns that accept the alterations and with columns that
        /// decline them.
        #[test]
        fn alteration_plan_matches_push_then_swap_remove(
            len in 0usize..32,
            alterations in arb_alterations(),
            budget in 0usize..56,
            accepts in any::<bool>(),
        ) {
            let agents: Vec<u32> = (0..len as u32).map(|i| i * 10).collect();
            let want = reference(&agents, &alterations, budget);
            for forms in [Forms::VectorOnly, Forms::ColumnsOnly, Forms::Both] {
                let columns: Option<Box<dyn ColumnarStep<u32>>> = match forms {
                    Forms::VectorOnly => None,
                    _ => Some(Box::new(VecColumns { lanes: Vec::new(), accepts })),
                };
                let mut pop = Population::new(agents.clone(), columns);
                if !matches!(forms, Forms::VectorOnly) {
                    let (mut partners, mut shuffle) = (Vec::new(), Vec::new());
                    let mut matching = RoundMatching::new(
                        &mut partners,
                        &mut shuffle,
                        len,
                        crate::MatchingModel::Full,
                        0,
                    );
                    ShardPool::with(1, |pool| {
                        pop.step_columns(&mut matching, 0, pool, &mut Vec::new(), &mut Vec::new())
                    });
                }
                if matches!(forms, Forms::Both) {
                    pop.agents();
                }
                let mut report = RoundReport::default();
                pop.apply_alterations(alterations.clone(), budget, &mut Vec::new(), &mut report);
                prop_assert_eq!(pop.len(), want.len(), "{:?}", forms);
                prop_assert_eq!(
                    pop.len() + report.deleted,
                    len + report.inserted,
                    "{:?}: counts", forms
                );
                let touched = report.inserted + report.deleted + report.modified > 0;
                prop_assert_eq!(
                    pop.columns_current,
                    !matches!(forms, Forms::VectorOnly) && (accepts || !touched),
                    "{:?}: a declined alteration must leave the columns stale", forms
                );
                if let Some(columns) = pop.columns.as_deref().filter(|_| pop.columns_current) {
                    let mut stored = Vec::new();
                    columns.store(&mut stored);
                    prop_assert_eq!(&stored, &want, "{:?}: columns", forms);
                }
                prop_assert_eq!(pop.agents(), &want[..], "{:?}: vector", forms);
            }
        }
    }

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
