//! Per-round metrics derived from generic agent observations.

use std::collections::BTreeMap;

use crate::agent::{Observable, Observation};

/// Aggregate statistics of one recorded round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Global round number (0-based).
    pub round: u64,
    /// Population after the round's splits/deaths were applied.
    pub population: usize,
    /// Number of active (colored) agents.
    pub active: usize,
    /// Active agents with color 0.
    pub color0: usize,
    /// Active agents with color 1.
    pub color1: usize,
    /// Agents flagged as leaders this epoch (instrumentation).
    pub leaders: usize,
    /// Agents currently recruiting.
    pub recruiting: usize,
    /// Agents reporting they are in their evaluation round.
    pub in_eval: usize,
    /// The most common epoch-round value among agents, if any report one.
    pub majority_round: Option<u32>,
    /// Agents whose epoch-round differs from the majority value.
    pub wrong_round: usize,
    /// Splits executed this round.
    pub splits: usize,
    /// Protocol-initiated deaths this round (excludes adversarial deletion).
    pub deaths: usize,
    /// Agents inserted by the adversary this round.
    pub adv_inserted: usize,
    /// Agents deleted by the adversary this round.
    pub adv_deleted: usize,
    /// Agents whose memory the adversary overwrote this round.
    pub adv_modified: usize,
}

impl RoundStats {
    /// Builds the observation-derived part of the stats from a population.
    pub fn observe<S: Observable>(round: u64, agents: &[S]) -> RoundStats {
        let mut stats = RoundStats {
            round,
            population: agents.len(),
            ..RoundStats::default()
        };
        let mut rounds = RoundHistogram::new();
        for agent in agents {
            let obs: Observation = agent.observe();
            if obs.active {
                stats.active += 1;
                match obs.color {
                    Some(false) => stats.color0 += 1,
                    Some(true) => stats.color1 += 1,
                    None => {}
                }
            }
            if obs.recruiting {
                stats.recruiting += 1;
            }
            if obs.in_eval_phase {
                stats.in_eval += 1;
            }
            if obs.is_leader {
                stats.leaders += 1;
            }
            if let Some(r) = obs.round_in_epoch {
                rounds.add(r);
            }
        }
        stats.tally_rounds(&rounds);
        stats
    }

    /// Sets [`majority_round`](Self::majority_round) and
    /// [`wrong_round`](Self::wrong_round) from the epoch-round histogram of
    /// the agents that report a round.
    pub fn tally_rounds(&mut self, rounds: &RoundHistogram) {
        if let Some((majority, count)) = rounds.majority() {
            self.majority_round = Some(majority);
            self.wrong_round = rounds.total() - count;
        }
    }

    /// Fraction of the population that is active (0 if empty).
    pub fn active_fraction(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.active as f64 / self.population as f64
        }
    }
}

/// Rounds below this are counted in [`RoundHistogram`]'s dense array.
/// Honest epoch rounds are far smaller; only forged values reach the map.
pub const DENSE_ROUND_CAP: u32 = 1 << 16;

/// A histogram of epoch-round values: dense counts for rounds below
/// [`DENSE_ROUND_CAP`] (grown to the largest one seen), an ordered map for
/// larger, adversarially forged values.
#[derive(Debug, Clone, Default)]
pub struct RoundHistogram {
    dense: Vec<usize>,
    sparse: BTreeMap<u32, usize>,
}

impl RoundHistogram {
    /// An empty histogram.
    pub fn new() -> RoundHistogram {
        RoundHistogram::default()
    }

    /// Counts one agent at `round`.
    #[inline]
    pub fn add(&mut self, round: u32) {
        self.add_n(round, 1);
    }

    /// Counts `n` agents at `round`.
    #[inline]
    pub fn add_n(&mut self, round: u32, n: usize) {
        if round < DENSE_ROUND_CAP {
            let r = round as usize;
            if r >= self.dense.len() {
                self.dense.resize(r + 1, 0);
            }
            self.dense[r] += n;
        } else {
            *self.sparse.entry(round).or_insert(0) += n;
        }
    }

    /// Counts one agent per round in `rounds`. Runs of equal rounds are
    /// tallied in a register and added once per run: agents on one clock
    /// make long runs, and adding them one at a time would chain every
    /// increment on the previous one through the same counter.
    pub fn add_all(&mut self, rounds: impl IntoIterator<Item = u32>) {
        let mut rounds = rounds.into_iter();
        let Some(mut current) = rounds.next() else {
            return;
        };
        let mut run = 1;
        for r in rounds {
            if r == current {
                run += 1;
            } else {
                self.add_n(current, run);
                (current, run) = (r, 1);
            }
        }
        self.add_n(current, run);
    }

    /// Agents counted at `round`.
    pub fn count(&self, round: u32) -> usize {
        if round < DENSE_ROUND_CAP {
            self.dense.get(round as usize).copied().unwrap_or(0)
        } else {
            self.sparse.get(&round).copied().unwrap_or(0)
        }
    }

    /// Agents counted in total.
    pub fn total(&self) -> usize {
        self.dense.iter().sum::<usize>() + self.sparse.values().sum::<usize>()
    }

    /// The most common round and its count, `None` when empty. Ties go to
    /// the largest round, as a `BTreeMap` scanned by `max_by_key` resolves
    /// them: the result seeds forged agents and recorded stats, so the
    /// tie-break must not depend on anything but the counts.
    pub fn majority(&self) -> Option<(u32, usize)> {
        let dense = (0u32..).zip(self.dense.iter().copied());
        let sparse = self.sparse.iter().map(|(&r, &c)| (r, c));
        dense
            .chain(sparse)
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(_, c)| c)
    }
}

/// Collects [`RoundStats`] over a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    stats: Vec<RoundStats>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Appends one round's stats.
    pub fn record(&mut self, stats: RoundStats) {
        self.stats.push(stats);
    }

    /// All recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.stats
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&RoundStats> {
        self.stats.last()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Discards all records (e.g. after a warm-up phase).
    pub fn clear(&mut self) {
        self.stats.clear();
    }

    /// Minimum and maximum population over all records, if any.
    pub fn population_range(&self) -> Option<(usize, usize)> {
        let mut it = self.stats.iter().map(|s| s.population);
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for p in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some((lo, hi))
    }

    /// Maximum `wrong_round` over all records (Lemma 3 diagnostics).
    pub fn max_wrong_round(&self) -> usize {
        self.stats.iter().map(|s| s.wrong_round).max().unwrap_or(0)
    }

    /// Populations sampled at the end of each epoch of length `epoch_len`
    /// (records whose round number is `≡ epoch_len − 1 (mod epoch_len)`).
    pub fn epoch_end_populations(&self, epoch_len: u64) -> Vec<usize> {
        assert!(epoch_len > 0, "epoch_len must be positive");
        self.stats
            .iter()
            .filter(|s| s.round % epoch_len == epoch_len - 1)
            .map(|s| s.population)
            .collect()
    }

    /// Largest absolute population change between consecutive epoch ends.
    pub fn max_epoch_deviation(&self, epoch_len: u64) -> Option<u64> {
        let pops = self.epoch_end_populations(epoch_len);
        pops.windows(2).map(|w| w[1].abs_diff(w[0]) as u64).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Observation;

    struct Fake(Observation);
    impl Observable for Fake {
        fn observe(&self) -> Observation {
            self.0
        }
    }

    fn agent(active: bool, color: Option<bool>, round: Option<u32>) -> Fake {
        Fake(Observation {
            active,
            color,
            round_in_epoch: round,
            ..Observation::default()
        })
    }

    #[test]
    fn observe_counts_colors_and_rounds() {
        let pop = vec![
            agent(true, Some(false), Some(3)),
            agent(true, Some(true), Some(3)),
            agent(true, Some(true), Some(3)),
            agent(false, None, Some(5)),
        ];
        let s = RoundStats::observe(7, &pop);
        assert_eq!(s.round, 7);
        assert_eq!(s.population, 4);
        assert_eq!(s.active, 3);
        assert_eq!(s.color0, 1);
        assert_eq!(s.color1, 2);
        assert_eq!(s.majority_round, Some(3));
        assert_eq!(s.wrong_round, 1);
        assert!((s.active_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn observe_empty_population() {
        let pop: Vec<Fake> = vec![];
        let s = RoundStats::observe(0, &pop);
        assert_eq!(s.population, 0);
        assert_eq!(s.majority_round, None);
        assert_eq!(s.active_fraction(), 0.0);
    }

    #[test]
    fn histogram_majority_breaks_ties_toward_the_largest_round() {
        let mut h = RoundHistogram::new();
        assert_eq!(h.majority(), None);
        for r in [3, 9, 3, 9, u32::MAX, u32::MAX, DENSE_ROUND_CAP] {
            h.add(r);
        }
        assert_eq!(h.majority(), Some((u32::MAX, 2)));
        assert_eq!(h.total(), 7);
        h.add_n(9, 5);
        assert_eq!(h.majority(), Some((9, 7)));
        assert_eq!(
            (h.count(3), h.count(4), h.count(DENSE_ROUND_CAP)),
            (2, 0, 1)
        );
        h.add_all([4, 4, 3, 3, 3, 4]);
        assert_eq!((h.count(3), h.count(4), h.total()), (5, 3, 18));
    }

    #[test]
    fn recorder_range_and_maxima() {
        let mut rec = MetricsRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.population_range(), None);
        for (i, p) in [10usize, 14, 8, 12].iter().enumerate() {
            rec.record(RoundStats {
                round: i as u64,
                population: *p,
                active: *p / 2,
                wrong_round: i,
                ..RoundStats::default()
            });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.population_range(), Some((8, 14)));
        assert_eq!(rec.max_wrong_round(), 3);
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn epoch_sampling() {
        let mut rec = MetricsRecorder::new();
        for r in 0..20 {
            rec.record(RoundStats {
                round: r,
                population: (r as usize + 1) * 10,
                ..RoundStats::default()
            });
        }
        // epoch_len 5 -> rounds 4, 9, 14, 19
        assert_eq!(rec.epoch_end_populations(5), vec![50, 100, 150, 200]);
        assert_eq!(rec.max_epoch_deviation(5), Some(50));
    }

    #[test]
    #[should_panic(expected = "epoch_len must be positive")]
    fn zero_epoch_len_panics() {
        MetricsRecorder::new().epoch_end_populations(0);
    }
}
