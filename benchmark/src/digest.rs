//! Trajectory digests: FNV-1a over every [`RoundReport`] field.
//!
//! A trajectory's digest folds every field of every round of every job,
//! jobs in order, into one FNV-1a 64 stream; each round also gets a hash of
//! its own so a run can count exactly which rounds left the reference.

use popstab_sim::RoundReport;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Feeds the little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Feeds every field of `r`, in declaration order.
    pub fn report(&mut self, r: &RoundReport) {
        for v in [
            r.round,
            r.population_before as u64,
            r.population_after as u64,
            r.inserted as u64,
            r.deleted as u64,
            r.modified as u64,
            r.matched as u64,
            r.splits as u64,
            r.deaths as u64,
        ] {
            self.u64(v);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The hash of one round's report.
pub fn round_hash(r: &RoundReport) -> u64 {
    let mut h = Fnv::default();
    h.report(r);
    h.finish()
}

/// The digest of a whole trajectory: `jobs[j]` holds job `j`'s reports.
pub fn digest<'a>(jobs: impl IntoIterator<Item = &'a [RoundReport]>) -> u64 {
    let mut h = Fnv::default();
    for job in jobs {
        for r in job {
            h.report(r);
        }
    }
    h.finish()
}

/// A workload's reference trajectory at one seed.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Per job, per round: [`round_hash`] of the reference report.
    pub rounds: Vec<Vec<u64>>,
    /// [`digest`] of the reference trajectory.
    pub digest: u64,
}

impl Reference {
    /// Builds the reference from per-job report lists.
    pub fn from_reports(jobs: &[Vec<RoundReport>]) -> Reference {
        Reference {
            rounds: jobs
                .iter()
                .map(|job| job.iter().map(round_hash).collect())
                .collect(),
            digest: digest(jobs.iter().map(Vec::as_slice)),
        }
    }

    /// Rounds of job `job`'s `reports` that differ from the reference, out
    /// of `planned` attempted. Rounds a halted job never executed count as
    /// failed.
    pub fn failed_rounds(&self, job: usize, reports: &[RoundReport], planned: u64) -> u64 {
        let reference = &self.rounds[job];
        (0..planned as usize)
            .filter(|&i| match (reports.get(i), reference.get(i)) {
                (Some(r), Some(&h)) => round_hash(r) != h,
                _ => true,
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vector() {
        // FNV-1a 64 of the single byte 'a'.
        let mut h = Fnv::default();
        h.0 = (h.0 ^ u64::from(b'a')).wrapping_mul(PRIME);
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_field_reaches_the_hash() {
        let base = RoundReport::default();
        let fields: [fn(&mut RoundReport); 9] = [
            |r| r.round = 1,
            |r| r.population_before = 1,
            |r| r.population_after = 1,
            |r| r.inserted = 1,
            |r| r.deleted = 1,
            |r| r.modified = 1,
            |r| r.matched = 1,
            |r| r.splits = 1,
            |r| r.deaths = 1,
        ];
        for set in fields {
            let mut r = base;
            set(&mut r);
            assert_ne!(round_hash(&r), round_hash(&base));
        }
    }

    #[test]
    fn missing_and_differing_rounds_fail() {
        let reports: Vec<RoundReport> = (0..4)
            .map(|round| RoundReport {
                round,
                ..RoundReport::default()
            })
            .collect();
        let reference = Reference::from_reports(std::slice::from_ref(&reports));
        assert_eq!(reference.failed_rounds(0, &reports, 4), 0);
        assert_eq!(reference.failed_rounds(0, &reports[..3], 4), 1);
        let mut wrong = reports.clone();
        wrong[1].matched = 2;
        assert_eq!(reference.failed_rounds(0, &wrong, 4), 1);
    }
}
