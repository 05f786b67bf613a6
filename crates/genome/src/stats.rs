//! Mono- and di-nucleotide statistics.
//!
//! Genomes have pronounced 2-base statistics (CpG depletion in particular,
//! see Jabbari & Bernardi 2004, cited as [65] in the paper); the shuffled
//! null model used in the paper's noise analysis preserves them, and the
//! synthetic ancestor generator reproduces them.

use crate::alphabet::Base;
use crate::sequence::Sequence;

/// Counts of each base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseCounts {
    counts: [u64; 5],
}

impl BaseCounts {
    /// Counts bases in `seq`.
    pub fn from_sequence(seq: &Sequence) -> BaseCounts {
        let mut counts = [0u64; 5];
        for b in seq.iter() {
            counts[b.code() as usize] += 1;
        }
        BaseCounts { counts }
    }

    /// Count for one base.
    pub fn count(&self, base: Base) -> u64 {
        self.counts[base.code() as usize]
    }

    /// Total number of bases counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Frequency of `base` among unambiguous bases (0 if none).
    pub fn frequency(&self, base: Base) -> f64 {
        let unambiguous: u64 = Base::DNA.iter().map(|&b| self.count(b)).sum();
        if unambiguous == 0 {
            0.0
        } else {
            self.count(base) as f64 / unambiguous as f64
        }
    }
}

/// A 4×4 matrix of dinucleotide counts over unambiguous adjacent pairs.
///
/// Pairs containing `N` are skipped (both as first and second element).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DinucleotideCounts {
    counts: [[u64; 4]; 4],
}

impl DinucleotideCounts {
    /// Counts adjacent unambiguous pairs in `seq`.
    pub fn from_sequence(seq: &Sequence) -> DinucleotideCounts {
        let mut counts = [[0u64; 4]; 4];
        for (a, b) in seq.iter().zip(seq.iter().skip(1)) {
            if a != Base::N && b != Base::N {
                counts[a.code() as usize][b.code() as usize] += 1;
            }
        }
        DinucleotideCounts { counts }
    }

    /// Count of the pair `first`,`second`.
    ///
    /// # Panics
    ///
    /// Panics if either base is `N`.
    pub fn count(&self, first: Base, second: Base) -> u64 {
        self.counts[first.code2() as usize][second.code2() as usize]
    }

    /// Total number of counted pairs.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The conditional transition probabilities `P(second | first)` as a
    /// 4×4 row-stochastic matrix; rows with no observations become uniform.
    pub fn transition_probabilities(&self) -> [[f64; 4]; 4] {
        let mut probs = [[0.25f64; 4]; 4];
        for (i, row) in self.counts.iter().enumerate() {
            let row_total: u64 = row.iter().sum();
            if row_total > 0 {
                for (j, &c) in row.iter().enumerate() {
                    probs[i][j] = c as f64 / row_total as f64;
                }
            }
        }
        probs
    }

    /// Observed/expected ratio for a pair under independence, the classic
    /// measure of CpG depletion. Returns `None` when the expectation is 0.
    pub fn obs_exp_ratio(&self, first: Base, second: Base) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let first_total: u64 = (0..4).map(|j| self.counts[first.code2() as usize][j]).sum();
        let second_total: u64 = (0..4).map(|i| self.counts[i][second.code2() as usize]).sum();
        let expected = (first_total as f64 / total as f64) * (second_total as f64);
        if expected == 0.0 {
            None
        } else {
            Some(self.count(first, second) as f64 / expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_counts() {
        let s: Sequence = "AACGTN".parse().unwrap();
        let c = BaseCounts::from_sequence(&s);
        assert_eq!(c.count(Base::A), 2);
        assert_eq!(c.count(Base::N), 1);
        assert_eq!(c.total(), 6);
        assert!((c.frequency(Base::A) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn dinucleotide_counts_skip_n() {
        let s: Sequence = "ACNGT".parse().unwrap();
        let d = DinucleotideCounts::from_sequence(&s);
        assert_eq!(d.count(Base::A, Base::C), 1);
        assert_eq!(d.count(Base::G, Base::T), 1);
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn transition_probabilities_are_stochastic() {
        let s: Sequence = "ACGTACGTAAGGTTCC".parse().unwrap();
        let d = DinucleotideCounts::from_sequence(&s);
        for row in d.transition_probabilities() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row sums to {sum}");
        }
    }

    #[test]
    fn empty_rows_become_uniform() {
        let s: Sequence = "AAAA".parse().unwrap();
        let d = DinucleotideCounts::from_sequence(&s);
        let p = d.transition_probabilities();
        // Row for C saw nothing.
        assert_eq!(p[Base::C.code2() as usize], [0.25; 4]);
        // Row for A is all A→A.
        assert!((p[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn obs_exp_detects_depletion() {
        // Sequence with no CG pairs at all.
        let s: Sequence = "CACACACACA".parse().unwrap();
        let d = DinucleotideCounts::from_sequence(&s);
        let ratio = d.obs_exp_ratio(Base::C, Base::G);
        assert_eq!(ratio, None); // no G at all → expectation 0
        let ca = d.obs_exp_ratio(Base::C, Base::A).unwrap();
        assert!(ca > 1.0);
    }
}
