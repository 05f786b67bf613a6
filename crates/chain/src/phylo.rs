//! Phylogenetic distance estimation from alignments — the PHAST role.
//!
//! The paper computes the phylogenetic distances of Fig. 8 with the PHAST
//! tool from whole-genome alignments. This module provides the same
//! capability: substitution counting over aligned columns with a
//! Jukes-Cantor (and Kimura two-parameter) correction for multiple hits.
//!
//! Because the synthetic genomes are generated *at* a known distance,
//! running the aligner and then this estimator closes the loop: the
//! estimate must recover the generating parameter (see the `fig8`
//! regeneration binary).

use crate::chainer::Chain;
use align::{AlignOp, Alignment};
use genome::Sequence;

/// Aligned-column substitution counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstitutionCounts {
    /// Aligned pairs with identical bases.
    pub matches: u64,
    /// Transition substitutions (A↔G, C↔T).
    pub transitions: u64,
    /// Transversion substitutions.
    pub transversions: u64,
}

impl SubstitutionCounts {
    /// Counts substitution classes over one alignment's aligned columns.
    pub fn from_alignment(alignment: &Alignment, target: &Sequence, query: &Sequence) -> Self {
        let mut counts = SubstitutionCounts::default();
        let (mut t, mut q) = (alignment.target_start, alignment.query_start);
        for (op, n) in alignment.cigar.runs() {
            match op {
                AlignOp::Match | AlignOp::Subst => {
                    let pairs = target.iter().skip(t).zip(query.iter().skip(q));
                    for (a, b) in pairs.take(n as usize) {
                        if a == b {
                            counts.matches += 1;
                        } else if a.is_transition(b) {
                            counts.transitions += 1;
                        } else if a.is_transversion(b) {
                            counts.transversions += 1;
                        }
                    }
                    t += n as usize;
                    q += n as usize;
                }
                AlignOp::Insert => q += n as usize,
                AlignOp::Delete => t += n as usize,
            }
        }
        counts
    }

    /// Accumulates counts over the members of chains.
    pub fn from_chains(
        chains: &[Chain],
        alignments: &[Alignment],
        target: &Sequence,
        query: &Sequence,
    ) -> Self {
        let mut total = SubstitutionCounts::default();
        for chain in chains {
            for &i in &chain.members {
                let c = SubstitutionCounts::from_alignment(&alignments[i], target, query);
                total.matches += c.matches;
                total.transitions += c.transitions;
                total.transversions += c.transversions;
            }
        }
        total
    }

    /// Total aligned (comparable) sites.
    pub fn sites(&self) -> u64 {
        self.matches + self.transitions + self.transversions
    }

    /// Raw proportion of differing sites (`p`-distance).
    pub fn p_distance(&self) -> f64 {
        let sites = self.sites();
        if sites == 0 {
            return 0.0;
        }
        (self.transitions + self.transversions) as f64 / sites as f64
    }

    /// Jukes-Cantor corrected distance, substitutions per site:
    /// `d = −(3/4)·ln(1 − 4p/3)`. Returns `None` when `p ≥ 3/4`
    /// (saturated beyond correction).
    pub fn jukes_cantor(&self) -> Option<f64> {
        let p = self.p_distance();
        if p >= 0.75 {
            return None;
        }
        Some(-0.75 * (1.0 - 4.0 * p / 3.0).ln())
    }

    /// Kimura two-parameter distance, handling the transition bias:
    /// `d = −(1/2)·ln(1−2P−Q) − (1/4)·ln(1−2Q)` with `P` the transition
    /// and `Q` the transversion proportion. Returns `None` on saturation.
    pub fn kimura_2p(&self) -> Option<f64> {
        let sites = self.sites();
        if sites == 0 {
            return Some(0.0);
        }
        let p = self.transitions as f64 / sites as f64;
        let q = self.transversions as f64 / sites as f64;
        let a = 1.0 - 2.0 * p - q;
        let b = 1.0 - 2.0 * q;
        if a <= 0.0 || b <= 0.0 {
            return None;
        }
        Some(-0.5 * a.ln() - 0.25 * b.ln())
    }

    /// Observed transition/transversion ratio (`κ`-like statistic).
    pub fn ts_tv_ratio(&self) -> f64 {
        if self.transversions == 0 {
            return f64::INFINITY;
        }
        self.transitions as f64 / self.transversions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::Cigar;

    fn seqs(t: &str, q: &str) -> (Sequence, Sequence) {
        (t.parse().unwrap(), q.parse().unwrap())
    }

    fn full_alignment(len: u32) -> Alignment {
        let mut c = Cigar::new();
        // Build op-agnostic cigar: classify per column using Subst runs
        // would require the sequences; use all-"Subst" runs — the counter
        // classifies by the actual bases, not the op.
        c.push(AlignOp::Subst, len);
        Alignment::new(0, 0, c, 0)
    }

    #[test]
    fn counts_classify_pairs() {
        // A-A match, A-G transition, A-C transversion, T-C transition.
        let (t, q) = seqs("AAAT", "AGCC");
        let a = full_alignment(4);
        let c = SubstitutionCounts::from_alignment(&a, &t, &q);
        assert_eq!(c.matches, 1);
        assert_eq!(c.transitions, 2);
        assert_eq!(c.transversions, 1);
        assert_eq!(c.sites(), 4);
        assert!((c.p_distance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn jc_of_identical_is_zero() {
        let (t, q) = seqs("ACGTACGT", "ACGTACGT");
        let c = SubstitutionCounts::from_alignment(&full_alignment(8), &t, &q);
        assert_eq!(c.jukes_cantor(), Some(0.0));
        assert_eq!(c.kimura_2p(), Some(0.0));
    }

    #[test]
    fn jc_exceeds_p_distance() {
        // Multiple-hit correction always inflates: d ≥ p.
        let t: Sequence = "ACGTACGTACGTACGTACGT".parse().unwrap();
        let q: Sequence = "ACGTACGAACGTACTTACGT".parse().unwrap();
        let c = SubstitutionCounts::from_alignment(&full_alignment(20), &t, &q);
        let p = c.p_distance();
        let d = c.jukes_cantor().unwrap();
        assert!(d > p);
        assert!(d < 2.0 * p); // sane at low divergence
    }

    #[test]
    fn saturation_returns_none() {
        let (t, q) = seqs("AAAA", "CCCC");
        let c = SubstitutionCounts::from_alignment(&full_alignment(4), &t, &q);
        assert_eq!(c.jukes_cantor(), None);
    }

    #[test]
    fn gaps_are_excluded_from_sites() {
        let (t, q) = seqs("ACGTAA", "ACAA");
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 2);
        c.push(AlignOp::Delete, 2);
        c.push(AlignOp::Match, 2);
        let a = Alignment::new(0, 0, c, 0);
        let counts = SubstitutionCounts::from_alignment(&a, &t, &q);
        assert_eq!(counts.sites(), 4);
        assert_eq!(counts.matches, 4);
    }
}
