//! Positioned alignments between a target and a query sequence.

use crate::cigar::{AlignOp, Cigar};
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};

/// A scored local alignment between a target and a query region.
///
/// Coordinates are half-open (`start..end`) on the forward strand of each
/// sequence; `cigar.target_len() == target_end - target_start` and likewise
/// for the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Target start (inclusive).
    pub target_start: usize,
    /// Target end (exclusive).
    pub target_end: usize,
    /// Query start (inclusive).
    pub query_start: usize,
    /// Query end (exclusive).
    pub query_end: usize,
    /// Alignment operations.
    pub cigar: Cigar,
    /// Alignment score under the scoring scheme that produced it.
    pub score: i64,
}

impl Alignment {
    /// Creates an alignment and checks coordinate/CIGAR consistency.
    ///
    /// # Panics
    ///
    /// Panics if the CIGAR lengths disagree with the coordinate spans.
    pub fn new(target_start: usize, query_start: usize, cigar: Cigar, score: i64) -> Alignment {
        let target_end = target_start + cigar.target_len();
        let query_end = query_start + cigar.query_len();
        Alignment {
            target_start,
            target_end,
            query_start,
            query_end,
            cigar,
            score,
        }
    }

    /// Target span length.
    pub fn target_span(&self) -> usize {
        self.target_end - self.target_start
    }

    /// Query span length.
    pub fn query_span(&self) -> usize {
        self.query_end - self.query_start
    }

    /// Number of exactly matching base pairs.
    pub fn matches(&self) -> u64 {
        self.cigar.matches()
    }

    /// Verifies this alignment against the sequences: coordinates in
    /// bounds, CIGAR spans consistent, and `Match`/`Subst` ops agreeing
    /// with the actual bases. Returns a description of the first
    /// inconsistency.
    pub fn validate(&self, target: &Sequence, query: &Sequence) -> Result<(), String> {
        if self.target_end > target.len() || self.query_end > query.len() {
            return Err(format!(
                "alignment exceeds sequence bounds ({}..{} / {}..{})",
                self.target_start, self.target_end, self.query_start, self.query_end
            ));
        }
        if self.target_span() != self.cigar.target_len() {
            return Err("target span disagrees with cigar".into());
        }
        if self.query_span() != self.cigar.query_len() {
            return Err("query span disagrees with cigar".into());
        }
        let (mut t, mut q) = (self.target_start, self.query_start);
        for op in self.cigar.iter_ops() {
            match op {
                AlignOp::Match => {
                    if target.get(t) != query.get(q) || target.get(t) == Some(Base::N) {
                        return Err(format!("op '=' at t={t} q={q} on differing bases"));
                    }
                    t += 1;
                    q += 1;
                }
                AlignOp::Subst => {
                    if target.get(t) == query.get(q) && target.get(t) != Some(Base::N) {
                        return Err(format!("op 'X' at t={t} q={q} on equal bases"));
                    }
                    t += 1;
                    q += 1;
                }
                AlignOp::Insert => q += 1,
                AlignOp::Delete => t += 1,
            }
        }
        Ok(())
    }

    /// Recomputes the score of this alignment from the sequences under the
    /// given scoring scheme (each gap run charged open + len·extend).
    pub fn rescore(
        &self,
        target: &Sequence,
        query: &Sequence,
        w: &SubstitutionMatrix,
        gaps: &GapPenalties,
    ) -> i64 {
        let (mut t, mut q) = (self.target_start, self.query_start);
        let mut score = 0i64;
        for (op, count) in self.cigar.runs() {
            let count = count as usize;
            match op {
                AlignOp::Match | AlignOp::Subst => {
                    let pairs = target.iter().skip(t).zip(query.iter().skip(q)).take(count);
                    score += pairs.map(|(a, b)| w.score(a, b) as i64).sum::<i64>();
                    t += count;
                    q += count;
                }
                AlignOp::Insert => {
                    score -= gaps.cost(count);
                    q += count;
                }
                AlignOp::Delete => {
                    score -= gaps.cost(count);
                    t += count;
                }
            }
        }
        score
    }
}

/// Builds a CIGAR by classifying aligned pairs of the given sequences.
///
/// `pairs` walk both sequences from the given starts applying ops;
/// `Match`/`Subst` are chosen per position, so callers that track only
/// "aligned vs gap" can delegate base comparison here.
#[derive(Debug)]
pub struct CigarBuilder<'a> {
    target: &'a Sequence,
    query: &'a Sequence,
    t: usize,
    q: usize,
    cigar: Cigar,
}

impl<'a> CigarBuilder<'a> {
    /// Starts building at the given coordinates.
    pub fn new(target: &'a Sequence, query: &'a Sequence, t: usize, q: usize) -> Self {
        CigarBuilder {
            target,
            query,
            t,
            q,
            cigar: Cigar::new(),
        }
    }

    /// Consumes one aligned pair, classifying match vs substitution.
    pub fn aligned(&mut self) {
        let (a, b) = (self.target.get(self.t), self.query.get(self.q));
        assert!(
            a.is_some() && b.is_some(),
            "aligned pair past a sequence's end"
        );
        let op = if a == b && a != Some(Base::N) {
            AlignOp::Match
        } else {
            AlignOp::Subst
        };
        self.cigar.push(op, 1);
        self.t += 1;
        self.q += 1;
    }

    /// Consumes `len` query bases as an insertion.
    pub fn insert(&mut self, len: u32) {
        self.cigar.push(AlignOp::Insert, len);
        self.q += len as usize;
    }

    /// Current target coordinate.
    pub fn target_pos(&self) -> usize {
        self.t
    }

    /// Current query coordinate.
    pub fn query_pos(&self) -> usize {
        self.q
    }

    /// Finishes and returns the CIGAR.
    pub fn finish(self) -> Cigar {
        self.cigar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs() -> (Sequence, Sequence) {
        ("ACGTACGT".parse().unwrap(), "ACGTTACGT".parse().unwrap())
    }

    #[test]
    fn new_computes_ends() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 4);
        c.push(AlignOp::Insert, 1);
        c.push(AlignOp::Match, 4);
        let a = Alignment::new(0, 0, c, 100);
        assert_eq!(a.target_end, 8);
        assert_eq!(a.query_end, 9);
        assert_eq!(a.target_span(), 8);
        assert_eq!(a.query_span(), 9);
    }

    #[test]
    fn validate_accepts_consistent_alignment() {
        let (t, q) = seqs();
        let mut b = CigarBuilder::new(&t, &q, 0, 0);
        for _ in 0..4 {
            b.aligned();
        }
        b.insert(1);
        for _ in 0..4 {
            b.aligned();
        }
        let a = Alignment::new(0, 0, b.finish(), 1);
        a.validate(&t, &q).unwrap();
        assert_eq!(a.matches(), 8);
    }

    #[test]
    fn validate_rejects_wrong_op() {
        let (t, q) = seqs();
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 5); // 5th pair is A vs T → mismatch
        let a = Alignment::new(0, 0, c, 0);
        assert!(a.validate(&t, &q).is_err());
    }

    #[test]
    fn rescore_matches_manual_computation() {
        let (t, q) = seqs();
        let w = SubstitutionMatrix::darwin_wga();
        let g = GapPenalties::darwin_wga();
        let mut b = CigarBuilder::new(&t, &q, 0, 0);
        for _ in 0..4 {
            b.aligned();
        }
        b.insert(1);
        for _ in 0..4 {
            b.aligned();
        }
        let a = Alignment::new(0, 0, b.finish(), 0);
        // matches: A,C,G,T,A,C,G,T = 91+100+100+91+91+100+100+91 = 764
        // gap of 1: 430+30 = 460
        assert_eq!(a.rescore(&t, &q, &w, &g), 764 - 460);
    }
}
