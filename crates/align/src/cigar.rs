//! Alignment operations and CIGAR strings.

use std::fmt;

/// One class of alignment column.
///
/// `Match`/`Subst` both consume one base of target and query; `Insert`
/// consumes a query base only (gap in the target); `Delete` consumes a
/// target base only (gap in the query). This follows the convention of
/// §IV's equations 1–2, where *insertion* advances along the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignOp {
    /// Aligned pair of identical bases.
    Match,
    /// Aligned pair of different bases.
    Subst,
    /// Base present only in the query.
    Insert,
    /// Base present only in the target.
    Delete,
}

impl AlignOp {
    /// Single-letter code (`=`, `X`, `I`, `D` — extended CIGAR).
    pub fn code(self) -> char {
        match self {
            AlignOp::Match => '=',
            AlignOp::Subst => 'X',
            AlignOp::Insert => 'I',
            AlignOp::Delete => 'D',
        }
    }

    /// Whether the op consumes a target base.
    pub fn consumes_target(self) -> bool {
        matches!(self, AlignOp::Match | AlignOp::Subst | AlignOp::Delete)
    }

    /// Whether the op consumes a query base.
    pub fn consumes_query(self) -> bool {
        matches!(self, AlignOp::Match | AlignOp::Subst | AlignOp::Insert)
    }
}

/// A run-length-encoded sequence of alignment operations.
///
/// # Examples
///
/// ```
/// use align::cigar::{AlignOp, Cigar};
///
/// let mut c = Cigar::new();
/// c.push(AlignOp::Match, 5);
/// c.push(AlignOp::Insert, 2);
/// c.push(AlignOp::Match, 3);
/// assert_eq!(c.to_string(), "5=2I3=");
/// assert_eq!(c.matches(), 8);
/// assert_eq!(c.target_len(), 8);
/// assert_eq!(c.query_len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar {
    runs: Vec<(AlignOp, u32)>,
}

impl Cigar {
    /// An empty CIGAR.
    pub fn new() -> Cigar {
        Cigar { runs: Vec::new() }
    }

    /// Appends `count` copies of `op`, merging with the trailing run.
    pub fn push(&mut self, op: AlignOp, count: u32) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.0 == op {
                last.1 += count;
                return;
            }
        }
        self.runs.push((op, count));
    }

    /// Appends all runs of `other`.
    pub fn extend_cigar(&mut self, other: &Cigar) {
        for &(op, count) in &other.runs {
            self.push(op, count);
        }
    }

    /// The run-length-encoded ops.
    pub fn runs(&self) -> &[(AlignOp, u32)] {
        &self.runs
    }

    /// Iterator over individual (expanded) operations.
    pub fn iter_ops(&self) -> impl Iterator<Item = AlignOp> + '_ {
        self.runs
            .iter()
            .flat_map(|&(op, count)| std::iter::repeat_n(op, count as usize))
    }

    /// Whether the CIGAR has no operations.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of alignment columns.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, c)| c as usize).sum()
    }

    /// Number of exactly matching base pairs.
    pub fn matches(&self) -> u64 {
        self.count(AlignOp::Match)
    }

    /// Number of substituted (aligned but different) base pairs.
    pub fn substitutions(&self) -> u64 {
        self.count(AlignOp::Subst)
    }

    /// Number of aligned pairs (matches + substitutions).
    pub fn aligned_pairs(&self) -> u64 {
        self.matches() + self.substitutions()
    }

    /// Total count of one op.
    pub fn count(&self, op: AlignOp) -> u64 {
        self.runs
            .iter()
            .filter(|&&(o, _)| o == op)
            .map(|&(_, c)| c as u64)
            .sum()
    }

    /// Target bases consumed.
    pub fn target_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|&&(op, _)| op.consumes_target())
            .map(|&(_, c)| c as usize)
            .sum()
    }

    /// Query bases consumed.
    pub fn query_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|&&(op, _)| op.consumes_query())
            .map(|&(_, c)| c as usize)
            .sum()
    }

    /// Reverses the operation order in place (used when a left extension,
    /// produced back-to-front, is joined with a right extension).
    pub fn reverse(&mut self) {
        self.runs.reverse();
    }

    /// Lengths of maximal gap-free (aligned) blocks, in order.
    ///
    /// This is the statistic of the paper's Fig. 2: the distribution of
    /// ungapped block lengths before an indel interrupts the alignment.
    pub fn ungapped_blocks(&self) -> Vec<u64> {
        let mut blocks = Vec::new();
        let mut current = 0u64;
        for &(op, count) in &self.runs {
            match op {
                AlignOp::Match | AlignOp::Subst => current += count as u64,
                AlignOp::Insert | AlignOp::Delete => {
                    if current > 0 {
                        blocks.push(current);
                        current = 0;
                    }
                }
            }
        }
        if current > 0 {
            blocks.push(current);
        }
        blocks
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.runs.is_empty() {
            return write!(f, "*");
        }
        for &(op, count) in &self.runs {
            write!(f, "{}{}", count, op.code())?;
        }
        Ok(())
    }
}

impl FromIterator<(AlignOp, u32)> for Cigar {
    fn from_iter<I: IntoIterator<Item = (AlignOp, u32)>>(iter: I) -> Cigar {
        let mut c = Cigar::new();
        for (op, count) in iter {
            c.push(op, count);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cigar {
        [
            (AlignOp::Match, 10),
            (AlignOp::Subst, 2),
            (AlignOp::Insert, 3),
            (AlignOp::Match, 5),
            (AlignOp::Delete, 1),
            (AlignOp::Match, 4),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn push_merges_adjacent_runs() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 3);
        c.push(AlignOp::Match, 4);
        c.push(AlignOp::Insert, 0);
        assert_eq!(c.runs().len(), 1);
        assert_eq!(c.to_string(), "7=");
    }

    #[test]
    fn lengths_and_counts() {
        let c = sample();
        assert_eq!(c.matches(), 19);
        assert_eq!(c.substitutions(), 2);
        assert_eq!(c.aligned_pairs(), 21);
        assert_eq!(c.target_len(), 22);
        assert_eq!(c.query_len(), 24);
    }

    #[test]
    fn ungapped_blocks_split_at_indels() {
        let c = sample();
        assert_eq!(c.ungapped_blocks(), vec![12, 5, 4]);
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(Cigar::new().to_string(), "*");
        assert_eq!(sample().to_string(), "10=2X3I5=1D4=");
        assert!(Cigar::new().is_empty());
    }

    #[test]
    fn reverse_reverses_runs() {
        let mut c = sample();
        c.reverse();
        assert_eq!(c.to_string(), "4=1D5=3I2X10=");
    }

    #[test]
    fn extend_cigar_merges_boundary() {
        let mut a = Cigar::new();
        a.push(AlignOp::Match, 3);
        let mut b = Cigar::new();
        b.push(AlignOp::Match, 2);
        b.push(AlignOp::Delete, 1);
        a.extend_cigar(&b);
        assert_eq!(a.to_string(), "5=1D");
    }

    #[test]
    fn iter_ops_expands() {
        let c: Cigar = [(AlignOp::Match, 2), (AlignOp::Insert, 1)].into_iter().collect();
        let ops: Vec<_> = c.iter_ops().collect();
        assert_eq!(ops, vec![AlignOp::Match, AlignOp::Match, AlignOp::Insert]);
    }
}
