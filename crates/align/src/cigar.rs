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

/// The longest run one packed word holds: `2³⁰ − 1` columns.
pub const MAX_RUN: u32 = (1 << 30) - 1;

/// One run, packed in a `u32`: the op in the low 2 bits, the length in the
/// high 30.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Run(u32);

impl Run {
    fn new(op: AlignOp, len: u32) -> Run {
        debug_assert!(len <= MAX_RUN);
        Run(len << 2 | op as u32)
    }

    fn op(self) -> AlignOp {
        match self.0 & 3 {
            0 => AlignOp::Match,
            1 => AlignOp::Subst,
            2 => AlignOp::Insert,
            _ => AlignOp::Delete,
        }
    }

    fn len(self) -> u32 {
        self.0 >> 2
    }

    fn unpack(self) -> (AlignOp, u32) {
        (self.op(), self.len())
    }
}

/// A run-length-encoded sequence of alignment operations, 4 bytes a run.
///
/// A run longer than [`MAX_RUN`] is held as consecutive runs of the same
/// op; [`Cigar::push`] splits it and `Display` prints each piece.
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
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar {
    runs: Vec<Run>,
}

/// The runs of a [`Cigar`], as `(op, length)`, front to back.
#[derive(Debug, Clone)]
pub struct Runs<'a>(std::slice::Iter<'a, Run>);

impl Iterator for Runs<'_> {
    type Item = (AlignOp, u32);

    fn next(&mut self) -> Option<(AlignOp, u32)> {
        self.0.next().map(|r| r.unpack())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Runs<'_> {
    fn next_back(&mut self) -> Option<(AlignOp, u32)> {
        self.0.next_back().map(|r| r.unpack())
    }
}

impl ExactSizeIterator for Runs<'_> {}

impl Cigar {
    /// An empty CIGAR.
    pub fn new() -> Cigar {
        Cigar { runs: Vec::new() }
    }

    /// Appends `count` copies of `op`, merging with the trailing run up to
    /// [`MAX_RUN`] and starting a new run of the same op past it.
    pub fn push(&mut self, op: AlignOp, mut count: u32) {
        if let Some(last) = self.runs.last_mut() {
            if last.op() == op {
                let take = count.min(MAX_RUN - last.len());
                *last = Run::new(op, last.len() + take);
                count -= take;
            }
        }
        while count > 0 {
            let take = count.min(MAX_RUN);
            self.runs.push(Run::new(op, take));
            count -= take;
        }
    }

    /// Appends all runs of `other`.
    pub fn extend_cigar(&mut self, other: &Cigar) {
        for (op, count) in other.runs() {
            self.push(op, count);
        }
    }

    /// The run-length-encoded ops.
    pub fn runs(&self) -> Runs<'_> {
        Runs(self.runs.iter())
    }

    /// Bytes this CIGAR holds on the heap: 4 a run of capacity.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
    }

    /// Drops spare capacity, so the CIGAR holds exactly its runs.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
    }

    /// Iterator over individual (expanded) operations.
    pub fn iter_ops(&self) -> impl Iterator<Item = AlignOp> + '_ {
        self.runs()
            .flat_map(|(op, count)| std::iter::repeat_n(op, count as usize))
    }

    /// Whether the CIGAR has no operations.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of alignment columns.
    pub fn len(&self) -> usize {
        self.runs().map(|(_, c)| c as usize).sum()
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
        self.runs()
            .filter(|&(o, _)| o == op)
            .map(|(_, c)| c as u64)
            .sum()
    }

    /// Target bases consumed.
    pub fn target_len(&self) -> usize {
        self.runs()
            .filter(|&(op, _)| op.consumes_target())
            .map(|(_, c)| c as usize)
            .sum()
    }

    /// Query bases consumed.
    pub fn query_len(&self) -> usize {
        self.runs()
            .filter(|&(op, _)| op.consumes_query())
            .map(|(_, c)| c as usize)
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
        for (op, count) in self.runs() {
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
        for (op, count) in self.runs() {
            write!(f, "{}{}", count, op.code())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cigar({self})")
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
        let c: Cigar = [(AlignOp::Match, 2), (AlignOp::Insert, 1)]
            .into_iter()
            .collect();
        let ops: Vec<_> = c.iter_ops().collect();
        assert_eq!(ops, vec![AlignOp::Match, AlignOp::Match, AlignOp::Insert]);
    }

    #[test]
    fn a_run_is_four_bytes_and_unpacks_every_op() {
        assert_eq!(std::mem::size_of::<Run>(), 4);
        for op in [
            AlignOp::Match,
            AlignOp::Subst,
            AlignOp::Insert,
            AlignOp::Delete,
        ] {
            for len in [1, 2, 1 << 29, MAX_RUN] {
                assert_eq!(Run::new(op, len).unpack(), (op, len));
            }
        }
    }

    #[test]
    fn push_splits_at_the_longest_run_and_never_wraps() {
        // `u32::MAX` then 1 more: 4 full runs and a fifth of 4.
        let mut c = Cigar::new();
        c.push(AlignOp::Match, u32::MAX);
        c.push(AlignOp::Match, 1);
        assert_eq!(c.matches(), u32::MAX as u64 + 1);
        let runs: Vec<_> = c.runs().collect();
        assert_eq!(
            runs,
            [
                [(AlignOp::Match, MAX_RUN); 4].as_slice(),
                &[(AlignOp::Match, 4)]
            ]
            .concat()
        );
        // A split run prints as consecutive runs and re-parses the same.
        let mut d = Cigar::new();
        d.push(AlignOp::Delete, MAX_RUN);
        d.push(AlignOp::Delete, 5);
        d.push(AlignOp::Match, 1);
        assert_eq!(d.to_string(), format!("{MAX_RUN}D5D1="));
        let rebuilt: Cigar = d.runs().collect();
        assert_eq!(rebuilt, d);
    }

    #[test]
    fn runs_walk_both_ends_and_know_their_length() {
        let c = sample();
        let mut runs = c.runs();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs.next_back(), Some((AlignOp::Match, 4)));
        assert_eq!(runs.next(), Some((AlignOp::Match, 10)));
        assert_eq!(runs.len(), 4);
        assert_eq!(c.runs().rev().count(), 6);
    }

    #[test]
    fn shrink_to_fit_holds_exactly_the_runs() {
        let mut c = Cigar::new();
        for i in 0..100u32 {
            c.push(
                if i % 2 == 0 {
                    AlignOp::Match
                } else {
                    AlignOp::Subst
                },
                3,
            );
        }
        assert!(c.heap_bytes() > 4 * c.runs().len());
        c.shrink_to_fit();
        assert_eq!(c.heap_bytes(), 4 * c.runs().len());
        assert_eq!(
            format!("{c:?}").len(),
            "Cigar()".len() + c.to_string().len()
        );
    }
}
