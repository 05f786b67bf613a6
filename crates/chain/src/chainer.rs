//! Collinear chaining of local alignments (the AXTCHAIN role, §II).
//!
//! Chains are maximally-scoring ordered sequences of alignments with
//! strictly increasing target and query coordinates; gaps between
//! consecutive members — including double-sided gaps — are charged by the
//! [`crate::gapcost::LooseGapCost`] schedule. The paper evaluates every
//! sensitivity metric on chains rather than raw alignments.

use crate::gapcost::LooseGapCost;
use align::Alignment;
use std::borrow::Borrow;

/// One chain: indices into the input alignment slice, in order, plus the
/// chain score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Member alignment indices, ordered by coordinate.
    pub members: Vec<usize>,
    /// Net chain score: member scores minus gap costs.
    pub score: i64,
}

impl Chain {
    /// Number of member alignments.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the chain has no members (never produced by the chainer).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total exactly-matching base pairs across members.
    pub fn matched_bases<A: Borrow<Alignment>>(&self, alignments: &[A]) -> u64 {
        self.members
            .iter()
            .map(|&i| alignments[i].borrow().matches())
            .sum()
    }

    /// Target span `[start, end)` covered by the chain.
    pub fn target_span<A: Borrow<Alignment>>(&self, alignments: &[A]) -> (usize, usize) {
        let first = alignments[self.members[0]].borrow();
        let last = alignments[self.members.last().copied().unwrap_or(self.members[0])].borrow();
        (first.target_start, last.target_end)
    }
}

/// Chains `alignments` and returns all chains, best first.
///
/// The alignments are taken owned or borrowed (`&[Alignment]` or
/// `&[&Alignment]`), so a caller holding them elsewhere chains them in
/// place.
///
/// Every alignment belongs to exactly one chain (greedy extraction of the
/// best remaining chain, as axtChain does). Chains scoring below
/// `min_score` are discarded together with their members.
///
/// The predecessor search is O(n²); whole-genome runs chain thousands of
/// alignments, for which this is adequate (axtChain uses a kd-tree for the
/// same computation).
///
/// # Examples
///
/// ```
/// use align::{Alignment, Cigar, AlignOp};
/// use chain::chainer::chain_alignments;
///
/// let block = |t: usize, q: usize| {
///     let mut c = Cigar::new();
///     c.push(AlignOp::Match, 50);
///     Alignment::new(t, q, c, 5_000)
/// };
/// // Two collinear blocks chain together; score = 10000 − gap cost.
/// let chains = chain_alignments(&[block(0, 0), block(100, 90)], 0);
/// assert_eq!(chains.len(), 1);
/// assert_eq!(chains[0].members.len(), 2);
/// assert!(chains[0].score > 9_000);
/// ```
pub fn chain_alignments<A: Borrow<Alignment>>(alignments: &[A], min_score: i64) -> Vec<Chain> {
    let alignment = |i: usize| -> &Alignment { alignments[i].borrow() };
    let gap = LooseGapCost;
    let n = alignments.len();
    if n == 0 {
        return Vec::new();
    }
    // Sort indices by target start, then query start.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| {
        let a = alignment(i);
        (a.target_start, a.query_start, a.target_end)
    });

    // DP over the sorted order.
    let mut best_score: Vec<i64> = vec![0; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for (rank, &j) in order.iter().enumerate() {
        let a = alignment(j);
        best_score[j] = a.score;
        for &i in &order[..rank] {
            let b = alignment(i);
            if b.target_end <= a.target_start && b.query_end <= a.query_start {
                let dt = (a.target_start - b.target_end) as u64;
                let dq = (a.query_start - b.query_end) as u64;
                let candidate = best_score[i] + a.score - gap.cost(dt, dq) as i64;
                if candidate > best_score[j] {
                    best_score[j] = candidate;
                    pred[j] = Some(i);
                }
            }
        }
    }

    // Greedy extraction: repeatedly take the best unused chain end and
    // walk its predecessors, skipping members already claimed.
    let mut used = vec![false; n];
    let mut ends: Vec<usize> = (0..n).collect();
    ends.sort_unstable_by_key(|&i| std::cmp::Reverse(best_score[i]));
    let mut chains = Vec::new();
    for &end in &ends {
        if used[end] {
            continue;
        }
        let mut members = Vec::new();
        let mut cursor = Some(end);
        let mut score = 0i64;
        let mut prev: Option<usize> = None;
        while let Some(i) = cursor {
            if used[i] {
                break;
            }
            used[i] = true;
            score += alignment(i).score;
            if let Some(p) = prev {
                let (a, b) = (alignment(p), alignment(i));
                let dt = (a.target_start - b.target_end) as u64;
                let dq = (a.query_start - b.query_end) as u64;
                score -= gap.cost(dt, dq) as i64;
            }
            members.push(i);
            prev = Some(i);
            cursor = pred[i];
        }
        if members.is_empty() {
            continue;
        }
        members.reverse();
        if score >= min_score {
            chains.push(Chain { members, score });
        }
    }
    chains.sort_unstable_by_key(|c| std::cmp::Reverse(c.score));
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::{AlignOp, Cigar};

    fn block(t: usize, q: usize, len: u32, score: i64) -> Alignment {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, len);
        Alignment::new(t, q, c, score)
    }

    #[test]
    fn single_alignment_single_chain() {
        let chains = chain_alignments(&[block(0, 0, 10, 1000)], 0);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].score, 1000);
        assert_eq!(chains[0].len(), 1);
    }

    #[test]
    fn collinear_blocks_chain() {
        let a = [
            block(0, 0, 50, 5000),
            block(100, 95, 50, 5000),
            block(200, 200, 50, 5000),
        ];
        let chains = chain_alignments(&a, 0);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].members, vec![0, 1, 2]);
        assert!(chains[0].score > 12_000);
        assert_eq!(chains[0].matched_bases(&a), 150);
        assert_eq!(chains[0].target_span(&a), (0, 250));
    }

    #[test]
    fn crossing_blocks_do_not_chain() {
        // Second block is before the first in query: order violated.
        let a = [block(0, 100, 50, 5000), block(100, 0, 50, 5000)];
        let chains = chain_alignments(&a, 0);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].len(), 1);
    }

    #[test]
    fn weak_link_splits_chain() {
        // A tiny middle block with an enormous gap on both sides: chaining
        // through it should lose against separate chains.
        let a = [
            block(0, 0, 50, 5000),
            block(1_000_000, 5_000_000, 5, 10),
            block(9_000_000, 9_000_000, 50, 5000),
        ];
        let chains = chain_alignments(&a, 0);
        // Big blocks chain with each other or not, but the tiny block must
        // not bridge them profitably.
        assert!(chains.iter().all(|c| c.len() <= 2));
    }

    #[test]
    fn min_score_filters_chains() {
        let a = [block(0, 0, 5, 100), block(1000, 1000, 50, 9000)];
        let chains = chain_alignments(&a, 3000);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].members, vec![1]);
    }

    #[test]
    fn double_sided_gap_allowed_but_charged() {
        let a = [block(0, 0, 50, 5000), block(150, 200, 50, 5000)];
        let chains = chain_alignments(&a, 0);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 2);
        // dt=100, dq=150 → both-sided cost interpolated between 900 and 1400.
        assert!(chains[0].score < 10_000 - 900);
        assert!(chains[0].score > 10_000 - 1400);
    }

    #[test]
    fn empty_input() {
        assert!(chain_alignments::<Alignment>(&[], 0).is_empty());
    }

    #[test]
    fn borrowed_alignments_chain_like_owned_ones() {
        let a = [
            block(0, 0, 50, 5000),
            block(100, 95, 50, 5000),
            block(0, 900, 50, 4000),
        ];
        let borrowed: Vec<&Alignment> = a.iter().collect();
        let chains = chain_alignments(&borrowed, 0);
        assert_eq!(chains, chain_alignments(&a, 0));
        assert_eq!(chains[0].target_span(&borrowed), chains[0].target_span(&a));
        assert_eq!(chains[0].matched_bases(&borrowed), 100);
    }

    #[test]
    fn chains_are_sorted_by_score() {
        let a = [
            block(0, 0, 10, 900),
            block(5000, 5000, 50, 4000),
            block(20000, 20000, 100, 9000),
        ];
        let chains = chain_alignments(&a, 0);
        for w in chains.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
