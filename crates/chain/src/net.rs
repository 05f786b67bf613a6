//! Chain netting — the UCSC "chainNet" role.
//!
//! After chaining, the UCSC pipeline selects a *net*: the highest-scoring
//! chains that tile the target without overlapping, so every target
//! position has at most one (best) aligning chain. The browser tracks in
//! the paper's Figs. 3 and 9 display exactly such nets. Netting is also
//! the cleanest way to get inflation-proof genome-coverage numbers out of
//! a chain set.

use crate::chainer::Chain;
use align::Alignment;

/// One net entry: a chain admitted into the net with (possibly) a
/// truncated target interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetEntry {
    /// Index into the input chain slice.
    pub chain_index: usize,
    /// Target interval this chain owns in the net.
    pub target_start: usize,
    /// Exclusive end of the owned interval.
    pub target_end: usize,
    /// The chain's score.
    pub score: i64,
}

/// A target-disjoint selection of chains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Net {
    entries: Vec<NetEntry>,
}

impl Net {
    /// The net entries, sorted by target start.
    pub fn entries(&self) -> &[NetEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the net is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total target bases covered by the net.
    pub fn covered_bases(&self) -> usize {
        self.entries.iter().map(|e| e.target_end - e.target_start).sum()
    }
}

/// Builds a net: chains are admitted best-score-first and own whatever
/// part of their target span is not yet owned by a better chain; chains
/// whose remaining span is shorter than `min_span` are dropped.
///
/// This is the greedy interval variant of chainNet (sufficient for
/// coverage accounting; the UCSC tool additionally nests child nets
/// inside gaps, which coverage numbers do not need).
///
/// # Examples
///
/// ```
/// use align::{AlignOp, Alignment, Cigar};
/// use chain::chainer::chain_alignments;
/// use chain::net::build_net;
///
/// let mut c = Cigar::new();
/// c.push(AlignOp::Match, 100);
/// let alignments = vec![
///     Alignment::new(0, 0, c.clone(), 9_000),
///     Alignment::new(50, 500, c.clone(), 5_000), // overlaps the first
/// ];
/// let chains = chain_alignments(&alignments, 0);
/// let net = build_net(&chains, &alignments, 10);
/// // The weaker overlapping chain only owns the non-overlapped tail.
/// assert_eq!(net.covered_bases(), 150);
/// ```
pub fn build_net(chains: &[Chain], alignments: &[Alignment], min_span: usize) -> Net {
    // Spans of all chains, best score first.
    let mut order: Vec<usize> = (0..chains.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(chains[i].score));

    // Owned intervals, kept sorted and disjoint.
    let mut owned: Vec<(usize, usize)> = Vec::new();
    let mut entries = Vec::new();
    for i in order {
        let (start, end) = chains[i].target_span(alignments);
        // Subtract already-owned intervals; admit remaining pieces.
        for (s, e) in subtract_intervals(start, end, &owned) {
            if e - s >= min_span {
                entries.push(NetEntry {
                    chain_index: i,
                    target_start: s,
                    target_end: e,
                    score: chains[i].score,
                });
                insert_interval(&mut owned, (s, e));
            }
        }
    }
    entries.sort_by_key(|e| e.target_start);
    Net { entries }
}

/// Pieces of `[start, end)` not covered by the sorted disjoint `owned`.
fn subtract_intervals(start: usize, end: usize, owned: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut pieces = Vec::new();
    let mut cursor = start;
    for &(s, e) in owned {
        if e <= cursor {
            continue;
        }
        if s >= end {
            break;
        }
        if s > cursor {
            pieces.push((cursor, s.min(end)));
        }
        cursor = cursor.max(e);
        if cursor >= end {
            break;
        }
    }
    if cursor < end {
        pieces.push((cursor, end));
    }
    pieces
}

/// Inserts an interval, keeping the list sorted and merging neighbours.
fn insert_interval(owned: &mut Vec<(usize, usize)>, interval: (usize, usize)) {
    let pos = owned.partition_point(|&(s, _)| s < interval.0);
    owned.insert(pos, interval);
    // Merge around the insertion point.
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(owned.len());
    for &(s, e) in owned.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *owned = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chainer::chain_alignments;
    use align::{AlignOp, Cigar};

    fn block(t: usize, q: usize, len: u32, score: i64) -> Alignment {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, len);
        Alignment::new(t, q, c, score)
    }

    #[test]
    fn non_overlapping_chains_all_enter() {
        // Query order inverted so the two blocks cannot chain together.
        let a = [block(0, 900, 100, 9000), block(500, 100, 100, 8000)];
        let chains = chain_alignments(&a, 0);
        assert_eq!(chains.len(), 2);
        let net = build_net(&chains, &a, 10);
        assert_eq!(net.len(), 2);
        assert_eq!(net.covered_bases(), 200);
    }

    #[test]
    fn weaker_overlap_is_truncated() {
        // Paralogous chains over the same target: the stronger owns the
        // overlap.
        let a = [block(0, 0, 100, 9000), block(60, 900, 100, 5000)];
        let chains = chain_alignments(&a, 0);
        let net = build_net(&chains, &a, 10);
        assert_eq!(net.len(), 2);
        assert_eq!(net.covered_bases(), 160);
        // The strong chain owns [0,100); the weak one only [100,160).
        let weak = net.entries().iter().find(|e| e.score < 9000).unwrap();
        assert_eq!((weak.target_start, weak.target_end), (100, 160));
    }

    #[test]
    fn fully_shadowed_chain_is_dropped() {
        let a = [block(0, 0, 200, 9000), block(50, 900, 50, 2000)];
        let chains = chain_alignments(&a, 0);
        let net = build_net(&chains, &a, 10);
        assert_eq!(net.len(), 1);
        assert_eq!(net.covered_bases(), 200);
    }

    #[test]
    fn min_span_drops_slivers() {
        let a = [block(0, 0, 100, 9000), block(95, 900, 20, 2000)];
        let chains = chain_alignments(&a, 0);
        // Remaining sliver is [100,115): 15 bases < min_span 30.
        let net = build_net(&chains, &a, 30);
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn interval_subtraction() {
        let owned = vec![(10usize, 20usize), (30, 40)];
        assert_eq!(
            subtract_intervals(0, 50, &owned),
            vec![(0, 10), (20, 30), (40, 50)]
        );
        assert_eq!(subtract_intervals(12, 18, &owned), vec![]);
        assert_eq!(subtract_intervals(15, 35, &owned), vec![(20, 30)]);
    }

    #[test]
    fn empty_inputs() {
        let net = build_net(&[], &[], 10);
        assert!(net.is_empty());
        assert_eq!(net.covered_bases(), 0);
    }
}
