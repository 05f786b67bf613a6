//! Sensitivity and noise metrics computed on chains (§V-E, §VI-B).
//!
//! The paper measures sensitivity three ways — top-10 chain scores,
//! matched base pairs in all chains, and recovered orthologous exons —
//! and noise as the false-positive rate against a dinucleotide-shuffled
//! target. All four metrics are implemented here, plus the ungapped
//! block-length distribution of Fig. 2.

use crate::chainer::Chain;
use align::cigar::Runs;
use align::{AlignOp, Alignment};
use genome::annotation::Interval;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scores of the top `k` chains (best first); shorter if fewer chains.
pub fn top_k_scores(chains: &[Chain], k: usize) -> Vec<i64> {
    let mut scores: Vec<i64> = chains.iter().map(|c| c.score).collect();
    scores.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
    scores.truncate(k);
    scores
}

/// Sum of the top `k` chain scores.
pub fn top_k_total(chains: &[Chain], k: usize) -> i64 {
    top_k_scores(chains, k).iter().sum()
}

/// Total exactly-matching base pairs across all chains — the paper's
/// "Matched Base-Pairs Counts" column of Table III.
pub fn matched_bases(chains: &[Chain], alignments: &[Alignment]) -> u64 {
    chains.iter().map(|c| c.matched_bases(alignments)).sum()
}

/// Total *unique* matched target positions across all chains — like
/// [`matched_bases`] but counting each target coordinate at most once, so
/// overlapping alignments (paralogs mapping the same target region, or
/// partially duplicate extensions) cannot inflate the total. Use this for
/// apples-to-apples sensitivity comparisons between pipelines whose
/// duplicate-suppression differs.
///
/// Each member's match runs lie in target order, so the members are
/// merged k-way, one cursor each, and the union is swept as it streams
/// out: the memory is O(members), not a pair per match run.
pub fn unique_matched_bases<A: Borrow<Alignment>>(chains: &[Chain], alignments: &[A]) -> u64 {
    let mut cursors: Vec<(Runs<'_>, usize)> = Vec::new();
    let mut heap = BinaryHeap::new();
    for &i in chains.iter().flat_map(|c| &c.members) {
        let a = alignments[i].borrow();
        let mut cursor = (a.cigar.runs(), a.target_start);
        if let Some(interval) = next_match(&mut cursor) {
            heap.push(Reverse((interval, cursors.len())));
            cursors.push(cursor);
        }
    }
    let mut total = 0u64;
    let mut covered_to = 0usize;
    while let Some(Reverse(((s, e), member))) = heap.pop() {
        total += e.saturating_sub(s.max(covered_to)) as u64;
        covered_to = covered_to.max(e);
        if let Some(interval) = next_match(&mut cursors[member]) {
            heap.push(Reverse((interval, member)));
        }
    }
    total
}

/// The target interval of a member's next match run, from a cursor over
/// its runs and the target position they start at.
fn next_match((runs, t): &mut (Runs<'_>, usize)) -> Option<(usize, usize)> {
    for (op, count) in runs.by_ref() {
        let start = *t;
        match op {
            AlignOp::Match => {
                *t += count as usize;
                return Some((start, *t));
            }
            AlignOp::Subst | AlignOp::Delete => *t += count as usize,
            AlignOp::Insert => {}
        }
    }
    None
}

/// Target intervals covered by aligned (match or substitution) columns of
/// one alignment, merged.
pub fn aligned_target_intervals(alignment: &Alignment) -> Vec<(usize, usize)> {
    let mut intervals = Vec::new();
    let mut t = alignment.target_start;
    let mut open: Option<usize> = None;
    for (op, count) in alignment.cigar.runs() {
        match op {
            AlignOp::Match | AlignOp::Subst => {
                if open.is_none() {
                    open = Some(t);
                }
                t += count as usize;
            }
            AlignOp::Delete => {
                if let Some(start) = open.take() {
                    intervals.push((start, t));
                }
                t += count as usize;
            }
            AlignOp::Insert => {
                if let Some(start) = open.take() {
                    intervals.push((start, t));
                }
            }
        }
    }
    if let Some(start) = open {
        intervals.push((start, t));
    }
    intervals
}

/// Exon-recovery counting (the Table III "Exon Counts" columns).
///
/// An exon (a target-coordinate interval) counts as *found* when chained
/// alignments cover at least `min_coverage` of its bases with aligned
/// columns. The paper approximated this oracle with TBLASTX; we have
/// ground-truth intervals from the evolution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExonRecovery {
    /// Total exons assessed.
    pub total: usize,
    /// Exons covered at or above the threshold.
    pub found: usize,
    /// Coverage threshold used.
    pub min_coverage: f64,
}

/// Computes exon recovery for `exons` (target coordinates) against the
/// aligned columns of all chain members.
pub fn exon_recovery(
    chains: &[Chain],
    alignments: &[Alignment],
    exons: &[Interval],
    min_coverage: f64,
) -> ExonRecovery {
    // Collect all aligned target intervals, then per exon count overlap.
    let mut covered: Vec<(usize, usize)> = chains
        .iter()
        .flat_map(|c| c.members.iter())
        .flat_map(|&i| aligned_target_intervals(&alignments[i]))
        .collect();
    covered.sort_unstable();
    // Merge overlaps.
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(covered.len());
    for (s, e) in covered {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }

    let mut found = 0usize;
    for exon in exons {
        if exon.is_empty() {
            continue;
        }
        // Binary search the first merged interval that could overlap.
        let idx = merged.partition_point(|&(_, e)| e <= exon.start);
        let mut overlap = 0usize;
        for &(s, e) in &merged[idx..] {
            if s >= exon.end {
                break;
            }
            overlap += e.min(exon.end) - s.max(exon.start);
        }
        if overlap as f64 >= min_coverage * exon.len() as f64 {
            found += 1;
        }
    }
    ExonRecovery {
        total: exons.iter().filter(|e| !e.is_empty()).count(),
        found,
        min_coverage,
    }
}

/// Log₂-binned histogram of ungapped block lengths (Fig. 2).
///
/// Bin `i` counts blocks with length in `[2^i, 2^(i+1))`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLengthHistogram {
    bins: Vec<u64>,
    total_blocks: u64,
    total_length: u64,
}

impl BlockLengthHistogram {
    /// Builds the histogram from the ungapped blocks of the top `k` chains
    /// (the paper uses the top-10 highest-scoring chains).
    pub fn from_chains(chains: &[Chain], alignments: &[Alignment], k: usize) -> Self {
        let mut hist = BlockLengthHistogram::default();
        for chain in chains.iter().take(k) {
            for &i in &chain.members {
                for len in alignments[i].cigar.ungapped_blocks() {
                    hist.add(len);
                }
            }
        }
        hist
    }

    /// Adds one block of the given length.
    pub fn add(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        let bin = 63 - len.leading_zeros() as usize;
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
        self.total_blocks += 1;
        self.total_length += len;
    }

    /// Counts per log₂ bin.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Mean block length — the "indels every N bp" statistic the paper
    /// quotes (641 bp for human–chimp, 31 bp for human–mouse).
    pub fn mean_length(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.total_length as f64 / self.total_blocks as f64
        }
    }

    /// Fraction of blocks shorter than `threshold` — the mass to the left
    /// of Fig. 2's red 30-bp line, i.e. the alignments ungapped filtering
    /// cannot see.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        let mut below = 0u64;
        for (bin, &count) in self.bins.iter().enumerate() {
            let lo = 1u64 << bin;
            let hi = (1u64 << (bin + 1)).saturating_sub(1);
            if hi < threshold {
                below += count;
            } else if lo < threshold {
                // Partial bin: apportion uniformly.
                let span = hi - lo + 1;
                below += count * (threshold - lo) / span;
            }
        }
        below as f64 / self.total_blocks as f64
    }
}

/// False-positive rate: matched bases against a shuffled target divided by
/// matched bases against the real target (§VI-B).
pub fn false_positive_rate(matched_real: u64, matched_shuffled: u64) -> f64 {
    if matched_real == 0 {
        0.0
    } else {
        matched_shuffled as f64 / matched_real as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::Cigar;

    fn aln(t: usize, q: usize, runs: &[(AlignOp, u32)], score: i64) -> Alignment {
        let mut c = Cigar::new();
        for &(op, n) in runs {
            c.push(op, n);
        }
        Alignment::new(t, q, c, score)
    }

    fn chain_of(members: Vec<usize>, score: i64) -> Chain {
        Chain { members, score }
    }

    #[test]
    fn top_k() {
        let chains = vec![
            chain_of(vec![0], 5),
            chain_of(vec![1], 9),
            chain_of(vec![2], 7),
        ];
        assert_eq!(top_k_scores(&chains, 2), vec![9, 7]);
        assert_eq!(top_k_total(&chains, 10), 21);
    }

    #[test]
    fn matched_bases_sums_members() {
        let alignments = vec![
            aln(0, 0, &[(AlignOp::Match, 10), (AlignOp::Subst, 5)], 0),
            aln(100, 100, &[(AlignOp::Match, 20)], 0),
        ];
        let chains = vec![chain_of(vec![0, 1], 0)];
        assert_eq!(matched_bases(&chains, &alignments), 30);
    }

    #[test]
    fn unique_matched_deduplicates_overlap() {
        let alignments = vec![
            aln(0, 0, &[(AlignOp::Match, 100)], 0),
            aln(50, 500, &[(AlignOp::Match, 100)], 0), // 50 bp overlap in target
        ];
        let chains = vec![chain_of(vec![0], 0), chain_of(vec![1], 0)];
        assert_eq!(matched_bases(&chains, &alignments), 200);
        assert_eq!(unique_matched_bases(&chains, &alignments), 150);
    }

    #[test]
    fn unique_matched_skips_substitutions() {
        let alignments = vec![aln(
            0,
            0,
            &[
                (AlignOp::Match, 10),
                (AlignOp::Subst, 5),
                (AlignOp::Match, 10),
            ],
            0,
        )];
        let chains = vec![chain_of(vec![0], 0)];
        assert_eq!(unique_matched_bases(&chains, &alignments), 20);
    }

    #[test]
    fn aligned_intervals_split_on_gaps() {
        let a = aln(
            10,
            0,
            &[
                (AlignOp::Match, 5),
                (AlignOp::Delete, 3),
                (AlignOp::Match, 4),
                (AlignOp::Insert, 2),
                (AlignOp::Match, 1),
            ],
            0,
        );
        assert_eq!(
            aligned_target_intervals(&a),
            vec![(10, 15), (18, 22), (22, 23)]
        );
    }

    #[test]
    fn exon_recovery_counts_covered() {
        let alignments = vec![aln(100, 0, &[(AlignOp::Match, 100)], 0)];
        let chains = vec![chain_of(vec![0], 0)];
        let exons = vec![
            Interval::new(120, 160, "in"),   // fully covered
            Interval::new(190, 230, "half"), // 25% covered
            Interval::new(500, 540, "out"),  // untouched
        ];
        let r = exon_recovery(&chains, &alignments, &exons, 0.5);
        assert_eq!(r.total, 3);
        assert_eq!(r.found, 1);
        let r = exon_recovery(&chains, &alignments, &exons, 0.2);
        assert_eq!(r.found, 2);
    }

    #[test]
    fn histogram_bins_and_mean() {
        let mut h = BlockLengthHistogram::default();
        h.add(1); // bin 0
        h.add(3); // bin 1
        h.add(64); // bin 6
        h.add(0); // ignored
        assert_eq!(h.total_blocks(), 3);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[6], 1);
        assert!((h.mean_length() - 68.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_threshold() {
        let mut h = BlockLengthHistogram::default();
        for _ in 0..10 {
            h.add(8); // all in bin 3 (8..15)
        }
        assert_eq!(h.fraction_below(16), 1.0);
        assert_eq!(h.fraction_below(1), 0.0);
        for _ in 0..10 {
            h.add(1024);
        }
        assert!((h.fraction_below(16) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fpr() {
        assert_eq!(false_positive_rate(0, 0), 0.0);
        assert!((false_positive_rate(1_000_000, 7) - 7e-6).abs() < 1e-12);
    }

    #[test]
    fn histogram_from_chains_takes_top_k() {
        let alignments = vec![
            aln(0, 0, &[(AlignOp::Match, 100)], 10),
            aln(500, 500, &[(AlignOp::Match, 7)], 5),
        ];
        let chains = vec![chain_of(vec![0], 10), chain_of(vec![1], 5)];
        let h = BlockLengthHistogram::from_chains(&chains, &alignments, 1);
        assert_eq!(h.total_blocks(), 1);
        assert!((h.mean_length() - 100.0).abs() < 1e-12);
    }
}
