//! Property-based tests for chaining invariants.

use align::{AlignOp, Alignment, Cigar};
use chain::chainer::chain_alignments;
use chain::gapcost::LooseGapCost;
use chain::metrics;
use proptest::prelude::*;
use std::collections::HashSet;

fn alignment_strategy() -> impl Strategy<Value = Alignment> {
    (
        0usize..1_000_000,
        0usize..1_000_000,
        20u32..500,
        1i64..50_000,
    )
        .prop_map(|(t, q, len, score)| {
            let mut c = Cigar::new();
            c.push(AlignOp::Match, len);
            Alignment::new(t, q, c, score)
        })
}

/// Ortholog runs `(target, query, len)` sorted and disjoint in both
/// coordinates, from gaps of zero or more bases on either side.
fn runs_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0usize..4, 0usize..4, 1usize..9), 0..12).prop_map(|steps| {
        let (mut t, mut q) = (0, 0);
        (steps.into_iter())
            .map(|(gap_t, gap_q, len)| {
                (t, q) = (t + gap_t, q + gap_q);
                let run = (t, q, len);
                (t, q) = (t + len, q + len);
                run
            })
            .collect()
    })
}

/// A short alignment of random operations near the runs, with its strand.
fn scored_alignment_strategy() -> impl Strategy<Value = (Alignment, bool)> {
    let ops = prop::collection::vec((0usize..4, 1u32..6), 0..10);
    (0usize..50, 0usize..50, ops, any::<bool>()).prop_map(|(t, q, ops, forward)| {
        let mut c = Cigar::new();
        for (op, count) in ops {
            let op = [
                AlignOp::Match,
                AlignOp::Subst,
                AlignOp::Insert,
                AlignOp::Delete,
            ][op];
            c.push(op, count);
        }
        (Alignment::new(t, q, c, 0), forward)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truth_score_equals_its_per_base_expansion(
        runs in runs_strategy(),
        alignments in prop::collection::vec(scored_alignment_strategy(), 0..6),
    ) {
        let truth: HashSet<(usize, usize)> = (runs.iter())
            .flat_map(|&(t, q, len)| (0..len).map(move |i| (t + i, q + i)))
            .collect();
        let (mut aligned, mut correct) = (0u64, 0u64);
        for (a, forward) in &alignments {
            let (mut t, mut q) = (a.target_start, a.query_start);
            for op in a.cigar.iter_ops() {
                if matches!(op, AlignOp::Match | AlignOp::Subst) {
                    aligned += 1;
                    correct += (*forward && truth.contains(&(t, q))) as u64;
                }
                t += (op != AlignOp::Insert) as usize;
                q += (op != AlignOp::Delete) as usize;
            }
        }
        let score = metrics::truth_score(&runs, alignments.iter().map(|(a, f)| (a, *f)));
        prop_assert_eq!(score.truth_bp, truth.len() as u64);
        prop_assert_eq!((score.aligned_bp, score.correct_bp), (aligned, correct));
    }

    #[test]
    fn every_alignment_lands_in_exactly_one_chain(
        alignments in prop::collection::vec(alignment_strategy(), 1..40)
    ) {
        let chains = chain_alignments(&alignments, i64::MIN);
        let mut seen = vec![0u32; alignments.len()];
        for chain in &chains {
            for &m in &chain.members {
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "memberships {:?}", seen);
    }

    #[test]
    fn chain_members_are_strictly_ordered(
        alignments in prop::collection::vec(alignment_strategy(), 1..40)
    ) {
        let chains = chain_alignments(&alignments, i64::MIN);
        for chain in &chains {
            for w in chain.members.windows(2) {
                let (a, b) = (&alignments[w[0]], &alignments[w[1]]);
                prop_assert!(a.target_end <= b.target_start);
                prop_assert!(a.query_end <= b.query_start);
            }
        }
    }

    #[test]
    fn chain_score_equals_members_minus_gaps(
        alignments in prop::collection::vec(alignment_strategy(), 1..30)
    ) {
        let gap = LooseGapCost;
        let chains = chain_alignments(&alignments, i64::MIN);
        for chain in &chains {
            let mut expected = 0i64;
            for (k, &m) in chain.members.iter().enumerate() {
                expected += alignments[m].score;
                if k > 0 {
                    let prev = &alignments[chain.members[k - 1]];
                    let cur = &alignments[m];
                    let dt = (cur.target_start - prev.target_end) as u64;
                    let dq = (cur.query_start - prev.query_end) as u64;
                    expected -= gap.cost(dt, dq) as i64;
                }
            }
            prop_assert_eq!(chain.score, expected);
        }
    }

    #[test]
    fn chaining_never_loses_score(
        alignments in prop::collection::vec(alignment_strategy(), 1..30)
    ) {
        // The best chain must score at least as much as the best single
        // alignment (a singleton chain is always available).
        let chains = chain_alignments(&alignments, i64::MIN);
        let best_single = alignments.iter().map(|a| a.score).max().unwrap();
        prop_assert!(chains[0].score >= best_single);
    }

    #[test]
    fn matched_bases_bounded_by_unique(
        alignments in prop::collection::vec(alignment_strategy(), 1..30)
    ) {
        let chains = chain_alignments(&alignments, i64::MIN);
        let raw = metrics::matched_bases(&chains, &alignments);
        let unique = metrics::unique_matched_bases(&chains, &alignments);
        prop_assert!(unique <= raw);
    }

    #[test]
    fn gap_cost_monotone(d1 in 1u64..1_000_000, d2 in 1u64..1_000_000) {
        let g = LooseGapCost;
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        prop_assert!(g.cost(lo, 0) <= g.cost(hi, 0));
        prop_assert!(g.cost(0, lo) <= g.cost(0, hi));
        prop_assert!(g.cost(lo, lo) <= g.cost(hi, hi));
        // Symmetry of single-sided gaps.
        prop_assert_eq!(g.cost(lo, 0), g.cost(0, lo));
        // Double-sided at least as costly as single-sided.
        prop_assert!(g.cost(lo, hi) >= g.cost(hi, 0));
    }

    #[test]
    fn min_score_only_removes_low_chains(
        alignments in prop::collection::vec(alignment_strategy(), 1..30),
        min_score in 0i64..60_000,
    ) {
        let all = chain_alignments(&alignments, i64::MIN);
        let filtered = chain_alignments(&alignments, min_score);
        prop_assert!(filtered.len() <= all.len());
        prop_assert!(filtered.iter().all(|c| c.score >= min_score));
    }
}
