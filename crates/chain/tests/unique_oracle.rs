//! `metrics::unique_matched_bases` merges the members' match runs k-way
//! in target order. The oracle here is the definition it replaced: collect
//! every match run's target interval, sort them all, sweep the union.
//! Both must count the same bases on any chains, whatever they overlap.

use align::{AlignOp, Alignment, Cigar};
use chain::chainer::{chain_alignments, Chain};
use chain::metrics;
use proptest::prelude::*;

/// The sort-every-interval count: one `(start, end)` pair per match run
/// of every member, sorted, then the union's length.
fn unique_matched_bases_oracle(chains: &[Chain], alignments: &[Alignment]) -> u64 {
    let mut positions: Vec<(usize, usize)> = Vec::new();
    for chain in chains {
        for &i in &chain.members {
            let a = &alignments[i];
            let mut t = a.target_start;
            for (op, count) in a.cigar.runs() {
                match op {
                    AlignOp::Match => {
                        positions.push((t, t + count as usize));
                        t += count as usize;
                    }
                    AlignOp::Subst | AlignOp::Delete => t += count as usize,
                    AlignOp::Insert => {}
                }
            }
        }
    }
    positions.sort_unstable();
    let mut total = 0u64;
    let mut covered_to = 0usize;
    for (s, e) in positions {
        let s = s.max(covered_to);
        if e > s {
            total += (e - s) as u64;
            covered_to = e;
        }
        covered_to = covered_to.max(e);
    }
    total
}

const OPS: [AlignOp; 4] = [
    AlignOp::Match,
    AlignOp::Subst,
    AlignOp::Insert,
    AlignOp::Delete,
];

/// An alignment of 1–12 runs drawn from all four ops, starting in a
/// 3 kb target window so members overlap often, at any query start.
fn alignment() -> impl Strategy<Value = Alignment> {
    (
        0usize..3_000,
        0usize..100_000,
        prop::collection::vec((0usize..4, 1u32..60), 1..12),
        -2_000i64..20_000,
    )
        .prop_map(|(t, q, runs, score)| {
            let cigar: Cigar = runs.into_iter().map(|(op, n)| (OPS[op], n)).collect();
            Alignment::new(t, q, cigar, score)
        })
}

/// Alignments with exact duplicates and paralogs: copies of earlier ones
/// at the same target start, some moved to another query start.
fn alignments() -> impl Strategy<Value = Vec<Alignment>> {
    (
        prop::collection::vec(alignment(), 1..24),
        prop::collection::vec((0usize..1_000, 0usize..3, 0usize..50_000), 0..8),
    )
        .prop_map(|(mut alignments, copies)| {
            for (pick, kind, q) in copies {
                let mut copy = alignments[pick % alignments.len()].clone();
                if kind > 0 {
                    copy = Alignment::new(copy.target_start, q, copy.cigar, copy.score);
                }
                alignments.push(copy);
            }
            alignments
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chains made by hand: any members, a member in several chains or
    /// twice in one, and empty chains.
    #[test]
    fn streamed_count_equals_the_oracle_on_any_chains(
        alignments in alignments(),
        picks in prop::collection::vec(prop::collection::vec(0usize..1_000, 0..6), 0..6),
    ) {
        let chains: Vec<Chain> = picks
            .iter()
            .map(|members| Chain {
                members: members.iter().map(|m| m % alignments.len()).collect(),
                score: 0,
            })
            .collect();
        prop_assert_eq!(
            metrics::unique_matched_bases(&chains, &alignments),
            unique_matched_bases_oracle(&chains, &alignments)
        );
    }

    /// The chainer's own chains, with `min_score` dropping some of them
    /// and their members; counted from borrowed alignments too.
    #[test]
    fn streamed_count_equals_the_oracle_on_chained_alignments(
        alignments in alignments(),
        min_score in -5_000i64..40_000,
    ) {
        let chains = chain_alignments(&alignments, min_score);
        let expected = unique_matched_bases_oracle(&chains, &alignments);
        prop_assert_eq!(metrics::unique_matched_bases(&chains, &alignments), expected);
        let borrowed: Vec<&Alignment> = alignments.iter().collect();
        prop_assert_eq!(metrics::unique_matched_bases(&chains, &borrowed), expected);
    }
}

#[test]
fn no_chains_and_empty_chains_count_nothing() {
    let mut c = Cigar::new();
    c.push(AlignOp::Match, 10);
    let alignments = [Alignment::new(0, 0, c, 1)];
    let empty = [Chain {
        members: Vec::new(),
        score: 0,
    }];
    for chains in [&[][..], &empty[..]] {
        assert_eq!(metrics::unique_matched_bases(chains, &alignments), 0);
        assert_eq!(unique_matched_bases_oracle(chains, &alignments), 0);
    }
}
