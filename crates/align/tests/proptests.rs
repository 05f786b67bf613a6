//! Property-based tests: the alignment kernels against their invariants
//! and against each other.

use align::alignment::Alignment;
use align::banded::banded_smith_waterman;
use align::gactx::{extend_alignment, TilingParams};
use align::nw::needleman_wunsch;
use align::sw::smith_waterman;
use align::xdrop::xdrop_tile;
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use proptest::prelude::*;

fn dna_strategy(min: usize, max: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u8..4, min..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A pair of related sequences: a base sequence and a mutated copy.
fn related_pair() -> impl Strategy<Value = (Sequence, Sequence)> {
    (dna_strategy(20, 200), any::<u64>()).prop_map(|(s, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Sequence::new();
        for b in s.iter() {
            match rng.gen_range(0..20) {
                0 => {} // deletion
                1 => {
                    q.push(Base::from_code(rng.gen_range(0..4)));
                    q.push(b);
                } // insertion
                2 => q.push(Base::from_code(rng.gen_range(0..4))), // substitution
                _ => q.push(b),
            }
        }
        (s, q)
    })
}

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sw_alignment_validates_and_scores_exactly((t, q) in related_pair()) {
        let (w, g) = scoring();
        let r = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        if let Some(a) = r.alignment {
            prop_assert!(a.validate(&t, &q).is_ok(), "{:?}", a.validate(&t, &q));
            prop_assert_eq!(a.score, a.rescore(&t, &q, &w, &g));
            prop_assert!(a.score > 0);
        }
    }

    #[test]
    fn nw_covers_both_sequences_and_scores_exactly((t, q) in related_pair()) {
        let (w, g) = scoring();
        let r = needleman_wunsch(&t.to_bases(), &q.to_bases(), &w, &g);
        prop_assert_eq!(r.cigar.target_len(), t.len());
        prop_assert_eq!(r.cigar.query_len(), q.len());
        let a = Alignment::new(0, 0, r.cigar.clone(), r.score);
        prop_assert!(a.validate(&t, &q).is_ok());
        prop_assert_eq!(r.score, a.rescore(&t, &q, &w, &g));
    }

    #[test]
    fn banded_score_never_exceeds_full_sw((t, q) in related_pair(), band in 1usize..64) {
        let (w, g) = scoring();
        let banded = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        let full = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        prop_assert!(banded.max_score <= full.best_score,
            "banded {} > full {}", banded.max_score, full.best_score);
    }

    #[test]
    fn banded_score_is_monotone_in_band((t, q) in related_pair()) {
        let (w, g) = scoring();
        let mut prev = i64::MIN;
        for band in [1usize, 4, 16, 64, 256] {
            let out = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
            prop_assert!(out.max_score >= prev);
            prev = out.max_score;
        }
    }

    #[test]
    fn wide_band_equals_full_sw((t, q) in related_pair()) {
        let (w, g) = scoring();
        let band = t.len().max(q.len()) + 1;
        let banded = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        let full = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        prop_assert_eq!(banded.max_score, full.best_score);
    }

    #[test]
    fn xdrop_path_validates_and_scores_to_vmax((t, q) in related_pair(), y in 500i64..20_000) {
        let (w, g) = scoring();
        let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, y);
        let a = Alignment::new(0, 0, r.cigar.clone(), r.max_score);
        prop_assert!(a.validate(&t, &q).is_ok(), "{:?}", a.validate(&t, &q));
        prop_assert_eq!(r.max_score, a.rescore(&t, &q, &w, &g));
        prop_assert_eq!(a.target_span(), r.max_target);
        prop_assert_eq!(a.query_span(), r.max_query);
    }

    #[test]
    fn xdrop_score_monotone_in_y((t, q) in related_pair()) {
        let (w, g) = scoring();
        let mut prev = i64::MIN;
        for y in [200i64, 1_000, 5_000, 25_000, i64::MAX / 8] {
            let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, y);
            prop_assert!(r.max_score >= prev, "y {}: {} < {}", y, r.max_score, prev);
            prev = r.max_score;
        }
    }

    #[test]
    fn xdrop_with_huge_y_dominates_global_nw((t, q) in related_pair()) {
        // The unclipped kernel's Vmax is a max over all cells, so it is at
        // least the (m,n)-cell global score.
        let (w, g) = scoring();
        let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, i64::MAX / 8);
        let full = needleman_wunsch(&t.to_bases(), &q.to_bases(), &w, &g);
        prop_assert!(r.max_score >= full.score);
    }

    #[test]
    fn gactx_extension_validates((t, q) in related_pair()) {
        let (w, g) = scoring();
        let params = TilingParams { tile_size: 48, overlap: 12, y: 9430, edge_traceback: false };
        if let Some(ext) = extend_alignment(&t, &q, 0, 0, &w, &g, &params) {
            prop_assert!(ext.alignment.validate(&t, &q).is_ok());
            prop_assert_eq!(
                ext.alignment.score,
                ext.alignment.rescore(&t, &q, &w, &g)
            );
        }
    }

    #[test]
    fn gactx_anchor_inside_sequences_never_panics(
        (t, q) in related_pair(),
        at in 0usize..200,
        aq in 0usize..200,
    ) {
        let (w, g) = scoring();
        let params = TilingParams { tile_size: 64, overlap: 16, y: 9430, edge_traceback: false };
        let at = at.min(t.len());
        let aq = aq.min(q.len());
        let _ = extend_alignment(&t, &q, at, aq, &w, &g, &params);
    }
}
