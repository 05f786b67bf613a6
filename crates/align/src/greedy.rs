//! Y-drop gapped extension for the LASTZ-like baseline.
//!
//! LASTZ's final stage extends each surviving anchor with a gapped X-drop
//! DP (it calls the threshold *Y-drop*; Zhang et al. 2000 introduced the
//! greedy variant). Functionally this is an *untiled* version of the
//! GACT-X extension: same scoring, same drop rule, but the whole dynamic
//! programming region is kept in memory — which is exactly why software
//! needs no tiling and hardware does.
//!
//! We implement it by running the shared tiling driver with a tile large
//! enough that genome-scale extensions rarely need more than a few tiles;
//! this keeps baseline and accelerator extension quality comparable, so
//! that sensitivity differences measured in Table III are attributable to
//! the *filtering* stage, as the paper argues.

use crate::gactx::{extend_alignment, ExtendedAlignment, TilingParams};
use genome::{GapPenalties, Sequence, SubstitutionMatrix};

/// Default Y-drop threshold used by the baseline extension (matches the
/// GACT-X `Y` so the two extenders are iso-quality).
pub const DEFAULT_YDROP: i64 = 9430;

/// Extends an anchor with the software Y-drop algorithm.
///
/// Returns `None` when no aligned base was produced.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "TTTTACGTACGTACGTTTTT".parse()?;
/// let q: Sequence = "GGGGACGTACGTACGTGGGG".parse()?;
/// let a = align::greedy::ydrop_extend(
///     &t, &q, 10, 10,
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
///     align::greedy::DEFAULT_YDROP,
/// ).expect("alignment");
/// assert!(a.alignment.matches() >= 12);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn ydrop_extend(
    target: &Sequence,
    query: &Sequence,
    anchor_t: usize,
    anchor_q: usize,
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    ydrop: i64,
) -> Option<ExtendedAlignment> {
    extend_alignment(target, query, anchor_t, anchor_q, w, gaps, &TilingParams::ydrop(ydrop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gactx;
    use genome::Base;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn mutated_copy(s: &Sequence, rate: f64, rng: &mut StdRng) -> Sequence {
        s.iter()
            .map(|b| {
                if rng.gen::<f64>() < rate {
                    Base::from_code(rng.gen_range(0..4u8))
                } else {
                    b
                }
            })
            .collect()
    }

    #[test]
    fn ydrop_and_gactx_find_equivalent_alignments() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(7);
        let t: Sequence = (0..2000)
            .map(|_| Base::from_code(rng.gen_range(0..4u8)))
            .collect();
        let q = mutated_copy(&t, 0.08, &mut rng);
        let ydrop = ydrop_extend(&t, &q, 1000, 1000, &w, &g, DEFAULT_YDROP).unwrap();
        let gactx = gactx::extend_alignment(
            &t,
            &q,
            1000,
            1000,
            &w,
            &g,
            &gactx::TilingParams::gactx_default(),
        )
        .unwrap();
        let ratio = ydrop.alignment.matches() as f64 / gactx.alignment.matches() as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "y-drop {} vs gact-x {}",
            ydrop.alignment.matches(),
            gactx.alignment.matches()
        );
    }

    #[test]
    fn returns_none_on_garbage_anchor() {
        let (w, g) = dw();
        let t: Sequence = "AAAAAAAAAA".parse().unwrap();
        let q: Sequence = "CCCCCCCCCC".parse().unwrap();
        assert!(ydrop_extend(&t, &q, 5, 5, &w, &g, DEFAULT_YDROP).is_none());
    }
}
