//! Banded Smith-Waterman (BSW) — the gapped filtering kernel (§III-C).
//!
//! A tile of size `Tf` (default 320) is created with the seed hit at its
//! center; only cells within `B` (default 32) of the tile diagonal are
//! computed, using Smith-Waterman scoring with affine gaps. The tile's
//! maximum score `Vmax` and its position `xmax` are returned: hits with
//! `Vmax >= Hf` pass the filter and `xmax` becomes the anchor of the
//! extension stage.
//!
//! Replacing LASTZ's *ungapped* filter with this kernel is the paper's key
//! sensitivity improvement: indels inside the band no longer kill a true
//! positive.

// Allocation-free inner loops are this kernel's whole point;
// `crates/align/tests/alloc_bound.rs` counts them.

use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i32 = i32::MIN / 4;

/// Outcome of one banded Smith-Waterman filter tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandedOutcome {
    /// Maximum cell score in the tile (`Vmax`), clamped at 0.
    pub max_score: i64,
    /// Target (column) coordinate of the maximum, 0-based into the tile.
    pub target_pos: usize,
    /// Query (row) coordinate of the maximum, 0-based into the tile.
    pub query_pos: usize,
    /// Number of DP cells computed.
    pub cells: u64,
}

/// Runs banded Smith-Waterman over a tile.
///
/// `target` spans the tile's columns and `query` its rows; the band covers
/// cells with `|j - i| <= band` (both 0-based), i.e. a corridor of width
/// `2*band + 1` around the main diagonal — the geometry of equations 4–5
/// in the paper with the stripe structure flattened.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "ACGTACGTACGT".parse()?;
/// let q: Sequence = "ACGTACGTACGT".parse()?;
/// let out = align::banded::banded_smith_waterman(
///     &t.to_bases(),
///     &q.to_bases(),
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
///     4,
/// );
/// assert_eq!(out.max_score, 3 * (91 + 100 + 100 + 91)); // perfect 12-bp match
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn banded_smith_waterman(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    band: usize,
) -> BandedOutcome {
    let (n, m) = (target.len(), query.len());
    if n == 0 || m == 0 {
        return BandedOutcome::default();
    }
    // Rolling rows over V and E (gap-in-target), F needs only the cell above.
    let mut v_prev = vec![0i32; n + 1];
    let mut e_prev = vec![NEG_INF; n + 1];
    let mut f_prev = vec![NEG_INF; n + 1];
    let mut v_cur = vec![0i32; n + 1];
    let mut e_cur = vec![NEG_INF; n + 1];
    let mut f_cur = vec![NEG_INF; n + 1];

    let mut best = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);
    let mut cells = 0u64;

    for i in 1..=m {
        // Band for row i (1-based): columns j with |(j-1) - (i-1)| <= band.
        let jstart = i.saturating_sub(band).max(1);
        let jstop = (i + band).min(n);
        if jstart > jstop {
            break;
        }
        // Left edge: v_cur[jstart-1] holds row i-2 leftovers after the
        // buffer swaps; cells outside the band read as empty (SW restart).
        v_cur[jstart - 1] = 0;
        e_cur[jstart - 1] = NEG_INF;
        f_cur[jstart - 1] = NEG_INF;
        // Right edge: the band widens right by one column per row, so
        // v_prev[jstop] was never computed by row i-1 when the band grew.
        let prev_jstop = ((i - 1) + band).min(n);
        if i > 1 && jstop > prev_jstop {
            v_prev[jstop] = 0;
            e_prev[jstop] = NEG_INF;
            f_prev[jstop] = NEG_INF;
        }
        for j in jstart..=jstop {
            let e_val = (v_cur[j - 1] - gaps.open - gaps.extend).max(e_cur[j - 1] - gaps.extend);
            let f_val = (v_prev[j] - gaps.open - gaps.extend).max(f_prev[j] - gaps.extend);
            let sub = v_prev[j - 1] + w.score(target[j - 1], query[i - 1]);
            let val = 0.max(sub).max(e_val).max(f_val);
            v_cur[j] = val;
            e_cur[j] = e_val;
            f_cur[j] = f_val;
            cells += 1;
            if val > best {
                best = val;
                best_i = i;
                best_j = j;
            }
        }
        std::mem::swap(&mut v_prev, &mut v_cur);
        std::mem::swap(&mut e_prev, &mut e_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }

    BandedOutcome {
        max_score: best as i64,
        target_pos: best_j.saturating_sub(1),
        query_pos: best_i.saturating_sub(1),
        cells,
    }
}

/// A filter tile: target/query windows of `tile_size` centred on a seed
/// hit, mirroring Fig. 4b. Returns the windows' start offsets so callers
/// can convert tile-relative anchors back to genome coordinates.
///
/// The windows are clipped at sequence boundaries.
pub fn tile_around(
    seed_t: usize,
    seed_q: usize,
    tile_size: usize,
    target_len: usize,
    query_len: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let half = tile_size / 2;
    let t0 = seed_t.saturating_sub(half);
    let q0 = seed_q.saturating_sub(half);
    let t1 = (t0 + tile_size).min(target_len);
    let q1 = (q0 + tile_size).min(query_len);
    (t0..t1, q0..q1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::smith_waterman;
    use genome::Sequence;

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    #[test]
    fn matches_full_sw_on_diagonal_alignments() {
        let (w, g) = dw();
        let t: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGG".parse().unwrap();
        let q: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGG".parse().unwrap();
        let banded = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 8);
        let full = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        assert_eq!(banded.max_score, full.best_score);
    }

    #[test]
    fn tolerates_small_indels_within_band() {
        let (w, g) = dw();
        // Query has a 3-base deletion relative to target.
        let t: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGGATCGGATTACA"
            .parse()
            .unwrap();
        let q: Sequence = "ACGGTCAGTCGAGCAGTCAGCTAGCTAGGATCGGATTACA".parse().unwrap();
        let banded = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 8);
        let full = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        assert_eq!(banded.max_score, full.best_score);
        assert!(banded.max_score > 2000);
    }

    #[test]
    fn misses_alignments_outside_band() {
        let (w, g) = dw();
        // 20-base offset: alignment lies on a far diagonal.
        let t: Sequence = format!("{}{}", "T".repeat(20), "ACGGTCAGTCGA")
            .parse()
            .unwrap();
        let q: Sequence = "ACGGTCAGTCGA".parse().unwrap();
        let wide = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 32);
        let narrow = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 4);
        assert!(wide.max_score > narrow.max_score);
    }

    #[test]
    fn cells_bounded_by_band() {
        let (w, g) = dw();
        let t: Sequence = "ACGT".repeat(100).parse().unwrap();
        let q: Sequence = "ACGT".repeat(100).parse().unwrap();
        let band = 16usize;
        let out = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        assert!(out.cells <= (400 * (2 * band as u64 + 1)));
        assert!(out.cells >= 400);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let (w, g) = dw();
        let t: Sequence = "ACGT".parse().unwrap();
        let out = banded_smith_waterman(&t.to_bases(), &[], &w, &g, 4);
        assert_eq!(out.max_score, 0);
        assert_eq!(out.cells, 0);
    }

    #[test]
    fn reports_position_of_maximum() {
        let (w, g) = dw();
        let t: Sequence = "ACGTACGTTTTTTTTT".parse().unwrap();
        let q: Sequence = "ACGTACGTCCCCCCCC".parse().unwrap();
        let out = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 4);
        // Max is at the end of the 8-base shared prefix.
        assert_eq!(out.target_pos, 7);
        assert_eq!(out.query_pos, 7);
    }

    #[test]
    fn tile_window_clipping() {
        let (tr, qr) = tile_around(10, 10, 320, 1000, 1000);
        assert_eq!(tr, 0..320);
        assert_eq!(qr, 0..320);
        let (tr, qr) = tile_around(900, 500, 320, 1000, 1000);
        assert_eq!(tr, 740..1000);
        assert_eq!(qr, 340..660);
    }
}
