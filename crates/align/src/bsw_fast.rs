//! Wavefront BSW — the filtering kernel (§IV), one prepared batch over
//! two lane widths.
//!
//! The hardware computes banded Smith-Waterman on a linear systolic array
//! that processes one *anti-diagonal* of the band per cycle: every cell on
//! the diagonal `d = i + j` depends only on diagonals `d-1` (gap moves)
//! and `d-2` (substitution), so all of them update in parallel. This
//! module is the software transcription of that dataflow:
//!
//! * sequences are read as their **byte codes** (2-bit bases plus the
//!   `N` code, one byte each) against score tables that [`BswBatch`]
//!   flattens once and every worker thread shares read-only;
//! * the DP runs in **anti-diagonal order** over flat rolling buffers
//!   indexed by row `i` — the software image of the systolic array's
//!   processing elements;
//! * the buffers live in a reusable [`BswScratch`], so a batch of
//!   thousands of filter tiles performs **no per-tile allocation**;
//! * the kernel is **score-only** (no traceback), which is exactly what
//!   the filter stage consumes: `V_max` and its position.
//!
//! One sweep (`sweep`) drives both lane widths: a tile whose scores
//! provably fit 16 bits updates its diagonals in saturating `i16` vector
//! lanes ([`crate::bsw_simd`]), any other tile in the exact `i32` loop of
//! `bsw_wavefront`, which the compiler autovectorises. Either way the
//! result is bit-identical to [`crate::banded::banded_smith_waterman`] —
//! same scores, same argmax coordinates, same cell counts — which the
//! differential-oracle harness (`tests/bsw_differential.rs`) enforces over
//! thousands of random and adversarial tiles.

// Allocation-free inner loops are this kernel's whole point;
// `crates/align/tests/alloc_bound.rs` counts them.

use crate::banded::BandedOutcome;
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i32 = i32::MIN / 4;

/// The widest vector [`crate::bsw_simd`] emits, in `i16` lanes: buffers
/// are padded by this many rows so the last vector of a diagonal may
/// harmlessly overhang.
const LANES_MAX: usize = 16;

/// One wavefront's rolling state in lanes of `T`, indexed by row `i`:
/// `V` on diagonals `d-2`, `d-1` and `d`, `E`/`F` on `d-1` and `d`, and
/// the diagonal's staged substitution scores. Buffers grow to the largest
/// tile seen and are then reused allocation-free.
#[derive(Debug, Default)]
pub(crate) struct Diagonals<T> {
    pub(crate) v_pprev: Vec<T>,
    pub(crate) v_prev: Vec<T>,
    pub(crate) v_cur: Vec<T>,
    pub(crate) e_prev: Vec<T>,
    pub(crate) e_cur: Vec<T>,
    pub(crate) f_prev: Vec<T>,
    pub(crate) f_cur: Vec<T>,
    pub(crate) scores: Vec<T>,
}

/// Reusable per-worker buffers for [`BswBatch::run_tile`]: the rolling
/// wavefront of each lane width.
#[derive(Debug, Default)]
pub struct BswScratch {
    wide: Diagonals<i32>,
    narrow: Diagonals<i16>,
}

/// The scoring of one filter stage, flattened once for tile after tile.
///
/// Immutable after construction and `Sync`, so the parallel drivers share
/// one across all filter workers; each worker brings its own
/// [`BswScratch`]. Construction decides once whether the scoring fits
/// 16-bit lanes and whether the host is x86-64;
/// [`BswBatch::run_tile`] then routes each tile to the narrowest exact
/// kernel its size allows.
///
/// # Examples
///
/// ```
/// use align::bsw_fast::{BswBatch, BswScratch};
/// use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t = "ACGTACGTACGT".parse::<Sequence>()?.to_bases();
/// let (w, g) = (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga());
/// let batch = BswBatch::new(&w, &g, 4);
/// let out = batch.run_tile(Base::codes_of(&t), Base::codes_of(&t), &mut BswScratch::default());
/// assert_eq!(out.max_score, 3 * (91 + 100 + 100 + 91));
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BswBatch {
    lut: [i32; 64],
    lut16: [i16; 64],
    gaps: GapPenalties,
    band: usize,
    /// Largest substitution score; bounds achievable V values.
    max_match: i64,
    /// A tile whose scores fit runs in `i16` lanes: the scoring fits
    /// them and the host is x86-64.
    narrow: bool,
}

impl BswBatch {
    /// Flattens the scoring into code-indexed tables (entry
    /// `(a << 3) | b` holds `w.score(a, b)`, so a lookup needs no bounds
    /// check). Where the scoring or the host rules 16-bit lanes out,
    /// every tile runs the `i32` kernel; otherwise the 16-bit kernel takes
    /// AVX2's 16 lanes where the host has them and SSE2's 8 otherwise.
    pub fn new(w: &SubstitutionMatrix, gaps: &GapPenalties, band: usize) -> BswBatch {
        let (mut lut, mut lut16) = ([0i32; 64], [0i16; 64]);
        let (mut max_match, mut entries_fit) = (0i64, true);
        for a in 0u8..5 {
            for b in 0u8..5 {
                let s = w.score(Base::from_code(a), Base::from_code(b));
                let slot = ((a as usize) << 3) | b as usize;
                lut[slot] = s;
                // The floor is reserved for the -inf sentinel.
                entries_fit &= s <= i16::MAX as i32 && s > i16::MIN as i32;
                lut16[slot] = s.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                max_match = max_match.max(s as i64);
            }
        }
        // `V - (open+extend) >= -(open+extend)` must stay above the
        // saturating floor so open moves always dominate floored chains.
        let penalties_fit = gaps.open >= 0
            && gaps.extend >= 0
            && gaps.open.saturating_add(gaps.extend) <= i16::MAX as i32;
        let narrow = entries_fit && penalties_fit && cfg!(target_arch = "x86_64");
        BswBatch {
            lut,
            lut16,
            gaps: *gaps,
            band,
            max_match,
            narrow,
        }
    }

    /// Whether a tile of `n` target by `m` query bases runs on the `i16`
    /// SIMD kernel (as opposed to the exact `i32` kernel).
    pub fn tile_uses_simd(&self, n: usize, m: usize) -> bool {
        // Score bound: V <= min(n, m) * max_match must fit i16, so no
        // cell value and no substitution candidate can saturate upward.
        self.narrow && (n.min(m) as i64).saturating_mul(self.max_match) <= i16::MAX as i64
    }

    /// Runs one filter tile over windows of the pair's byte codes
    /// ([`Base::codes_of`]).
    ///
    /// Bit-identical to running
    /// [`crate::banded::banded_smith_waterman`] on the same windows,
    /// whichever kernel runs.
    pub fn run_tile(
        &self,
        tcodes: &[u8],
        qcodes: &[u8],
        scratch: &mut BswScratch,
    ) -> BandedOutcome {
        #[cfg(target_arch = "x86_64")]
        {
            if self.tile_uses_simd(tcodes.len(), qcodes.len()) {
                let (lut, band) = (&self.lut16, self.band);
                return crate::bsw_simd::wavefront_i16(
                    tcodes,
                    qcodes,
                    lut,
                    &self.gaps,
                    band,
                    &mut scratch.narrow,
                );
            }
        }
        bsw_wavefront(
            tcodes,
            qcodes,
            &self.lut,
            &self.gaps,
            self.band,
            &mut scratch.wide,
        )
    }
}

/// The band sweep of both kernels: geometry, score staging, argmax,
/// sentinels and buffer rotation, with `update(diagonals, lo, width)`
/// computing rows `lo..lo + width` of the current diagonal from the two
/// before it.
///
/// Computes the same cell set as the scalar kernel — `|i - j| <= band`
/// intersected with the matrix, out-of-band neighbours reading `V = 0`,
/// `E = F = -inf` — and returns an identical [`BandedOutcome`]: the
/// scalar's row-major first-improvement argmax is exactly the
/// lexicographically smallest `(i, j)` attaining the maximum, which the
/// wavefront sweep reproduces by preferring smaller `i` on ties.
#[inline(always)]
pub(crate) fn sweep<T: Copy + Default + Ord + Into<i64>>(
    tcodes: &[u8],
    qcodes: &[u8],
    lut: &[T; 64],
    neg_inf: T,
    band: usize,
    s: &mut Diagonals<T>,
    mut update: impl FnMut(&mut Diagonals<T>, usize, usize),
) -> BandedOutcome {
    let (n, m) = (tcodes.len(), qcodes.len());
    if n == 0 || m == 0 {
        return BandedOutcome::default();
    }
    let len = m + 2 + LANES_MAX;
    for buf in [
        &mut s.v_pprev,
        &mut s.v_prev,
        &mut s.v_cur,
        &mut s.e_prev,
        &mut s.e_cur,
        &mut s.f_prev,
        &mut s.f_cur,
        &mut s.scores,
    ] {
        if buf.len() < len {
            buf.resize(len, T::default());
        }
    }
    // Boundary state feeding diagonal 2 (cell (1,1) only): row 0 and
    // column 0 read V = 0 with no live gap chains.
    let zero = T::default();
    s.v_prev[..2].fill(zero);
    s.v_pprev[..2].fill(zero);
    s.e_prev[..2].fill(neg_inf);
    s.f_prev[..2].fill(neg_inf);

    let (mut best, mut best_i, mut best_j, mut cells) = (zero, 0usize, 0usize, 0u64);
    for d in 2..=(m + n) {
        // Rows intersecting diagonal d: 1 <= i <= m, 1 <= j = d-i <= n,
        // |j - i| <= band.
        let lo_seq = if d > n { d - n } else { 1 };
        let lo_band = if d > band { (d - band).div_ceil(2) } else { 1 };
        let lo = lo_seq.max(lo_band);
        let hi = m.min(d - 1).min((d + band) / 2);
        if lo > hi {
            // The band region is convex, so its anti-diagonal slices form
            // one contiguous run: the first empty diagonal ends the sweep.
            break;
        }
        let width = hi - lo + 1;
        cells += width as u64;

        // Substitution scores for the diagonal: target runs backwards as
        // the row index advances. Indexed by `k < width` over three
        // width-long slices, so the gather has no bounds checks and
        // vectorises (iterating `sc` with `enumerate` kept them, and cost
        // the i16 kernel a third of its speed).
        let ts = &tcodes[d - hi - 1..d - lo];
        let qs = &qcodes[lo - 1..hi];
        let sc = &mut s.scores[..width];
        for k in 0..width {
            sc[k] = lut[(((ts[width - 1 - k] as usize) << 3) | qs[k] as usize) & 63];
        }
        update(s, lo, width);

        // Argmax with the scalar tie-break: the row-major first strict
        // improvement is the lexicographically smallest (i, j) maximum,
        // so on a tied diagonal the smallest row wins.
        let vc = &s.v_cur[lo..=hi];
        let diag_max = vc.iter().copied().max().unwrap_or(zero);
        if diag_max > best || (diag_max == best && best > zero) {
            let i = lo + vc.iter().position(|&v| v == diag_max).unwrap_or(0);
            if diag_max > best || i < best_i {
                (best, best_i, best_j) = (diag_max, i, d - i);
            }
        }

        // Sentinels for the one slot the next diagonals may read beyond
        // this diagonal's computed range on either side (also repairing
        // the row a vector overhang clobbered at hi + 1).
        for row in [lo - 1, hi + 1] {
            s.v_cur[row] = zero;
            s.e_cur[row] = neg_inf;
            s.f_cur[row] = neg_inf;
        }

        // Rotate: d-1 becomes d-2, d becomes d-1, and the old d-2 buffer
        // is recycled as the next current diagonal.
        std::mem::swap(&mut s.v_pprev, &mut s.v_prev);
        std::mem::swap(&mut s.v_prev, &mut s.v_cur);
        std::mem::swap(&mut s.e_prev, &mut s.e_cur);
        std::mem::swap(&mut s.f_prev, &mut s.f_cur);
    }

    BandedOutcome {
        max_score: best.into(),
        target_pos: best_j.saturating_sub(1),
        query_pos: best_i.saturating_sub(1),
        cells,
    }
}

/// The exact kernel: [`sweep`] with a branch-free `i32` diagonal update
/// the compiler can vectorise.
fn bsw_wavefront(
    tcodes: &[u8],
    qcodes: &[u8],
    lut: &[i32; 64],
    gaps: &GapPenalties,
    band: usize,
    s: &mut Diagonals<i32>,
) -> BandedOutcome {
    let (open_extend, extend) = (gaps.open + gaps.extend, gaps.extend);
    sweep(tcodes, qcodes, lut, NEG_INF, band, s, |s, lo, width| {
        // Neighbour views, all indexed by row: the left neighbour (i, j-1)
        // and upper neighbour (i-1, j) live on diagonal d-1 at rows i and
        // i-1; the substitution source (i-1, j-1) on d-2 at row i-1. The
        // sweep's sentinels make out-of-band reads yield V = 0,
        // E = F = -inf, so the loop is branch-free.
        let hi = lo + width - 1;
        let (vl, el) = (&s.v_prev[lo..=hi], &s.e_prev[lo..=hi]);
        let (vu, fu, vd) = (
            &s.v_prev[lo - 1..hi],
            &s.f_prev[lo - 1..hi],
            &s.v_pprev[lo - 1..hi],
        );
        let sc = &s.scores[..width];
        let (vc, ec, fc) = (
            &mut s.v_cur[lo..=hi],
            &mut s.e_cur[lo..=hi],
            &mut s.f_cur[lo..=hi],
        );
        for k in 0..width {
            let e = (vl[k] - open_extend).max(el[k] - extend);
            let f = (vu[k] - open_extend).max(fu[k] - extend);
            vc[k] = (vd[k] + sc[k]).max(e).max(f).max(0);
            ec[k] = e;
            fc[k] = f;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::banded_smith_waterman;
    use genome::Sequence;

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    /// One standalone tile through the batch against the scalar
    /// reference.
    fn assert_identical_on(t: &[Base], q: &[Base], band: usize, scratch: &mut BswScratch) {
        let (w, g) = dw();
        let scalar = banded_smith_waterman(t, q, &w, &g, band);
        let fast =
            BswBatch::new(&w, &g, band).run_tile(Base::codes_of(t), Base::codes_of(q), scratch);
        assert_eq!(scalar, fast, "band={band} n={} m={}", t.len(), q.len());
    }

    fn assert_identical(t: &[Base], q: &[Base], band: usize) {
        assert_identical_on(t, q, band, &mut BswScratch::default());
    }

    fn seq(s: &str) -> Sequence {
        s.parse().unwrap()
    }

    #[test]
    fn matches_scalar_on_perfect_match() {
        let t = seq("ACGTACGTACGT");
        assert_identical(&t.to_bases(), &t.to_bases(), 4);
    }

    #[test]
    fn matches_scalar_on_indels_and_mismatches() {
        let t = seq("ACGGTCAGTCGATTGCAGTCAGCTAGCTAGGATCGGATTACA");
        let q = seq("ACGGTCAGTCGAGCAGTCAGCTAGCTAGGATCGGATTACA");
        for band in [1, 2, 4, 8, 32] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
        }
    }

    #[test]
    fn matches_scalar_on_homopolymer_ties() {
        // Massive score ties: every diagonal cell of the A-block scores
        // the same, stressing the argmax tie-break equivalence.
        let t = seq(&"A".repeat(50));
        let q = seq(&"A".repeat(47));
        for band in [1, 3, 16, 64] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
        }
    }

    #[test]
    fn matches_scalar_on_asymmetric_lengths() {
        let t = seq(&"ACGT".repeat(30));
        let q = seq(&"ACGT".repeat(7));
        for band in [1, 5, 33, 200] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
            assert_identical(&q.to_bases(), &t.to_bases(), band);
        }
    }

    #[test]
    fn matches_scalar_with_ambiguous_bases() {
        let t = seq("ACGTNNNNACGTACGTNACGT");
        let q = seq("ACGTACNNGTACGTNNNACGT");
        for band in [2, 8] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
        }
    }

    #[test]
    fn matches_scalar_across_lane_boundary_lengths() {
        // Tile lengths straddling the 8- and 16-lane boundaries: the
        // final vector of a diagonal is empty / one lane / full.
        let base = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(3);
        for len in [7usize, 8, 9, 15, 16, 17, 31, 32, 33, 48] {
            let t = seq(&base[..len]);
            for band in [1, 8, 16, 64] {
                assert_identical(&t.to_bases(), &t.to_bases(), band);
            }
        }
    }

    #[test]
    fn matches_scalar_on_all_n_tiles() {
        let t = seq(&"N".repeat(40));
        let q = seq(&"N".repeat(37));
        for band in [2, 32] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
        }
    }

    #[test]
    fn empty_inputs_score_zero() {
        let (w, g) = dw();
        let t = seq("ACGT").to_bases();
        let mut scratch = BswScratch::default();
        let batch = BswBatch::new(&w, &g, 4);
        assert_eq!(
            batch.run_tile(Base::codes_of(&t), &[], &mut scratch),
            BandedOutcome::default()
        );
        assert_eq!(
            batch.run_tile(&[], Base::codes_of(&t), &mut scratch),
            BandedOutcome::default()
        );
    }

    #[test]
    fn scratch_reuse_across_differently_sized_tiles() {
        let mut scratch = BswScratch::default();
        // 400 runs the i32 kernel, the rest the i16 lanes on x86-64.
        for len in [1usize, 7, 64, 3, 320, 5, 400, 17] {
            let t = seq(&"ACGGTCAGT".repeat(len.div_ceil(9))[..len]);
            let q = seq(&"ACGGTCTGT".repeat(len.div_ceil(9))[..len]);
            assert_identical_on(&t.to_bases(), &q.to_bases(), 32, &mut scratch);
        }
    }

    #[test]
    fn oversized_tiles_and_wide_penalties_run_the_i32_kernel_and_still_match() {
        // 400 x 400 at max match 100 exceeds the i16 bound (40000), so
        // the tile must route to the exact i32 kernel; so must every tile
        // of a scoring whose gap open does not fit 16 bits.
        let (w, g) = dw();
        let t = seq(&"ACGT".repeat(100)).to_bases();
        let batch = BswBatch::new(&w, &g, 32);
        assert!(!batch.tile_uses_simd(400, 400));
        assert_eq!(batch.tile_uses_simd(320, 320), cfg!(target_arch = "x86_64"));
        let wide = GapPenalties::new(40_000, 30);
        assert!(!BswBatch::new(&w, &wide, 32).tile_uses_simd(1, 1));
        assert_identical(&t, &t, 32);
    }

    #[test]
    fn batch_tiles_match_per_call_results() {
        let t = seq(&"ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40)).to_bases();
        let q = seq(&"ACGGTCAGTCGATTGCAGTCCATGGACTGTTC".repeat(40)).to_bases();
        let mut scratch = BswScratch::default();
        for start in (0..960).step_by(160) {
            let (tr, qr) =
                crate::banded::tile_around(start + 100, start + 100, 320, t.len(), q.len());
            assert_identical_on(&t[tr], &q[qr], 32, &mut scratch);
        }
    }
}
