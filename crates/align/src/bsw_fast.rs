//! Batched wavefront BSW — the fast filtering kernel (§IV).
//!
//! The hardware computes banded Smith-Waterman on a linear systolic array
//! that processes one *anti-diagonal* of the band per cycle: every cell on
//! the diagonal `d = i + j` depends only on diagonals `d-1` (gap moves)
//! and `d-2` (substitution), so all of them update in parallel. This
//! module is the software transcription of that dataflow:
//!
//! * sequences are read as their **byte codes** (2-bit bases plus the
//!   `N` code, one byte each — [`genome::Sequence::codes`], the
//!   sequence's own memory) against a flattened score table that
//!   [`BswBatch`] holds, shared read-only by every worker thread;
//! * the DP runs in **anti-diagonal order** over three flat rolling
//!   buffers indexed by row `i` — the software image of the systolic
//!   array's processing elements — with a branch-free inner loop the
//!   compiler can vectorise;
//! * buffers live in a reusable [`WavefrontScratch`], so a batch of
//!   thousands of filter tiles performs **no per-tile allocation**;
//! * the kernel is **score-only** (no traceback), which is exactly what
//!   the filter stage consumes: `V_max` and its position.
//!
//! The result is bit-identical to [`crate::banded::banded_smith_waterman`]
//! — same scores, same argmax coordinates, same cell counts — which the
//! differential-oracle harness (`tests/bsw_differential.rs`) enforces over
//! thousands of random and adversarial tiles.

// Allocation-free inner loops are this kernel's whole point;
// `crates/align/tests/alloc_bound.rs` counts them.

use crate::banded::BandedOutcome;
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i32 = i32::MIN / 4;

/// Flattened substitution matrix indexed by base codes.
///
/// Entry `(a << 3) | b` holds `w.score(a, b)`; the 64-slot table plus an
/// index mask lets the inner loop look scores up without a bounds check.
#[derive(Debug, Clone)]
pub struct ScoreLut {
    table: [i32; 64],
}

impl ScoreLut {
    /// Flattens `w` into a code-indexed table.
    pub fn new(w: &SubstitutionMatrix) -> ScoreLut {
        let mut table = [0i32; 64];
        for a in 0u8..5 {
            for b in 0u8..5 {
                table[((a as usize) << 3) | b as usize] =
                    w.score(Base::from_code(a), Base::from_code(b));
            }
        }
        ScoreLut { table }
    }

    #[inline]
    fn score(&self, a: u8, b: u8) -> i32 {
        self.table[(((a as usize) << 3) | b as usize) & 63]
    }
}

/// Reusable per-worker DP buffers for [`bsw_wavefront`].
///
/// Holds the three rolling anti-diagonal buffers (`V` on `d-1`/`d-2`,
/// `E`/`F` on `d-1`) plus the current diagonal and a substitution-score
/// staging row, all indexed by row `i`. Buffers grow to the largest tile
/// seen and are then reused allocation-free.
#[derive(Debug, Default)]
pub struct WavefrontScratch {
    v_pprev: Vec<i32>,
    v_prev: Vec<i32>,
    v_cur: Vec<i32>,
    e_prev: Vec<i32>,
    e_cur: Vec<i32>,
    f_prev: Vec<i32>,
    f_cur: Vec<i32>,
    scores: Vec<i32>,
}

impl WavefrontScratch {
    /// A fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> WavefrontScratch {
        WavefrontScratch::default()
    }
}

/// The scoring of one filter stage, flattened once for batched tile
/// filtering.
///
/// Immutable after construction and `Sync`, so the parallel driver shares
/// one `BswBatch` across all filter workers; each worker brings its own
/// [`WavefrontScratch`] and calls [`BswBatch::run_tile`] for every tile in
/// its batch.
#[derive(Debug, Clone)]
pub struct BswBatch {
    lut: ScoreLut,
    gaps: GapPenalties,
    band: usize,
}

impl BswBatch {
    /// Flattens the scoring for batched runs.
    pub fn new(w: &SubstitutionMatrix, gaps: &GapPenalties, band: usize) -> BswBatch {
        BswBatch {
            lut: ScoreLut::new(w),
            gaps: *gaps,
            band,
        }
    }

    /// Runs one filter tile over windows of the pair's codes
    /// ([`genome::Sequence::codes`]).
    ///
    /// Bit-identical to running
    /// [`crate::banded::banded_smith_waterman`] on the same windows.
    pub fn run_tile(
        &self,
        tcodes: &[u8],
        qcodes: &[u8],
        scratch: &mut WavefrontScratch,
    ) -> BandedOutcome {
        bsw_wavefront(tcodes, qcodes, &self.lut, &self.gaps, self.band, scratch)
    }
}

/// Banded Smith-Waterman in anti-diagonal (wavefront) order over encoded
/// sequences.
///
/// Computes the same cell set as the scalar kernel — `|i - j| <= band`
/// intersected with the matrix, out-of-band neighbours reading `V = 0`,
/// `E = F = -inf` — and returns an identical [`BandedOutcome`]: the
/// scalar's row-major first-improvement argmax is exactly the
/// lexicographically smallest `(i, j)` attaining the maximum, which the
/// wavefront sweep reproduces by preferring smaller `i` on ties.
pub fn bsw_wavefront(
    tcodes: &[u8],
    qcodes: &[u8],
    lut: &ScoreLut,
    gaps: &GapPenalties,
    band: usize,
    scratch: &mut WavefrontScratch,
) -> BandedOutcome {
    let (n, m) = (tcodes.len(), qcodes.len());
    if n == 0 || m == 0 {
        return BandedOutcome::default();
    }
    let open_extend = gaps.open + gaps.extend;
    let extend = gaps.extend;

    let WavefrontScratch {
        v_pprev,
        v_prev,
        v_cur,
        e_prev,
        e_cur,
        f_prev,
        f_cur,
        scores,
    } = scratch;
    let len = m + 2;
    for buf in [
        &mut *v_pprev, &mut *v_prev, &mut *v_cur, &mut *e_prev, &mut *e_cur, &mut *f_prev,
        &mut *f_cur, &mut *scores,
    ] {
        if buf.len() < len {
            buf.resize(len, 0);
        }
    }
    // Boundary state feeding diagonal 2 (cell (1,1) only): row 0 and
    // column 0 read V = 0 with no live gap chains.
    v_prev[0] = 0;
    v_prev[1] = 0;
    e_prev[0] = NEG_INF;
    e_prev[1] = NEG_INF;
    f_prev[0] = NEG_INF;
    f_prev[1] = NEG_INF;
    v_pprev[0] = 0;
    v_pprev[1] = 0;

    let mut best = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);
    let mut cells = 0u64;

    for d in 2..=(m + n) {
        // Rows intersecting diagonal d: 1 <= i <= m, 1 <= j = d-i <= n,
        // |j - i| <= band.
        let lo_seq = if d > n { d - n } else { 1 };
        let lo_band = if d > band { (d - band).div_ceil(2) } else { 1 };
        let lo = lo_seq.max(lo_band).max(1);
        let hi = m.min(d - 1).min((d + band) / 2);
        if lo > hi {
            // The band region is convex, so its anti-diagonal slices form
            // one contiguous run: the first empty diagonal ends the sweep.
            break;
        }
        let width = hi - lo + 1;
        cells += width as u64;

        // Substitution scores for the diagonal: target runs backwards as
        // the row index advances.
        let ts = &tcodes[d - hi - 1..d - lo];
        let qs = &qcodes[lo - 1..hi];
        let sc = &mut scores[..width];
        for k in 0..width {
            sc[k] = lut.score(ts[width - 1 - k], qs[k]);
        }

        // Neighbour views, all indexed by row: the left neighbour (i, j-1)
        // and upper neighbour (i-1, j) live on diagonal d-1 at rows i and
        // i-1; the substitution source (i-1, j-1) on d-2 at row i-1.
        // Sentinels written after each diagonal make out-of-band reads
        // yield V = 0, E = F = -inf, so the loop is branch-free.
        let vl = &v_prev[lo..=hi];
        let el = &e_prev[lo..=hi];
        let vu = &v_prev[lo - 1..hi];
        let fu = &f_prev[lo - 1..hi];
        let vd = &v_pprev[lo - 1..hi];
        let vc = &mut v_cur[lo..=hi];
        let ec = &mut e_cur[lo..=hi];
        let fc = &mut f_cur[lo..=hi];
        for k in 0..width {
            let e = (vl[k] - open_extend).max(el[k] - extend);
            let f = (vu[k] - open_extend).max(fu[k] - extend);
            let val = (vd[k] + sc[k]).max(e).max(f).max(0);
            vc[k] = val;
            ec[k] = e;
            fc[k] = f;
        }

        // Argmax with the scalar tie-break: the row-major first strict
        // improvement is the lexicographically smallest (i, j) maximum,
        // so on a tied diagonal the smallest row wins.
        let diag_max = vc.iter().copied().max().unwrap_or(0);
        if diag_max > best || (diag_max == best && best > 0) {
            let k = vc.iter().position(|&v| v == diag_max).unwrap_or(0);
            let i = lo + k;
            if diag_max > best || i < best_i {
                best = diag_max;
                best_i = i;
                best_j = d - i;
            }
        }

        // Sentinels for the one slot the next diagonals may read beyond
        // this diagonal's computed range on either side.
        v_cur[lo - 1] = 0;
        e_cur[lo - 1] = NEG_INF;
        f_cur[lo - 1] = NEG_INF;
        v_cur[hi + 1] = 0;
        e_cur[hi + 1] = NEG_INF;
        f_cur[hi + 1] = NEG_INF;

        // Rotate: d-1 becomes d-2, d becomes d-1, and the old d-2 buffer
        // is recycled as the next current diagonal.
        std::mem::swap(v_pprev, v_prev);
        std::mem::swap(v_prev, v_cur);
        std::mem::swap(e_prev, e_cur);
        std::mem::swap(f_prev, f_cur);
    }

    BandedOutcome {
        max_score: best as i64,
        target_pos: best_j.saturating_sub(1),
        query_pos: best_i.saturating_sub(1),
        cells,
    }
}

/// Convenience wrapper: runs the wavefront kernel on the codes of
/// `target`/`query` — a drop-in replacement for
/// [`crate::banded::banded_smith_waterman`] plus a scratch argument.
///
/// # Examples
///
/// ```
/// use align::bsw_fast::{banded_smith_waterman_wavefront, WavefrontScratch};
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "ACGTACGTACGT".parse()?;
/// let q: Sequence = "ACGTACGTACGT".parse()?;
/// let mut scratch = WavefrontScratch::new();
/// let out = banded_smith_waterman_wavefront(
///     &t.to_bases(),
///     &q.to_bases(),
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
///     4,
///     &mut scratch,
/// );
/// assert_eq!(out.max_score, 3 * (91 + 100 + 100 + 91));
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn banded_smith_waterman_wavefront(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    band: usize,
    scratch: &mut WavefrontScratch,
) -> BandedOutcome {
    bsw_wavefront(
        Base::codes_of(target),
        Base::codes_of(query),
        &ScoreLut::new(w),
        gaps,
        band,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::banded_smith_waterman;
    use genome::Sequence;

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn assert_identical(t: &[Base], q: &[Base], band: usize) {
        let (w, g) = dw();
        let scalar = banded_smith_waterman(t, q, &w, &g, band);
        let mut scratch = WavefrontScratch::new();
        let fast = banded_smith_waterman_wavefront(t, q, &w, &g, band, &mut scratch);
        assert_eq!(scalar, fast, "band={band} n={} m={}", t.len(), q.len());
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
    fn empty_inputs_score_zero() {
        let (w, g) = dw();
        let t = seq("ACGT");
        let mut scratch = WavefrontScratch::new();
        let out =
            banded_smith_waterman_wavefront(&t.to_bases(), &[], &w, &g, 4, &mut scratch);
        assert_eq!(out, BandedOutcome::default());
        let out =
            banded_smith_waterman_wavefront(&[], &t.to_bases(), &w, &g, 4, &mut scratch);
        assert_eq!(out, BandedOutcome::default());
    }

    #[test]
    fn scratch_reuse_across_differently_sized_tiles() {
        let (w, g) = dw();
        let mut scratch = WavefrontScratch::new();
        for len in [1usize, 7, 64, 3, 320, 5] {
            let t = seq(&"ACGGTCAGT".repeat(len.div_ceil(9))[..len]);
            let q = seq(&"ACGGTCTGT".repeat(len.div_ceil(9))[..len]);
            let scalar = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 32);
            let fast = bsw_wavefront(
                Base::codes_of(&t.to_bases()),
                Base::codes_of(&q.to_bases()),
                &ScoreLut::new(&w),
                &g,
                32,
                &mut scratch,
            );
            assert_eq!(scalar, fast, "len={len}");
        }
    }

    #[test]
    fn batch_tiles_match_per_call_results() {
        let (w, g) = dw();
        let t = seq(&"ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40));
        let q = seq(&"ACGGTCAGTCGATTGCAGTCCATGGACTGTTC".repeat(40));
        let batch = BswBatch::new(&w, &g, 32);
        let mut scratch = WavefrontScratch::new();
        for start in (0..960).step_by(160) {
            let (tr, qr) = crate::banded::tile_around(
                start + 100,
                start + 100,
                320,
                t.len(),
                q.len(),
            );
            let scalar = banded_smith_waterman(
                &t.to_bases()[tr.clone()],
                &q.to_bases()[qr.clone()],
                &w,
                &g,
                32,
            );
            let fast = batch.run_tile(Base::codes_of(&t.to_bases()[tr]), Base::codes_of(&q.to_bases()[qr]), &mut scratch);
            assert_eq!(scalar, fast, "tile at {start}");
        }
    }
}
