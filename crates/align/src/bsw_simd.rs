//! Explicit-SIMD wavefront BSW — 16-bit anti-diagonal lanes (§IV).
//!
//! The paper's systolic array updates every cell of an anti-diagonal in
//! the same cycle. [`crate::bsw_fast`] transcribes that dataflow into a
//! branch-free scalar loop the compiler autovectorises at the x86-64
//! baseline (SSE2, four `i32` lanes); this module replaces the inner loop
//! with *explicit* `std::arch` intrinsics over saturating `i16` lanes —
//! eight per SSE2 vector, sixteen per AVX2 vector — which is the lane
//! layout real CPU Smith-Waterman engines use.
//!
//! # Exactness
//!
//! The `i16` kernel is bit-identical to the `i32` wavefront (and hence to
//! the scalar reference) whenever the guard below holds, because:
//!
//! * cell scores are bounded: `0 <= V(i,j) <= min(n, m) * max_match`
//!   (a local alignment of `min(n, m)` pairs, each scoring at most
//!   `max_match`, with non-negative gap penalties), so when
//!   `min(n, m) * max_match <= i16::MAX` no `V` value and no
//!   substitution candidate `V_diag + s` can overflow;
//! * gap chains use *saturating* subtraction: a chain value below
//!   `i16::MIN` clamps to the floor instead of wrapping, and any floored
//!   value is strictly dominated by the always-available open move
//!   `V - (open + extend) >= -(open + extend) >= i16::MIN + 1`, so the
//!   clamp can never change a maximum.
//!
//! Tiles that fail the guard (oversized tiles, oversized penalties, a
//! non-x86-64 host) fall back to the exact `i32` kernel, so
//! [`BswSimdBatch::run_tile`] returns the identical [`BandedOutcome`] on
//! every input — enforced by the three-way differential oracle in
//! `tests/bsw_differential.rs`.

// Allocation-free inner loops are this kernel's whole point;
// `crates/align/tests/alloc_bound.rs` counts them.

use crate::banded::BandedOutcome;
use crate::bsw_fast::{bsw_wavefront, ScoreLut, WavefrontScratch};
use genome::{Base, GapPenalties, SubstitutionMatrix};

/// Sentinel for "no live gap chain": the saturating floor.
const NEG_INF_I16: i16 = i16::MIN;

/// The widest vector this module emits; buffers are padded by this many
/// lanes so the last vector of a diagonal may harmlessly overhang.
const LANES_MAX: usize = 16;

/// Reusable per-worker buffers for [`BswSimdBatch::run_tile`]: the `i16`
/// rolling wavefront state plus an embedded [`WavefrontScratch`] for
/// tiles routed to the `i32` fallback.
#[derive(Debug, Default)]
pub struct SimdScratch {
    v_pprev: Vec<i16>,
    v_prev: Vec<i16>,
    v_cur: Vec<i16>,
    e_prev: Vec<i16>,
    e_cur: Vec<i16>,
    f_prev: Vec<i16>,
    f_cur: Vec<i16>,
    scores: Vec<i16>,
    fallback: WavefrontScratch,
}

impl SimdScratch {
    /// A fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> SimdScratch {
        SimdScratch::default()
    }
}

/// The scoring of one filter stage, prepared once for SIMD tile
/// filtering.
///
/// The SIMD analogue of [`crate::bsw_fast::BswBatch`]: immutable after
/// construction and `Sync`, shared read-only by every filter worker, each
/// worker bringing its own [`SimdScratch`]. Construction decides once
/// whether the scoring parameters fit 16-bit arithmetic and which
/// instruction set the host offers; [`BswSimdBatch::run_tile`] then
/// routes each tile to the widest exact kernel.
#[derive(Debug, Clone)]
pub struct BswSimdBatch {
    lut: ScoreLut,
    lut16: [i16; 64],
    gaps: GapPenalties,
    band: usize,
    /// Largest positive substitution score; bounds achievable V values.
    max_match: i64,
    /// Parameters fit `i16` arithmetic (scores and penalties in range).
    params_fit_i16: bool,
    /// Host supports the AVX2 kernel (16 lanes); otherwise SSE2 (8).
    use_avx2: bool,
}

impl BswSimdBatch {
    /// Probes scoring ranges and host instruction sets for SIMD
    /// dispatch.
    pub fn new(w: &SubstitutionMatrix, gaps: &GapPenalties, band: usize) -> BswSimdBatch {
        let lut = ScoreLut::new(w);
        let mut lut16 = [0i16; 64];
        let mut max_match = 0i64;
        let mut entries_fit = true;
        for a in 0u8..5 {
            for b in 0u8..5 {
                let s = w.score(Base::from_code(a), Base::from_code(b));
                // The floor is reserved for the -inf sentinel.
                if s > i16::MAX as i32 || s <= i16::MIN as i32 {
                    entries_fit = false;
                }
                lut16[((a as usize) << 3) | b as usize] = s.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                max_match = max_match.max(s as i64);
            }
        }
        let open_extend = gaps.open.saturating_add(gaps.extend);
        // `V - (open+extend) >= -(open+extend)` must stay above the
        // saturating floor so open moves always dominate floored chains.
        let penalties_fit = gaps.open >= 0
            && gaps.extend >= 0
            && open_extend <= i16::MAX as i32
            && gaps.extend <= i16::MAX as i32;
        BswSimdBatch {
            lut,
            lut16,
            gaps: *gaps,
            band,
            max_match,
            params_fit_i16: entries_fit
                && penalties_fit
                && cfg!(target_arch = "x86_64")
                && !simd_disabled_by_env(),
            use_avx2: avx2_available(),
        }
    }

    /// Number of `i16` lanes the dispatched kernel computes per vector,
    /// or 0 when every tile falls back to the `i32` kernel.
    pub fn lanes(&self) -> usize {
        match (self.params_fit_i16, self.use_avx2) {
            (false, _) => 0,
            (true, true) => 16,
            (true, false) => 8,
        }
    }

    /// Whether a tile of `n` target by `m` query bases runs on the `i16`
    /// SIMD kernel (as opposed to the exact `i32` fallback).
    pub fn tile_uses_simd(&self, n: usize, m: usize) -> bool {
        // Score bound: V <= min(n, m) * max_match must fit i16, so no
        // cell value and no substitution candidate can saturate upward.
        self.params_fit_i16
            && n > 0
            && m > 0
            && (n.min(m) as i64).saturating_mul(self.max_match) <= i16::MAX as i64
    }

    /// Runs one filter tile over windows of the pair's codes
    /// ([`genome::Sequence::codes`]).
    ///
    /// Bit-identical to [`crate::bsw_fast::BswBatch::run_tile`] (and the
    /// scalar reference) on the same windows, whichever kernel runs.
    pub fn run_tile(
        &self,
        tcodes: &[u8],
        qcodes: &[u8],
        scratch: &mut SimdScratch,
    ) -> BandedOutcome {
        if tcodes.is_empty() || qcodes.is_empty() {
            return BandedOutcome::default();
        }
        if self.tile_uses_simd(tcodes.len(), qcodes.len()) {
            let oe = (self.gaps.open + self.gaps.extend) as i16;
            let ext = self.gaps.extend as i16;
            #[cfg(target_arch = "x86_64")]
            {
                if self.use_avx2 {
                    // SAFETY: `use_avx2` was set by `is_x86_feature_detected!("avx2")`,
                    // so the AVX2 instructions this function emits are supported.
                    return unsafe {
                        wavefront_i16_avx2(tcodes, qcodes, &self.lut16, oe, ext, self.band, scratch)
                    };
                }
                // SAFETY: SSE2 is part of the x86-64 baseline, guaranteed
                // present on every x86_64 target this cfg admits.
                return unsafe {
                    wavefront_i16_sse2(tcodes, qcodes, &self.lut16, oe, ext, self.band, scratch)
                };
            }
        }
        bsw_wavefront(
            tcodes,
            qcodes,
            &self.lut,
            &self.gaps,
            self.band,
            &mut scratch.fallback,
        )
    }
}

/// Whether `WGA_DISABLE_SIMD` is set to a truthy value in the environment.
///
/// With SIMD disabled every tile takes the exact `i32` fallback and
/// [`BswSimdBatch::lanes`] reports 0, so the `simd` filter engine degrades
/// to `batched` at runtime. CI uses this to exercise both dispatch paths
/// of the differential suite on the same host.
fn simd_disabled_by_env() -> bool {
    std::env::var_os("WGA_DISABLE_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Runtime AVX2 probe; compile-time `false` off x86-64.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Convenience wrapper: runs the SIMD dispatch on the codes of
/// `target`/`query` as one standalone tile — the three-way differential tests'
/// entry point.
pub fn banded_smith_waterman_simd(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    band: usize,
    scratch: &mut SimdScratch,
) -> BandedOutcome {
    BswSimdBatch::new(w, gaps, band).run_tile(
        Base::codes_of(target),
        Base::codes_of(query),
        scratch,
    )
}

/// Generates one `i16` wavefront kernel per instruction set. The DP body
/// is the anti-diagonal sweep of [`bsw_wavefront`] verbatim — same band
/// geometry, same staging, same sentinels, same argmax tie-break — with
/// the inner loop emitted as explicit saturating `i16` vector ops. The
/// last vector of each diagonal overhangs the band edge into padded
/// buffer space: overhang rows are never read back (reads reach at most
/// one row past the previous diagonal's band, which the sentinel rewrite
/// covers), and the argmax scans exactly the `width` in-band values.
#[cfg(target_arch = "x86_64")]
macro_rules! wavefront_i16_kernel {
    ($fname:ident, $feature:literal, $lanes:expr, $vec:ty,
     $loadu:ident, $storeu:ident, $adds:ident, $subs:ident, $max:ident, $set1:ident) => {
        // SAFETY: dispatched only after a runtime probe of `$feature`;
        // vector loads/stores stay inside padded scratch buffers.
        #[target_feature(enable = $feature)]
        unsafe fn $fname(
            tcodes: &[u8],
            qcodes: &[u8],
            lut16: &[i16; 64],
            oe: i16,
            ext: i16,
            band: usize,
            scratch: &mut SimdScratch,
        ) -> BandedOutcome {
            use std::arch::x86_64::*;
            const LANES: usize = $lanes;
            let (n, m) = (tcodes.len(), qcodes.len());

            let SimdScratch {
                v_pprev,
                v_prev,
                v_cur,
                e_prev,
                e_cur,
                f_prev,
                f_cur,
                scores,
                fallback: _,
            } = scratch;
            // Pad by LANES_MAX so a full-width final vector may read and
            // write past row hi+1 without leaving the buffer.
            let len = m + 2 + LANES_MAX;
            for buf in [
                &mut *v_pprev, &mut *v_prev, &mut *v_cur, &mut *e_prev, &mut *e_cur,
                &mut *f_prev, &mut *f_cur, &mut *scores,
            ] {
                if buf.len() < len {
                    buf.resize(len, 0);
                }
            }
            // Boundary state feeding diagonal 2, as in the i32 kernel.
            v_prev[0] = 0;
            v_prev[1] = 0;
            e_prev[0] = NEG_INF_I16;
            e_prev[1] = NEG_INF_I16;
            f_prev[0] = NEG_INF_I16;
            f_prev[1] = NEG_INF_I16;
            v_pprev[0] = 0;
            v_pprev[1] = 0;

            let mut best = 0i16;
            let (mut best_i, mut best_j) = (0usize, 0usize);
            let mut cells = 0u64;

            let voe = $set1(oe);
            let vext = $set1(ext);

            for d in 2..=(m + n) {
                let lo_seq = if d > n { d - n } else { 1 };
                let lo_band = if d > band { (d - band).div_ceil(2) } else { 1 };
                let lo = lo_seq.max(lo_band).max(1);
                let hi = m.min(d - 1).min((d + band) / 2);
                if lo > hi {
                    break;
                }
                let width = hi - lo + 1;
                cells += width as u64;

                // Stage substitution scores for the diagonal (scalar
                // gather; the target runs backwards as the row advances).
                let ts = &tcodes[d - hi - 1..d - lo];
                let qs = &qcodes[lo - 1..hi];
                let sc = &mut scores[..width];
                for k in 0..width {
                    sc[k] =
                        lut16[(((ts[width - 1 - k] as usize) << 3) | qs[k] as usize) & 63];
                }

                // The vectorised systolic update: all rows of the
                // diagonal step together, LANES at a time.
                let vp = v_prev.as_ptr();
                let ep = e_prev.as_ptr();
                let fp = f_prev.as_ptr();
                let dp = v_pprev.as_ptr();
                let sp = scores.as_ptr();
                let vcp = v_cur.as_mut_ptr();
                let ecp = e_cur.as_mut_ptr();
                let fcp = f_cur.as_mut_ptr();
                let mut k = 0usize;
                while k < width {
                    // SAFETY: every pointer stays in bounds — row indices
                    // are at most hi + 1 + LANES <= m + 1 + LANES_MAX < len,
                    // and score indices at most width - 1 + LANES < len.
                    unsafe {
                        let vl = $loadu(vp.add(lo + k) as *const $vec);
                        let el = $loadu(ep.add(lo + k) as *const $vec);
                        let vu = $loadu(vp.add(lo - 1 + k) as *const $vec);
                        let fu = $loadu(fp.add(lo - 1 + k) as *const $vec);
                        let vd = $loadu(dp.add(lo - 1 + k) as *const $vec);
                        let sub = $loadu(sp.add(k) as *const $vec);
                        let e = $max($subs(vl, voe), $subs(el, vext));
                        let f = $max($subs(vu, voe), $subs(fu, vext));
                        let zero = $set1(0);
                        let val = $max($max($adds(vd, sub), $max(e, f)), zero);
                        $storeu(vcp.add(lo + k) as *mut $vec, val);
                        $storeu(ecp.add(lo + k) as *mut $vec, e);
                        $storeu(fcp.add(lo + k) as *mut $vec, f);
                    }
                    k += LANES;
                }

                // Sentinels for the one slot the next diagonals may read
                // beyond this diagonal's range (also repairs the row the
                // vector overhang clobbered at hi + 1).
                v_cur[lo - 1] = 0;
                e_cur[lo - 1] = NEG_INF_I16;
                f_cur[lo - 1] = NEG_INF_I16;
                v_cur[hi + 1] = 0;
                e_cur[hi + 1] = NEG_INF_I16;
                f_cur[hi + 1] = NEG_INF_I16;

                // Argmax with the scalar tie-break, over in-band rows
                // only — identical to the i32 kernel's scan.
                let vc = &v_cur[lo..=hi];
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
    };
}

#[cfg(target_arch = "x86_64")]
wavefront_i16_kernel!(
    wavefront_i16_sse2,
    "sse2",
    8,
    __m128i,
    _mm_loadu_si128,
    _mm_storeu_si128,
    _mm_adds_epi16,
    _mm_subs_epi16,
    _mm_max_epi16,
    _mm_set1_epi16
);

#[cfg(target_arch = "x86_64")]
wavefront_i16_kernel!(
    wavefront_i16_avx2,
    "avx2",
    16,
    __m256i,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_adds_epi16,
    _mm256_subs_epi16,
    _mm256_max_epi16,
    _mm256_set1_epi16
);

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
        let mut scratch = SimdScratch::new();
        let simd = banded_smith_waterman_simd(t, q, &w, &g, band, &mut scratch);
        assert_eq!(scalar, simd, "band={band} n={} m={}", t.len(), q.len());
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
    fn matches_scalar_across_lane_boundary_lengths() {
        // Tile lengths straddling the 8- and 16-lane boundaries: the
        // final vector of a diagonal is empty / one lane / full.
        let base = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(3);
        for len in [7usize, 8, 9, 15, 16, 17, 31, 32, 33, 48] {
            let t = seq(&base[..len]);
            let q = seq(&base[..len.min(base.len())]);
            for band in [1, 8, 16, 64] {
                assert_identical(&t.to_bases(), &q.to_bases(), band);
            }
        }
    }

    #[test]
    fn matches_scalar_on_homopolymer_ties() {
        let t = seq(&"A".repeat(50));
        let q = seq(&"A".repeat(47));
        for band in [1, 3, 16, 64] {
            assert_identical(&t.to_bases(), &q.to_bases(), band);
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
    fn oversized_tiles_fall_back_to_i32_and_still_match() {
        // 400 x 400 at max match 100 exceeds the i16 bound (40000), so
        // the tile must route to the exact i32 kernel.
        let (w, g) = dw();
        let t = seq(&"ACGT".repeat(100));
        let batch = BswSimdBatch::new(&w, &g, 32);
        assert!(!batch.tile_uses_simd(400, 400));
        assert!(batch.tile_uses_simd(320, 320));
        let mut scratch = SimdScratch::new();
        let out = batch.run_tile(Base::codes_of(&t.to_bases()), Base::codes_of(&t.to_bases()), &mut scratch);
        let scalar = banded_smith_waterman(&t.to_bases(), &t.to_bases(), &w, &g, 32);
        assert_eq!(out, scalar);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let (w, g) = dw();
        let t = seq("ACGT");
        let mut scratch = SimdScratch::new();
        let out = banded_smith_waterman_simd(&t.to_bases(), &[], &w, &g, 4, &mut scratch);
        assert_eq!(out, BandedOutcome::default());
        let out = banded_smith_waterman_simd(&[], &t.to_bases(), &w, &g, 4, &mut scratch);
        assert_eq!(out, BandedOutcome::default());
    }

    #[test]
    fn scratch_reuse_across_differently_sized_tiles() {
        let mut scratch = SimdScratch::new();
        let (w, g) = dw();
        for len in [1usize, 7, 64, 3, 320, 5, 17] {
            let t = seq(&"ACGGTCAGT".repeat(len.div_ceil(9))[..len]);
            let q = seq(&"ACGGTCTGT".repeat(len.div_ceil(9))[..len]);
            let scalar = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, 32);
            let simd =
                banded_smith_waterman_simd(&t.to_bases(), &q.to_bases(), &w, &g, 32, &mut scratch);
            assert_eq!(scalar, simd, "len={len}");
        }
    }

    #[test]
    fn lanes_reports_a_supported_width() {
        let (w, g) = dw();
        let batch = BswSimdBatch::new(&w, &g, 4);
        if cfg!(target_arch = "x86_64") && !simd_disabled_by_env() {
            assert!(batch.lanes() == 8 || batch.lanes() == 16);
        } else {
            assert_eq!(batch.lanes(), 0);
        }
    }
}
