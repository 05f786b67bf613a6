//! The 16-bit lanes of the wavefront BSW (§IV).
//!
//! The paper's systolic array updates every cell of an anti-diagonal in
//! the same cycle. [`crate::bsw_fast`] transcribes that dataflow into one
//! band sweep; this module is its diagonal update, in explicit
//! `std::arch` intrinsics over saturating `i16` lanes — eight per SSE2
//! vector, sixteen per AVX2 vector — which is the lane layout real CPU
//! Smith-Waterman engines use.
//!
//! # Exactness
//!
//! The `i16` update is bit-identical to the scalar reference's `i32`
//! arithmetic whenever the guard below holds, because:
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
//! [`crate::bsw_fast::BswBatch`] checks the guard per tile
//! ([`crate::bsw_fast::BswBatch::tile_uses_simd`]); tiles that fail it
//! (oversized tiles, oversized scores or penalties, a non-x86-64 host)
//! run the scalar reference itself,
//! [`crate::banded::banded_smith_waterman`]. The differential oracle in
//! `tests/bsw_differential.rs` holds the lanes to it.

#[cfg(target_arch = "x86_64")]
use {
    crate::banded::BandedOutcome,
    crate::bsw_fast::{sweep, Diagonals},
    genome::GapPenalties,
};

/// Runs one tile on the widest kernel the host offers: AVX2 (16 lanes)
/// where the run-time probe finds it, SSE2 (8) otherwise.
#[cfg(target_arch = "x86_64")]
pub(crate) fn wavefront_i16(
    tcodes: &[u8],
    qcodes: &[u8],
    lut16: &[i16; 64],
    gaps: &GapPenalties,
    band: usize,
    s: &mut Diagonals,
) -> BandedOutcome {
    let (oe, ext) = ((gaps.open + gaps.extend) as i16, gaps.extend as i16);
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the probe just above found AVX2, so the instructions
        // this function emits are supported.
        return unsafe { wavefront_i16_avx2(tcodes, qcodes, lut16, oe, ext, band, s) };
    }
    // SAFETY: SSE2 is part of the x86-64 baseline, guaranteed present on
    // every x86_64 target this cfg admits.
    unsafe { wavefront_i16_sse2(tcodes, qcodes, lut16, oe, ext, band, s) }
}

/// Runs one tile on the kernel of one lane width, named by its feature —
/// `"sse2"` (8 lanes) or `"avx2"` (16) — and not on the widest the host
/// offers, as [`wavefront_i16`] does; `None` where the host lacks the
/// feature or `feature` names neither. The differential tests call it
/// (through [`crate::bsw_fast::BswBatch::run_tile_i16`]) so that every
/// width runs in a test.
#[cfg(target_arch = "x86_64")]
pub(crate) fn wavefront_i16_width(
    feature: &str,
    tcodes: &[u8],
    qcodes: &[u8],
    lut16: &[i16; 64],
    gaps: &GapPenalties,
    band: usize,
    s: &mut Diagonals,
) -> Option<BandedOutcome> {
    let (oe, ext) = ((gaps.open + gaps.extend) as i16, gaps.extend as i16);
    match feature {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        "sse2" => Some(unsafe { wavefront_i16_sse2(tcodes, qcodes, lut16, oe, ext, band, s) }),
        "avx2" if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: the probe in the guard found AVX2.
            Some(unsafe { wavefront_i16_avx2(tcodes, qcodes, lut16, oe, ext, band, s) })
        }
        _ => None,
    }
}

/// Generates one `i16` kernel per instruction set: the shared sweep of
/// [`crate::bsw_fast`] — same band geometry, staging, sentinels and argmax
/// tie-break — with the diagonal update emitted as explicit saturating
/// `i16` vector ops. The last vector of each diagonal overhangs the band
/// edge into padded buffer space: overhang rows are never read back
/// (reads reach at most one row past the previous diagonal's band, which
/// the sentinel rewrite covers), and the argmax scans exactly the
/// in-band values.
#[cfg(target_arch = "x86_64")]
macro_rules! wavefront_i16_kernel {
    ($fname:ident, $feature:literal, $lanes:expr, $vec:ty,
     $loadu:ident, $storeu:ident, $adds:ident, $subs:ident, $max:ident, $set1:ident) => {
        /// # Safety
        ///
        /// The host must support the `target_feature` the kernel is
        /// compiled for ([`wavefront_i16`] probes it); the vector loads
        /// and stores then stay inside the sweep's padded buffers.
        #[target_feature(enable = $feature)]
        unsafe fn $fname(
            tcodes: &[u8],
            qcodes: &[u8],
            lut16: &[i16; 64],
            oe: i16,
            ext: i16,
            band: usize,
            s: &mut Diagonals,
        ) -> BandedOutcome {
            use std::arch::x86_64::*;
            let (voe, vext, zero) = ($set1(oe), $set1(ext), $set1(0));
            sweep(tcodes, qcodes, lut16, band, s, |s, lo, width| {
                // The vectorised systolic update: all rows of the
                // diagonal step together, $lanes at a time.
                let (vp, ep, fp) = (s.v_prev.as_ptr(), s.e_prev.as_ptr(), s.f_prev.as_ptr());
                let (dp, sp) = (s.v_pprev.as_ptr(), s.scores.as_ptr());
                let (vcp, ecp, fcp) = (
                    s.v_cur.as_mut_ptr(),
                    s.e_cur.as_mut_ptr(),
                    s.f_cur.as_mut_ptr(),
                );
                let mut k = 0;
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
                        let val = $max($max($adds(vd, sub), $max(e, f)), zero);
                        $storeu(vcp.add(lo + k) as *mut $vec, val);
                        $storeu(ecp.add(lo + k) as *mut $vec, e);
                        $storeu(fcp.add(lo + k) as *mut $vec, f);
                    }
                    k += $lanes;
                }
            })
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
