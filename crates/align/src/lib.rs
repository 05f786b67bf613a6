//! Alignment algorithms for the Darwin-WGA reproduction.
//!
//! The crate layers, bottom-up:
//!
//! * reference dynamic programming — [`sw`] (local, Gotoh affine) and
//!   [`nw`] (global) — used as exact oracles in tests;
//! * the two *filtering* kernels the paper compares — [`ungapped`]
//!   (LASTZ's X-drop ungapped extension) and [`banded`] (Darwin-WGA's
//!   banded Smith-Waterman, "BSW") — plus [`bsw_fast`], the batched
//!   wavefront BSW engine that mirrors the systolic array's
//!   anti-diagonal dataflow and is bit-identical to [`banded`], and
//!   [`bsw_simd`], the explicit 16-lane `i16` SIMD transcription of the
//!   same wavefront (bit-identical again, with an exact `i32` fallback);
//! * the *extension* algorithms — [`xdrop`] (the per-tile X-drop kernel)
//!   and [`gactx`] (GACT-X tiled extension, the paper's contribution),
//!   whose tiling parameters also give the prior Darwin algorithm GACT
//!   that Fig. 10 compares against and the LASTZ baseline's untiled
//!   Y-drop extension.
//!
//! # Quick start
//!
//! ```
//! use align::gactx::{extend_alignment, TilingParams};
//! use genome::{GapPenalties, Sequence, SubstitutionMatrix};
//!
//! let t: Sequence = "TTTTACGTACGTACGTTTTT".parse()?;
//! let q: Sequence = "GGGGACGTACGTACGTGGGG".parse()?;
//! let a = extend_alignment(
//!     &t, &q, 10, 10,
//!     &SubstitutionMatrix::darwin_wga(),
//!     &GapPenalties::darwin_wga(),
//!     &TilingParams::gactx_default(),
//! ).expect("an alignment");
//! assert_eq!(a.alignment.matches(), 12);
//! # Ok::<(), genome::ParseBaseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alignment;
pub mod banded;
pub mod bsw_fast;
pub mod bsw_simd;
pub mod cigar;
pub mod gactx;
pub mod nw;
pub mod sw;
pub mod ungapped;
pub mod xdrop;

pub use alignment::Alignment;
pub use cigar::{AlignOp, Cigar};
