//! Chaining and sensitivity metrics for the Darwin-WGA reproduction.
//!
//! Post-processes raw whole-genome alignments into *chains* — the
//! AXTCHAIN role described in §II — using the UCSC `-linearGap=loose`
//! gap-cost schedule ([`gapcost`]), and computes the paper's sensitivity
//! and noise metrics on them ([`metrics`]): top-k chain scores, matched
//! base pairs, exon recovery, the Fig. 2 block-length distribution and
//! the shuffled-genome false-positive rate.
//!
//! # Quick start
//!
//! ```
//! use align::{AlignOp, Alignment, Cigar};
//! use chain::{chainer::chain_alignments, metrics};
//!
//! let mut c = Cigar::new();
//! c.push(AlignOp::Match, 100);
//! let alignments = vec![
//!     Alignment::new(0, 0, c.clone(), 9_000),
//!     Alignment::new(150, 140, c.clone(), 9_000),
//! ];
//! let chains = chain_alignments(&alignments, 3_000);
//! assert_eq!(chains.len(), 1);
//! assert_eq!(metrics::matched_bases(&chains, &alignments), 200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod browser;
pub mod chainer;
pub mod gapcost;
pub mod metrics;
pub mod phylo;

pub use chainer::{chain_alignments, Chain};
pub use gapcost::LooseGapCost;
