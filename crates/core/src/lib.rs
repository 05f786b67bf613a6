//! Darwin-WGA: sensitive whole-genome alignment with gapped filtering.
//!
//! This is the core crate of the Darwin-WGA (HPCA 2019) reproduction: the
//! complete seed–filter–extend pipeline with swappable stages.
//!
//! * **Darwin-WGA** ([`config::WgaParams::darwin_wga`]): D-SOFT seeding →
//!   banded Smith-Waterman *gapped* filtering → GACT-X extension.
//! * **LASTZ-like baseline** ([`config::WgaParams::lastz_baseline`]): the
//!   same seeding → X-drop *ungapped* filtering → software Y-drop
//!   extension.
//!
//! Replacing the middle stage is the paper's contribution: ungapped
//! filtering discards true homologies whose gap-free blocks are shorter
//! than ~30 matches, which is most of them for distant species pairs
//! (Fig. 2); gapped filtering keeps them at ~200× the software cost —
//! recovered by hardware acceleration, modelled in [`hwsim`].
//!
//! # Quick start
//!
//! ```
//! use genome::evolve::{EvolutionParams, SyntheticPair};
//! use rand::SeedableRng;
//! use wga_core::{config::WgaParams, pipeline::WgaPipeline};
//!
//! // A synthetic species pair standing in for ce11/cb4.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pair = SyntheticPair::generate(20_000, &EvolutionParams::at_distance(0.2), &mut rng);
//!
//! let report = WgaPipeline::new(WgaParams::darwin_wga())
//!     .run(&pair.target.sequence, &pair.query.sequence);
//! assert!(report.total_matches() > 5_000);
//! println!("found {} alignments", report.alignments.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absorb;
pub mod budget;
pub mod config;
pub mod dataflow;
pub mod durable;
pub mod error;
pub mod faultsim;
pub mod filter_engine;
pub mod genome_pipeline;
pub mod journal;
pub mod json;
pub mod maf;
pub mod obs;
pub mod pangenome;
pub mod pipeline;
pub mod report;
pub(crate) mod shard;
pub mod stages;
pub mod supervise;
mod sync;

pub use config::WgaParams;
pub use error::{WgaError, WgaResult};
pub use pipeline::WgaPipeline;
pub use report::{RunEvent, RunOutcome, Strand, WgaAlignment, WgaReport};
