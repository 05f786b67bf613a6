//! # Darwin-WGA (reproduction)
//!
//! Umbrella crate for the reproduction of *"Darwin-WGA: A Co-processor
//! Provides Increased Sensitivity in Whole Genome Alignments with High
//! Speedup"* (Turakhia*, Goenka*, Bejerano, Dally — HPCA 2019).
//!
//! Re-exports the workspace crates:
//!
//! | Module | Contents |
//! |---|---|
//! | [`genome`] | Sequences, FASTA, scoring, synthetic evolution model, shuffling |
//! | [`align`] | SW/NW, banded SW (BSW), ungapped X-drop, GACT, GACT-X |
//! | [`seed`] | Spaced seeds, seed table, D-SOFT diagonal-band seeding |
//! | [`chain`] | AXTCHAIN-style chaining + sensitivity metrics, scored against the ground truth |
//! | [`hwsim`] | Systolic-array / FPGA / ASIC / DRAM cycle+power models |
//! | [`core`] | The Darwin-WGA pipeline and the LASTZ-like baseline |
//! | [`profile`] | Trace analysis: attribution, critical path, the traced workload's modeled cycles |
//!
//! # Quick start
//!
//! ```
//! use darwin_wga::core::{config::WgaParams, pipeline::WgaPipeline};
//! use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let pair = SyntheticPair::generate(20_000, &EvolutionParams::at_distance(0.2), &mut rng);
//! let report = WgaPipeline::new(WgaParams::darwin_wga())
//!     .run(&pair.target.sequence, &pair.query.sequence);
//! assert!(report.total_matches() > 5_000);
//! ```

#![warn(missing_docs)]

pub use align;
pub use chain;
pub use genome;
pub use hwsim;
pub use seed;
/// The Darwin-WGA pipeline crate (`wga-core`).
pub use wga_core as core;
/// Trace analysis for `--trace-out` artifacts (`wga-profile`).
pub use wga_profile as profile;
