//! Genome substrate for the Darwin-WGA reproduction.
//!
//! This crate provides everything the aligner needs below the alignment
//! layer: the DNA alphabet and sequences, FASTA I/O, scoring matrices, a
//! dinucleotide-preserving shuffler (for the paper's
//! false-positive analysis), and a synthetic two-lineage evolution model
//! that substitutes for the real genome assemblies of Table I.
//!
//! # Quick start
//!
//! ```
//! use genome::evolve::{EvolutionParams, SyntheticPair};
//! use rand::SeedableRng;
//!
//! // A synthetic species pair at 0.2 substitutions/site.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let pair = SyntheticPair::generate(50_000, &EvolutionParams::at_distance(0.2), &mut rng);
//!
//! // Ground truth the paper never had:
//! let orthologs = pair.orthologous_pairs();
//! assert!(orthologs.len() > 40_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alphabet;
pub mod annotation;
pub mod assembly;
pub mod evolve;
pub mod fasta;
pub mod markov;
pub mod scoring;
pub mod sequence;
pub mod shuffle;

pub use alphabet::{Base, ParseBaseError};
pub use scoring::{GapPenalties, SubstitutionMatrix};
pub use sequence::Sequence;
