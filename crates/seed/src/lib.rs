//! Seeding substrate for the Darwin-WGA reproduction.
//!
//! Implements the seeding stage of the seed–filter–extend pipeline:
//! spaced seed patterns with optional transition tolerance ([`pattern`]),
//! a seed table indexing the target genome ([`table`]), and the modified
//! D-SOFT diagonal-band seeding of §III-B ([`dsoft`]).
//!
//! # Quick start
//!
//! ```
//! use genome::Sequence;
//! use seed::{dsoft::{dsoft_seeds, DsoftParams}, pattern::SeedPattern, table::SeedTable};
//!
//! let target: Sequence = "TTTTTTTTACGGTCAGTCGATTGCAGTCTTTTTTTT".parse()?;
//! let query: Sequence = "GGGGACGGTCAGTCGATTGCAGTCGGGG".parse()?;
//!
//! let pattern = SeedPattern::lastz_default();
//! let table = SeedTable::build(&target, &pattern, 1000);
//! let seeds = dsoft_seeds(&table, &query, &DsoftParams::default());
//! assert_eq!(seeds.hits[0].target_pos, 8);
//! # Ok::<(), genome::ParseBaseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dsoft;
pub mod hit;
pub mod pattern;
pub mod table;

pub use dsoft::{dsoft_seeds, DsoftParams, DsoftResult};
pub use hit::{Anchor, SeedHit};
pub use pattern::SeedPattern;
pub use table::SeedTable;
