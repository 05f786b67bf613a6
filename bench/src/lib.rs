//! Shared, std-only parts of the performance ledger.
//!
//! Two binaries use this library. `ledger` drives the end-to-end runs
//! through the `wga` command line alone and imports nothing from the
//! aligner's crates; `layers` makes the traced per-layer run by calling
//! each layer's public functions. Everything both need — the workload and
//! metric dictionary, the estimators, the output checkers, process
//! accounting — lives here and depends on `std` only.

pub mod dict;
pub mod fasta;
pub mod inputs;
pub mod json;
pub mod paths;
pub mod stats;
pub mod sys;
pub mod verify;
