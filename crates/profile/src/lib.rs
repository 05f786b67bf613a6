//! Trace analysis for `wga --trace-out` artifacts (`wga profile`).
//!
//! PR 4's observability layer writes spans, funnel counters and log2
//! histograms as JSONL; this crate is the consumer that turns those
//! bytes into decisions:
//!
//! * [`trace`] — a streaming, schema-validated JSONL reader
//!   ([`TraceFile`]) that reconstructs the per-pair, per-stage timeline
//!   of `wga_core::obs::Span`s, each line read by the
//!   `wga_core::obs::TraceLine` that wrote it. Headerless traces parse
//!   as schema 1; traces tagged with a higher major than
//!   [`wga_core::obs::TRACE_SCHEMA`] are rejected.
//! * [`analyze`] — per-stage attribution (busy vs queue-wait vs idle
//!   per worker), a critical-path estimate through the
//!   seed → filter → extend chain of every pair, top-K slowest
//!   batches/tiles, and speculation/fault rollups.
//! * [`drift`] — the modeled-vs-measured engine: replays the workload
//!   shape extracted from the trace through hwsim's cycle models
//!   ([`hwsim::perf::replay_trace_workload`]) and scores the gap
//!   against the `hwsim.bsw`/`hwsim.gactx` spans the run recorded, in
//!   integer centi-percent. Deterministic given a trace — the CI drift
//!   gate's signal.
//! * [`report`] — [`ProfileReport`]: a deterministic, integer-only
//!   JSON artifact (`profile_report.json`) plus a human table.
//! * [`diff`] — per-stage regression thresholds between two reports
//!   (`wga profile diff old.json new.json`).
//!
//! Everything in this crate is integer arithmetic over data already in
//! the trace: no wall clocks, no floats, no hash-order iteration — the
//! discipline of the pipeline's canonical surface (`wga-lint` checks
//! the hash order), so one trace always produces one byte-exact report.

pub mod analyze;
pub mod diff;
pub mod drift;
pub mod report;
pub mod trace;

pub use analyze::Attribution;
pub use diff::{DiffOutcome, Thresholds};
pub use drift::Drift;
pub use report::ProfileReport;
pub use trace::TraceFile;

/// Error type for trace parsing and report handling: a message plus
/// the (1-based) trace line it arose on, when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError {
    /// What went wrong.
    pub msg: String,
    /// 1-based JSONL line number, 0 when not line-specific.
    pub line: usize,
}

impl ProfileError {
    /// An error tied to a trace line.
    pub fn at(line: usize, msg: impl Into<String>) -> ProfileError {
        ProfileError {
            msg: msg.into(),
            line,
        }
    }

    /// An error not tied to any line.
    pub fn msg(msg: impl Into<String>) -> ProfileError {
        ProfileError {
            msg: msg.into(),
            line: 0,
        }
    }
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ProfileError {}
