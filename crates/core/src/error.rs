//! Typed errors for the whole-genome-alignment pipeline.
//!
//! Library code in `wga-core` reports failures through [`WgaError`]
//! instead of panicking: bad configurations, malformed inputs, I/O
//! failures, and checkpoint-journal problems all surface as values the
//! caller (the `wga` CLI, a service, a test harness) can handle. Panics
//! are reserved for programmer errors (violated invariants), and even
//! those are contained per worker batch / per chromosome pair by the
//! execution layer (see `stages::filter_batch` and
//! [`crate::genome_pipeline`]).

use std::fmt;
use std::io;

/// Convenience alias for results carrying a [`WgaError`].
pub type WgaResult<T> = Result<T, WgaError>;

/// Error produced by the pipeline, the assembly driver, or the
/// checkpoint journal.
#[derive(Debug)]
pub enum WgaError {
    /// The pipeline configuration is degenerate (zero band width, zero
    /// seed-pattern weight, negative extension threshold, …).
    Config(String),
    /// An input file or record is malformed.
    Input {
        /// What was being read (usually a path).
        context: String,
        /// Why it was rejected.
        message: String,
    },
    /// An underlying I/O operation failed.
    Io {
        /// What was being accessed (usually a path).
        context: String,
        /// The originating I/O error.
        source: io::Error,
    },
    /// The checkpoint journal is unusable (corrupt record, or written by
    /// a run with different parameters).
    Checkpoint {
        /// Journal path.
        path: String,
        /// Why it was rejected.
        message: String,
    },
}

impl WgaError {
    /// Builds a [`WgaError::Config`].
    pub fn config(message: impl Into<String>) -> WgaError {
        WgaError::Config(message.into())
    }

    /// Builds a [`WgaError::Input`].
    pub fn input(context: impl Into<String>, message: impl Into<String>) -> WgaError {
        WgaError::Input {
            context: context.into(),
            message: message.into(),
        }
    }

    /// Builds a [`WgaError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> WgaError {
        WgaError::Io {
            context: context.into(),
            source,
        }
    }

    /// Builds a [`WgaError::Checkpoint`].
    pub fn checkpoint(path: impl Into<String>, message: impl Into<String>) -> WgaError {
        WgaError::Checkpoint {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for WgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WgaError::Config(message) => write!(f, "invalid configuration: {message}"),
            WgaError::Input { context, message } => write!(f, "{context}: {message}"),
            WgaError::Io { context, source } => write!(f, "{context}: {source}"),
            WgaError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
        }
    }
}

impl std::error::Error for WgaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WgaError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = WgaError::config("band must be positive");
        assert_eq!(e.to_string(), "invalid configuration: band must be positive");
        let e = WgaError::input("x.fa", "no records");
        assert_eq!(e.to_string(), "x.fa: no records");
        let e = WgaError::checkpoint("run.journal", "parameter mismatch");
        assert_eq!(e.to_string(), "checkpoint run.journal: parameter mismatch");
    }

    #[test]
    fn io_preserves_source() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = WgaError::io("run.journal", inner);
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
