//! Manifest parsing and the linter's own error type.
//!
//! The manifest (`scripts/wga-lint.manifest`) is the single checked-in
//! source of truth for what the linter scans and what it tolerates:
//! which directories hold the code every rule checks, the entry points
//! every reachability pass starts from,
//! the module set that feeds `canonical_text` and its classification
//! (determinism and taint rules), and what roots the `dead` rule's
//! search besides the entry points (`[entry-dirs]`, `[oracles]`).
//!
//! Format: `[section]` headers, one entry per line, `#` comments. An
//! `[oracles]` entry must carry a `# reason`. Paths are relative to the
//! workspace root and use `/` separators.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong in the linter. The lint crate holds
/// itself to its own panics rule, so every fallible path returns this
/// instead of unwrapping.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure reading a source file or writing the report.
    Io { path: PathBuf, msg: String },
    /// Malformed manifest line (1-based line number).
    Manifest { line: usize, msg: String },
    /// Bad command-line usage.
    Usage(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, msg } => {
                write!(f, "io error at {}: {}", path.display(), msg)
            }
            LintError::Manifest { line, msg } => {
                write!(f, "manifest line {}: {}", line, msg)
            }
            LintError::Usage(msg) => write!(f, "usage: {}", msg),
        }
    }
}

impl std::error::Error for LintError {}

/// Parsed manifest plus the resolved workspace root.
#[derive(Debug, Default)]
pub struct Config {
    /// Workspace root all manifest paths are relative to.
    pub root: PathBuf,
    /// Directories scanned for `.rs` files (recursively).
    pub scan_dirs: Vec<PathBuf>,
    /// Files whose code feeds `canonical_text`; the determinism rule
    /// runs only on these.
    pub determinism_files: Vec<PathBuf>,
    /// Directory prefixes that are *classified off* the canonical
    /// surface: reachable from entry points but justified to hold
    /// nondeterminism (orchestration, telemetry, tooling). The taint
    /// pass requires every entry-reachable file to be in
    /// `[determinism]` or under one of these prefixes.
    pub determinism_exempt: Vec<PathBuf>,
    /// Fn names treated as canonical-output sinks by the taint pass
    /// (e.g. `canonical_text`, `paf_text`).
    pub determinism_sinks: Vec<String>,
    /// Fn names treated as pipeline entry points: roots for the
    /// panic-reachability and taint BFS (e.g. `align_assemblies`,
    /// `execute`, `main`).
    pub entry_points: Vec<String>,
    /// Directories outside `[scan]` whose code calls into the scanned
    /// tree (examples, benchmarks). The `dead` rule lexes them for the
    /// names they mention, every one a root; no rule reports a site in
    /// them.
    pub entry_dirs: Vec<PathBuf>,
    /// `name`, `Type::name` or `module::name` of fns only tests call
    /// (references production is compared against, accessors a test
    /// binary observes it through): exempt from the `dead` rule and
    /// roots of its search, but not entry points of the panics or taint
    /// passes.
    pub oracles: Vec<String>,
}

impl Config {
    /// Parses manifest text. `root` is attached verbatim; paths inside
    /// stay relative until file walking joins them.
    pub fn parse(root: PathBuf, text: &str) -> Result<Config, LintError> {
        let mut cfg = Config {
            root,
            ..Config::default()
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(p) => raw[..p].trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                match rest.strip_suffix(']') {
                    Some(name) => {
                        section = name.trim().to_string();
                        continue;
                    }
                    None => {
                        return Err(LintError::Manifest {
                            line: lineno,
                            msg: format!("unterminated section header `{}`", line),
                        });
                    }
                }
            }
            match section.as_str() {
                "scan" => cfg.scan_dirs.push(PathBuf::from(line)),
                "determinism" => cfg.determinism_files.push(PathBuf::from(line)),
                "determinism-exempt" => cfg.determinism_exempt.push(PathBuf::from(line)),
                "determinism-sinks" => cfg.determinism_sinks.push(line.to_string()),
                "entry-points" => cfg.entry_points.push(line.to_string()),
                "entry-dirs" => cfg.entry_dirs.push(PathBuf::from(line)),
                "oracles" => {
                    let reason = raw.find('#').map_or("", |p| raw[p + 1..].trim());
                    if reason.is_empty() {
                        return Err(LintError::Manifest {
                            line: lineno,
                            msg: format!("oracle `{}` needs a `# reason`", line),
                        });
                    }
                    cfg.oracles.push(line.to_string());
                }
                "" => {
                    return Err(LintError::Manifest {
                        line: lineno,
                        msg: format!("entry `{}` before any [section]", line),
                    });
                }
                other => {
                    return Err(LintError::Manifest {
                        line: lineno,
                        msg: format!("unknown section `{}`", other),
                    });
                }
            }
        }
        Ok(cfg)
    }

    /// Whether `file` sits under any of the given directory prefixes.
    pub fn under_any(file: &std::path::Path, dirs: &[PathBuf]) -> bool {
        dirs.iter().any(|d| file.starts_with(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# comment
[scan]
src
crates/core/src

[determinism]
crates/genome/src/sequence.rs

[determinism-exempt]
crates/core/src/obs

[determinism-sinks]
canonical_text
paf_text

[entry-points]
align_assemblies
execute

[entry-dirs]
examples

[oracles]
sw::smith_waterman  # reference aligner
";

    #[test]
    fn parses_all_sections() {
        let cfg = Config::parse(PathBuf::from("/tmp"), SAMPLE).unwrap();
        assert_eq!(cfg.scan_dirs.len(), 2);
        assert_eq!(cfg.determinism_files.len(), 1);
        assert_eq!(cfg.determinism_exempt.len(), 1);
        assert_eq!(cfg.determinism_sinks, vec!["canonical_text", "paf_text"]);
        assert_eq!(cfg.entry_points, vec!["align_assemblies", "execute"]);
        assert_eq!(cfg.entry_dirs, vec![PathBuf::from("examples")]);
        assert_eq!(cfg.oracles, vec!["sw::smith_waterman"]);
    }

    #[test]
    fn rejects_orphan_entry_and_bad_section() {
        assert!(Config::parse(PathBuf::new(), "stray\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[nope]\nx\n").is_err());
        // The sections of the deleted per-directory panic policy are
        // unknown now, so a stale manifest fails loudly.
        assert!(Config::parse(PathBuf::new(), "[baseline panics]\nsrc 2\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[panics-forbidden]\nsrc\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[panics-exempt]\nsrc\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[oracles]\nsw::smith_waterman\n").is_err());
    }
}
