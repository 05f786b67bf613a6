//! Manifest parsing and the linter's own error type.
//!
//! The manifest (`scripts/wga-lint.manifest`) is the single checked-in
//! source of truth for what the linter scans and what it tolerates:
//! which directories hold library code, which are exempt from the
//! panics rule, which must be panic-free with no baseline at all,
//! per-directory panic baselines, the module set that feeds
//! `canonical_text` (determinism rule), and what roots the `dead` rule's
//! search besides the entry points (`[entry-dirs]`, `[oracles]`).
//!
//! Format: `[section]` headers, one entry per line, `#` comments.
//! Baseline entries are `<dir> <count>`; an `[oracles]` entry must
//! carry a `# reason`. Paths are relative to the workspace root and use
//! `/` separators.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong in the linter. The lint crate holds
/// itself to its own panics rule (zero baseline), so every fallible
/// path returns this instead of unwrapping.
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
    /// Directory prefixes the panics rule skips entirely (bench code).
    pub panics_exempt: Vec<PathBuf>,
    /// Directory prefixes that must have *zero* panic sites — baselines
    /// do not apply here (the obs layer must never panic).
    pub panics_forbidden: Vec<PathBuf>,
    /// Per-directory allowed counts of pre-existing panic sites; the
    /// longest matching prefix wins. A directory not listed has
    /// baseline 0.
    pub panic_baselines: Vec<(PathBuf, usize)>,
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
                "panics-exempt" => cfg.panics_exempt.push(PathBuf::from(line)),
                "panics-forbidden" => cfg.panics_forbidden.push(PathBuf::from(line)),
                "baseline panics" => {
                    let (dir, count) = match line.rsplit_once(char::is_whitespace) {
                        Some((d, c)) => (d.trim(), c),
                        None => {
                            return Err(LintError::Manifest {
                                line: lineno,
                                msg: format!("baseline entry `{}` needs `<dir> <count>`", line),
                            });
                        }
                    };
                    let count: usize = match count.parse() {
                        Ok(c) => c,
                        Err(_) => {
                            return Err(LintError::Manifest {
                                line: lineno,
                                msg: format!("baseline count `{}` is not an integer", count),
                            });
                        }
                    };
                    cfg.panic_baselines.push((PathBuf::from(dir), count));
                }
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
        // Longest-prefix baseline lookup depends on order only for
        // ties; sort so equal manifests always resolve identically.
        cfg.panic_baselines.sort();
        Ok(cfg)
    }

    /// Baseline for `file` (a root-relative path): the longest
    /// `[baseline panics]` prefix that contains it, with its allowed
    /// count. Unlisted code has baseline 0 attributed to the nearest
    /// scan dir containing it (or the file's parent as a fallback).
    pub fn baseline_for(&self, file: &std::path::Path) -> (PathBuf, usize) {
        let mut best: Option<(&PathBuf, usize)> = None;
        for (dir, count) in &self.panic_baselines {
            if file.starts_with(dir) {
                let better = match best {
                    Some((b, _)) => dir.components().count() > b.components().count(),
                    None => true,
                };
                if better {
                    best = Some((dir, *count));
                }
            }
        }
        if let Some((dir, count)) = best {
            return (dir.clone(), count);
        }
        for dir in &self.scan_dirs {
            if file.starts_with(dir) {
                return (dir.clone(), 0);
            }
        }
        (
            file.parent().map(PathBuf::from).unwrap_or_default(),
            0,
        )
    }

    /// Whether `file` sits under any of the given directory prefixes.
    pub fn under_any(file: &std::path::Path, dirs: &[PathBuf]) -> bool {
        dirs.iter().any(|d| file.starts_with(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const SAMPLE: &str = "
# comment
[scan]
src
crates/core/src

[panics-exempt]
crates/bench/src

[panics-forbidden]
crates/core/src/obs

[baseline panics]
crates/core/src 3
src 2

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
        assert_eq!(cfg.panics_exempt.len(), 1);
        assert_eq!(cfg.panics_forbidden.len(), 1);
        assert_eq!(cfg.panic_baselines.len(), 2);
        assert_eq!(cfg.determinism_files.len(), 1);
        assert_eq!(cfg.determinism_exempt.len(), 1);
        assert_eq!(cfg.determinism_sinks, vec!["canonical_text", "paf_text"]);
        assert_eq!(cfg.entry_points, vec!["align_assemblies", "execute"]);
        assert_eq!(cfg.entry_dirs, vec![PathBuf::from("examples")]);
        assert_eq!(cfg.oracles, vec!["sw::smith_waterman"]);
    }

    #[test]
    fn longest_prefix_baseline_wins() {
        let text = "
[scan]
crates/core/src
[baseline panics]
crates/core/src 5
crates/core/src/dataflow 1
";
        let cfg = Config::parse(PathBuf::new(), text).unwrap();
        let (dir, n) = cfg.baseline_for(Path::new("crates/core/src/dataflow/executor.rs"));
        assert_eq!(dir, PathBuf::from("crates/core/src/dataflow"));
        assert_eq!(n, 1);
        let (dir, n) = cfg.baseline_for(Path::new("crates/core/src/lib.rs"));
        assert_eq!(dir, PathBuf::from("crates/core/src"));
        assert_eq!(n, 5);
    }

    #[test]
    fn unlisted_dir_gets_zero_baseline_at_scan_dir() {
        let text = "
[scan]
crates/genome/src
";
        let cfg = Config::parse(PathBuf::new(), text).unwrap();
        let (dir, n) = cfg.baseline_for(Path::new("crates/genome/src/fasta.rs"));
        assert_eq!(dir, PathBuf::from("crates/genome/src"));
        assert_eq!(n, 0);
    }

    #[test]
    fn rejects_orphan_entry_and_bad_section() {
        assert!(Config::parse(PathBuf::new(), "stray\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[nope]\nx\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[baseline panics]\nno-count\n").is_err());
        assert!(Config::parse(PathBuf::new(), "[oracles]\nsw::smith_waterman\n").is_err());
    }
}
