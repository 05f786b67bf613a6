//! CLI for `wga-lint`.
//!
//! ```text
//! cargo run -p wga-lint                         # all rules, repo root
//! cargo run -p wga-lint -- --rule panics        # one rule
//! cargo run -p wga-lint -- --json out.json      # report path override
//! ```
//!
//! Exit codes: 0 clean, 1 non-waived violations, 2 usage/IO/manifest
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use wga_lint::{config::LintError, report, Config, RULES};

struct Args {
    root: PathBuf,
    manifest: Option<PathBuf>,
    rules: Vec<&'static str>,
    json: Option<PathBuf>,
    no_json: bool,
}

const USAGE: &str = "wga-lint [--root DIR] [--manifest PATH] [--rule NAME]... \
[--json PATH] [--no-json]\n  rules: panics, determinism, taint, dead, deadlock \
(default: all)";

fn parse_args() -> Result<Args, LintError> {
    let mut args = Args {
        root: PathBuf::from("."),
        manifest: None,
        rules: Vec::new(),
        json: None,
        no_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => args.root = PathBuf::from(v),
                None => return Err(LintError::Usage(USAGE.into())),
            },
            "--manifest" => match it.next() {
                Some(v) => args.manifest = Some(PathBuf::from(v)),
                None => return Err(LintError::Usage(USAGE.into())),
            },
            "--rule" => match it.next() {
                Some(v) => match RULES.iter().find(|r| **r == v) {
                    Some(r) => args.rules.push(r),
                    None => {
                        return Err(LintError::Usage(format!("unknown rule `{}`\n{}", v, USAGE)));
                    }
                },
                None => return Err(LintError::Usage(USAGE.into())),
            },
            "--json" => match it.next() {
                Some(v) => args.json = Some(PathBuf::from(v)),
                None => return Err(LintError::Usage(USAGE.into())),
            },
            "--no-json" => args.no_json = true,
            "--help" | "-h" => return Err(LintError::Usage(USAGE.into())),
            other => {
                return Err(LintError::Usage(format!(
                    "unknown flag `{}`\n{}",
                    other, USAGE
                )));
            }
        }
    }
    if args.rules.is_empty() {
        args.rules = RULES.to_vec();
    }
    Ok(args)
}

fn run() -> Result<bool, LintError> {
    let args = parse_args()?;
    let manifest_path = args
        .manifest
        .clone()
        .unwrap_or_else(|| args.root.join("scripts/wga-lint.manifest"));
    let text = std::fs::read_to_string(&manifest_path).map_err(|e| LintError::Io {
        path: manifest_path,
        msg: e.to_string(),
    })?;
    let cfg = Config::parse(args.root.clone(), &text)?;
    let analysis = wga_lint::run(&cfg, &args.rules)?;
    print!("{}", report::human(&analysis));
    if !args.no_json {
        let path = args
            .json
            .unwrap_or_else(|| PathBuf::from("lint_report.json"));
        std::fs::write(&path, report::json(&analysis)).map_err(|e| LintError::Io {
            path,
            msg: e.to_string(),
        })?;
    }
    Ok(analysis.total_violations() == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::from(0),
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wga-lint: {}", e);
            ExitCode::from(2)
        }
    }
}
