//! Crash-only recovery, proven at every durability boundary.
//!
//! The checkpoint journal is the one recovery mechanism, so a crash at
//! any point where state becomes durable must resume into the output of
//! an uninterrupted run. A clean run counts the crash points: one
//! `journal.append` and one `journal.sync` per record its journal holds,
//! plus the `trace.sink` and the `metrics.sink`. Each point then gets a
//! run of its own whose `crash` fault aborts the `wga` process there
//! (`SIGABRT`), and a rerun of the same command, without the plan, on
//! the same `--checkpoint`, which must exit 0 with output bytes
//! identical to the clean run's — for `align`, `tests/data/golden.maf`.
//! Both subcommands run at one thread and at two.

#![cfg(unix)]

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The signal `std::process::abort` raises.
const SIGABRT: i32 = 6;

fn data(file: &str) -> String {
    format!("{}/tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wga-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One command under test: its arguments and the outputs it writes,
/// relative to the directory it runs in.
struct Case {
    args: Vec<String>,
    outputs: &'static [&'static str],
    /// `align` journals to one file, `many` to a directory of them.
    journal_dir: bool,
}

impl Case {
    fn align(threads: &str) -> Case {
        let args = [
            "align",
            &data("golden.target.fa"),
            &data("golden.query.fa"),
            "--maf",
            "out.maf",
            "--checkpoint",
            "ckpt",
        ];
        Case::new(&args, threads, &["out.maf"], false)
    }

    fn many(threads: &str) -> Case {
        let args = [
            "many",
            &data("golden.target.fa"),
            &data("golden.query.fa"),
            &data("golden_n.target.fa"),
            "--paf-out",
            "out.paf",
            "--report-out",
            "report.txt",
            "--checkpoint",
            "ckpt",
        ];
        Case::new(&args, threads, &["out.paf", "report.txt"], true)
    }

    fn new(
        args: &[&str],
        threads: &str,
        outputs: &'static [&'static str],
        journal_dir: bool,
    ) -> Case {
        let sinks = [
            "--threads",
            threads,
            "--trace-out",
            "t.jsonl",
            "--metrics-out",
            "m.json",
        ];
        Case {
            args: args.iter().chain(&sinks).map(|a| a.to_string()).collect(),
            outputs,
            journal_dir,
        }
    }

    fn run(&self, dir: &Path, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_wga"))
            .current_dir(dir)
            .args(&self.args)
            .args(extra)
            .output()
            .expect("spawn wga")
    }

    /// Every output's bytes, in `outputs` order.
    fn outputs(&self, dir: &Path) -> Vec<Vec<u8>> {
        (self.outputs.iter())
            .map(|name| fs::read(dir.join(name)).unwrap_or_default())
            .collect()
    }

    /// The records the run's journal holds: every line after each
    /// journal's header.
    fn journal_records(&self, dir: &Path) -> usize {
        let ckpt = dir.join("ckpt");
        let journals: Vec<PathBuf> = if self.journal_dir {
            (fs::read_dir(&ckpt).unwrap())
                .map(|entry| entry.unwrap().path())
                .collect()
        } else {
            vec![ckpt]
        };
        (journals.iter())
            .map(|path| fs::read_to_string(path).unwrap().lines().count() - 1)
            .sum()
    }
}

fn assert_success(out: &Output, label: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{label}: {stderr}");
}

/// Crashes `case` once at each crash point its clean run counts and
/// resumes each crash; `expected` pins the clean run's first output.
fn crash_at_every_point(name: &str, case: &Case, expected: Option<&[u8]>) {
    let clean_dir = empty_dir(&format!("{name}-clean"));
    assert_success(&case.run(&clean_dir, &[]), name);
    let clean = case.outputs(&clean_dir);
    assert!(clean.iter().all(|bytes| !bytes.is_empty()), "{name}");
    if let Some(expected) = expected {
        assert!(
            clean[0] == expected,
            "{name}: the clean run is not the golden output"
        );
    }
    let records = case.journal_records(&clean_dir);
    assert!(records > 0, "{name}");
    let _ = fs::remove_dir_all(&clean_dir);

    let journaled = (0..records).flat_map(|pair| {
        ["journal.append", "journal.sync"].map(|hook| format!(r#""hook":"{hook}","pair":{pair}"#))
    });
    let sinks = ["trace.sink", "metrics.sink"].map(|hook| format!(r#""hook":"{hook}""#));
    let points: Vec<String> = journaled.chain(sinks).collect();
    assert_eq!(points.len(), 2 * records + 2, "{name}");

    for point in &points {
        let label = format!("{name} crash at {{{point}}}");
        let dir = empty_dir(name);
        let plan = format!(
            r#"{{"format":"wga-fault-plan","version":1,"faults":[{{{point},"kind":"crash","at":[0]}}]}}"#
        );
        fs::write(dir.join("plan.json"), plan).unwrap();
        let crashed = case.run(&dir, &["--fault-plan", "plan.json"]);
        assert_eq!(
            (crashed.status.code(), crashed.status.signal()),
            (None, Some(SIGABRT)),
            "{label}: {}",
            String::from_utf8_lossy(&crashed.stderr)
        );
        assert_success(&case.run(&dir, &[]), &label);
        assert!(
            case.outputs(&dir) == clean,
            "{label}: the resumed output differs"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn align_resumes_from_a_crash_at_every_durability_boundary() {
    let golden = fs::read(data("golden.maf")).expect("golden.maf present");
    for threads in ["1", "2"] {
        let name = format!("align-t{threads}");
        crash_at_every_point(&name, &Case::align(threads), Some(&golden));
    }
}

#[test]
fn many_resumes_from_a_crash_at_every_durability_boundary() {
    for threads in ["1", "2"] {
        let name = format!("many-t{threads}");
        crash_at_every_point(&name, &Case::many(threads), None);
    }
}
