//! The `repro` binary end to end: the artefacts that need no alignment
//! print the paper's numbers, and bad arguments fail before anything
//! runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table4_prints_the_papers_asic_totals() {
    let text = stdout(&repro(&["table4"]));
    let total = text
        .lines()
        .find(|l| l.trim_start().starts_with("Total"))
        .expect("a Total row");
    assert!(
        total.contains("35.92") && total.contains("43.34"),
        "{total}"
    );
}

#[test]
fn fig1_prints_the_quadratic_growth() {
    let text = stdout(&repro(&["fig1"]));
    assert!(
        text.contains("assemblies grew 7.4x but candidate pairwise WGAs grew 55.5x"),
        "{text}"
    );
}

/// Fig. 9's region is built so that no gap-free block reaches the
/// ungapped stage's 30 bp: on every seed the gapped filter alone keeps
/// the exon.
#[test]
fn fig9_recovers_the_exon_on_every_seed() {
    for seed in 1..=20 {
        let text = stdout(&repro(&["fig9", &seed.to_string()]));
        assert!(
            text.contains("The gapped filter recovered the exon that ungapped filtering lost"),
            "seed {seed}:\n{text}"
        );
    }
}

#[test]
fn help_lists_every_artefact() {
    let text = stdout(&repro(&["--help"]));
    for name in [
        "fig1",
        "fig2",
        "fig3",
        "fig8",
        "fig9",
        "fig10",
        "table3",
        "table4",
        "table5",
        "noise",
        "exons",
        "ablations",
    ] {
        assert!(
            text.contains(&format!("\n  {name} ")),
            "{name} missing from\n{text}"
        );
    }
}

#[test]
fn bad_arguments_fail_with_the_usage_text() {
    for (args, error) in [
        (&["fig11"][..], "error: unknown artefact 'fig11'"),
        (&[], "error: no artefact given"),
        (
            &["table3", "6000O"],
            "error: '6000O' is not a positive integer",
        ),
        (
            &["noise", "20000", "0"],
            "error: '0' is not a positive integer",
        ),
        (
            &["fig1", "5"],
            "error: too many arguments: 1 given, at most 0 taken",
        ),
        (
            &["table5", "1", "2"],
            "error: too many arguments: 2 given, at most 1 taken",
        ),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(stderr.starts_with(error), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro <artefact>"),
            "{args:?}: {stderr}"
        );
    }
}
