//! `layers` on an 8 kb pair: its replica of the pipeline and the
//! program's own trace agree exactly, and every per-layer metric is
//! reported.

use std::path::PathBuf;
use wga_ledger::dict;
use wga_ledger::inputs::scrubbed_command;
use wga_ledger::paths::Paths;

#[test]
fn the_replica_equals_the_trace_on_an_8kb_pair() {
    let paths = Paths::locate();
    paths.build_wga().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("layers-replica");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let generated = scrubbed_command(&paths.wga(), &dir)
        .args([
            "generate",
            "small",
            "--len",
            "8000",
            "--distance",
            "0.25",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(generated.status.success());

    let output = scrubbed_command(env!("CARGO_BIN_EXE_layers").as_ref(), &dir)
        .args([
            "--kind",
            "align",
            "--threads",
            "1",
            "--executor",
            "barrier",
            "small.target.fa",
            "small.query.fa",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.starts_with("check:") && l.ends_with(": equal"))
            .count(),
        5,
        "{stdout}"
    );
    assert!(!stdout.contains("DIFFERENT"));

    let value = |name: &str| -> f64 {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("metric\t{name}\t")))
            .unwrap_or_else(|| panic!("no {name}"));
        line.rsplit('\t').next().unwrap().parse().unwrap()
    };
    for metric in &dict::PER_LAYER {
        assert!(value(metric.name).is_finite(), "{}", metric.name);
    }
    assert!(
        value("align.bsw.tiles") > 0.0
            && value("align.gactx.cells") > 0.0
            && value("chain.chainer.alignments_in") > 0.0
    );
    assert_eq!(
        value("trace.spec_discard"),
        0.0,
        "nothing speculates at one thread"
    );
    assert_eq!(value("core.pangenome.pairs"), 0.0, "not a many-genome run");
}
