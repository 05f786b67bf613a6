//! Integration tests for the `wga profile` trace-analysis subsystem
//! (`wga-profile`), driven end-to-end through real pipeline runs.
//!
//! Pinned contracts:
//!
//! 1. **Determinism** — one trace always produces byte-identical
//!    `profile_report.json`, and the JSON is integer-only.
//! 2. **Schema compatibility** — headerless traces parse as schema 1;
//!    traces declaring a major above the writer's are rejected.
//! 3. **The trace counts what the report does** — every counter of a
//!    real run's trace equals the report field it is folded from, on
//!    both schedules, a run resumed from a checkpoint journal included;
//!    so the report's modeled cycles are the report's workload's.
//! 4. **The diff gate** — a report diffed against itself passes; a
//!    perturbed report trips the thresholds.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::obs::{Counter, Obs, TraceRecorder};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::hwsim;
use darwin_wga::profile::{diff, Attribution, ProfileReport, TraceFile};
use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn load_assembly(name: &str, file: &str) -> Assembly {
    let path = data_dir().join(file);
    let reader = BufReader::new(fs::File::open(&path).expect("golden FASTA present"));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

/// Runs the golden workload with a recorder and returns the serialised
/// trace.
fn golden_trace(threads: usize) -> String {
    traced_run(&AlignOptions {
        threads,
        ..AlignOptions::default()
    })
    .1
}

/// The golden workload under any options: its report and its trace.
fn traced_run(options: &AlignOptions) -> (AssemblyReport, String) {
    let target = load_assembly("golden-target", "golden.target.fa");
    let query = load_assembly("golden-query", "golden.query.fa");
    let recorder = TraceRecorder::new();
    let obs = Obs::new(&recorder);
    let report = align_assemblies_observed(&WgaParams::darwin_wga(), &target, &query, options, obs)
        .expect("golden run succeeds");
    let mut out = Vec::new();
    recorder.write_trace(&mut out).expect("trace writes");
    (report, String::from_utf8(out).expect("trace is UTF-8"))
}

/// The thread counts every counter check runs on: the one-thread loop
/// and the dataflow executor.
const SCHEDULES: [usize; 2] = [1, 3];

/// Every counter of `trace` equals the report field it is folded from,
/// and the profile report models the report's own workload.
fn assert_counters_equal_report(trace: &str, report: &AssemblyReport, run: &str) {
    let trace = TraceFile::parse(trace).expect("parses");
    let (work, funnel) = (&report.workload, &report.counters);
    for counter in Counter::ALL {
        let expected = match counter {
            Counter::PairsDone => report.pairs.len() as u64,
            Counter::FilterTiles => work.filter_tiles,
            Counter::FilterCells => funnel.filter_cells,
            Counter::AnchorsPassed => funnel.anchors_passed,
            Counter::ExtensionTiles => work.extension_tiles,
            Counter::ExtensionCells => work.extension_cells,
            Counter::ExtensionRows => work.extension_rows,
            Counter::AlignmentsKept => funnel.alignments_kept,
        };
        assert_eq!(
            trace.counter(counter.as_str()),
            expected,
            "{run}: {}",
            counter.as_str()
        );
    }
    assert_eq!(report.pairs.len(), 4, "{run}");
    assert!(work.filter_tiles > 0 && work.extension_rows > 0, "{run}");
    assert_eq!(
        ProfileReport::build(&trace, 5).modeled,
        hwsim::perf::modeled_cycles(work, &hwsim::AcceleratorConfig::fpga()),
        "{run}"
    );
}

#[test]
fn report_json_is_byte_identical_for_one_trace() {
    let trace_text = golden_trace(1);
    let a = ProfileReport::build(&TraceFile::parse(&trace_text).expect("parses"), 5).to_json();
    let b = ProfileReport::build(&TraceFile::parse(&trace_text).expect("parses"), 5).to_json();
    assert_eq!(a, b, "same trace must yield byte-identical reports");
    // Integer-only: no digit.digit token anywhere in the artifact.
    let bytes = a.as_bytes();
    for i in 1..bytes.len() - 1 {
        if bytes[i] == b'.' {
            assert!(
                !(bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit()),
                "float-looking value in report JSON"
            );
        }
    }
}

#[test]
fn fresh_run_trace_counters_equal_the_report_on_every_executor() {
    for threads in SCHEDULES {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let (report, trace) = traced_run(&options);
        assert_counters_equal_report(&trace, &report, &format!("--threads {threads}"));
    }
}

/// A run resumed from a journal cut to 2 of its 4 records: the replayed
/// pairs count in the trace as journaled, as they do in the report.
#[test]
fn resumed_run_trace_counters_equal_the_report_on_every_executor() {
    let golden = fs::read_to_string(data_dir().join("golden.journal")).expect("golden journal");
    let cut: String = golden
        .lines()
        .take(3)
        .map(|line| format!("{line}\n"))
        .collect();
    for threads in SCHEDULES {
        let path = std::env::temp_dir().join(format!(
            "wga-profile-resume-{}-{threads}.journal",
            std::process::id()
        ));
        fs::write(&path, &cut).expect("journal copy");
        let options = AlignOptions {
            threads,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        let (report, trace) = traced_run(&options);
        let _ = fs::remove_file(&path);
        assert_eq!(report.resumed_pairs, 2, "--threads {threads}");
        assert_counters_equal_report(&trace, &report, &format!("--threads {threads} resumed"));
    }
}

#[test]
fn attribution_reconstructs_the_timeline() {
    let trace = TraceFile::parse(&golden_trace(3)).expect("parses");
    let attr = Attribution::compute(&trace, 5);
    assert_eq!(attr.pairs, 4, "golden workload has 4 chromosome pairs");
    let critical = attr.critical.expect("critical path over a real run");
    assert!(critical.total_us > 0);
    assert!(attr.wall_us >= critical.filter_us);
    assert!(
        attr.workers.len() >= 2,
        "threaded dataflow uses several workers"
    );
    assert!(
        attr.workers.iter().any(|w| w.wait_us > 0),
        "dataflow workers must record queue waits"
    );
    assert!(!attr.top_filter_batches.is_empty());
    let t = &attr.top_filter_batches;
    assert!(
        t.windows(2).all(|w| w[0].dur_us >= w[1].dur_us),
        "top-K is sorted slowest-first"
    );
    let share_sum = attr.seed_share_centi + attr.filter_share_centi + attr.extend_share_centi;
    assert!(
        share_sum <= 10_000,
        "shares are centi-percent of stage time"
    );
}

#[test]
fn headerless_trace_parses_as_schema_1_and_unknown_major_is_rejected() {
    let with_header = golden_trace(1);
    let headerless: String = with_header
        .lines()
        .filter(|l| !l.starts_with("{\"schema\""))
        .map(|l| format!("{l}\n"))
        .collect();
    let t = TraceFile::parse(&headerless).expect("schema-1 trace parses");
    assert_eq!(t.schema, 1);

    let future = with_header.replacen("{\"schema\":2}", "{\"schema\":3}", 1);
    let err = TraceFile::parse(&future).expect_err("future major rejected");
    assert!(
        err.to_string().contains("unsupported trace schema"),
        "{err}"
    );
}

#[test]
fn diff_gate_passes_self_and_fails_perturbation() {
    let trace_text = golden_trace(1);
    let json = ProfileReport::build(&TraceFile::parse(&trace_text).expect("parses"), 5).to_json();
    let summary = diff::ReportSummary::from_json(&json).expect("summary parses");
    let thresholds = diff::Thresholds::default();
    assert!(diff::diff(&summary, &summary, &thresholds).is_pass());

    // A share regression beyond the threshold fails the gate.
    let mut worse = summary;
    worse.extend_centi = summary.extend_centi + thresholds.share_regression_centi + 1;
    let outcome = diff::diff(&summary, &worse, &thresholds);
    assert!(!outcome.is_pass());
    assert!(outcome.render().contains("REGRESSION: extend share"));
}
