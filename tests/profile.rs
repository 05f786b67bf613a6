//! Integration tests for the `wga profile` trace-analysis subsystem
//! (`wga-profile`), driven end-to-end through real pipeline runs.
//!
//! Pinned contracts:
//!
//! 1. **Determinism** — one trace always produces byte-identical
//!    `profile_report.json`, and the JSON is integer-only.
//! 2. **Schema compatibility** — headerless traces parse as schema 1;
//!    traces declaring a major above the writer's are rejected.
//! 3. **Zero drift by construction** — a trace recorded by a real run
//!    (workload counters + hwsim spans from the same run) replays
//!    through the cycle models to exactly the recorded figures, a run
//!    resumed from a checkpoint journal included.
//! 4. **The diff gate** — a report diffed against itself passes; a
//!    perturbed report trips the thresholds.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::dataflow::ExecutorKind;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::obs::{Obs, TraceRecorder};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::hwsim;
use darwin_wga::profile::{diff, Attribution, Drift, ProfileReport, TraceFile};
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

/// Runs the golden workload with a recorder, emits the hwsim spans the
/// way `wga align` does, and returns the serialised trace.
fn golden_trace(threads: usize, executor: ExecutorKind) -> String {
    traced_run(&AlignOptions {
        threads,
        executor,
        ..AlignOptions::default()
    })
}

/// [`golden_trace`] under any options.
fn traced_run(options: &AlignOptions) -> String {
    let target = load_assembly("golden-target", "golden.target.fa");
    let query = load_assembly("golden-query", "golden.query.fa");
    let recorder = TraceRecorder::new();
    let obs = Obs::new(&recorder);
    let report = align_assemblies_observed(&WgaParams::darwin_wga(), &target, &query, options, obs)
        .expect("golden run succeeds");
    let modeled =
        hwsim::perf::modeled_cycles(&report.workload, &hwsim::AcceleratorConfig::fpga());
    obs.hwsim_spans(
        modeled.bsw_tiles,
        modeled.bsw_cycles,
        modeled.gactx_tiles,
        modeled.gactx_cycles,
    );
    let mut out = Vec::new();
    recorder.write_trace(&mut out).expect("trace writes");
    String::from_utf8(out).expect("trace is UTF-8")
}

#[test]
fn report_json_is_byte_identical_for_one_trace() {
    let trace_text = golden_trace(1, ExecutorKind::Barrier);
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
fn real_run_traces_have_zero_drift_on_every_executor() {
    for (threads, executor) in [
        (1, ExecutorKind::Barrier),
        (3, ExecutorKind::Barrier),
        (3, ExecutorKind::Dataflow),
    ] {
        let trace = TraceFile::parse(&golden_trace(threads, executor)).expect("parses");
        let drift = Drift::compute(&trace);
        assert!(drift.bsw.present && drift.gactx.present);
        assert_eq!(
            drift.max_gated_centi(),
            Some(0),
            "{executor:?}/{threads}t: trace-extracted workload must replay to the recorded cycles \
             (bsw {} vs {}, gactx {} vs {})",
            drift.bsw.recorded_cycles,
            drift.bsw.replayed_cycles,
            drift.gactx.recorded_cycles,
            drift.gactx.replayed_cycles,
        );
        // The extracted workload matches what the run measured.
        assert!(drift.workload.seeds > 0);
        assert!(drift.workload.filter_tiles > 0);
        assert!(drift.workload.extension_cells > 0);
        assert!(drift.workload.extension_rows > 0);
    }
}

/// A run resumed from a journal cut to 2 of its 4 records: the hwsim
/// spans model every pair of the report, replayed ones included, and so
/// must the trace's counters, or the drift gate fails a healthy run.
#[test]
fn resumed_run_trace_has_zero_drift_on_every_executor() {
    let golden = fs::read_to_string(data_dir().join("golden.journal")).expect("golden journal");
    let cut: String = golden.lines().take(3).map(|line| format!("{line}\n")).collect();
    for (threads, executor) in [(1, ExecutorKind::Barrier), (3, ExecutorKind::Dataflow)] {
        let path = std::env::temp_dir().join(format!("wga-profile-resume-{}-{threads}.journal", std::process::id()));
        fs::write(&path, &cut).expect("journal copy");
        let options = AlignOptions {
            threads,
            executor,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        let trace = TraceFile::parse(&traced_run(&options)).expect("parses");
        let _ = fs::remove_file(&path);
        let drift = Drift::compute(&trace);
        assert_eq!(
            drift.max_gated_centi(),
            Some(0),
            "{executor:?}/{threads}t: bsw {} vs {}, gactx {} vs {}",
            drift.bsw.recorded_cycles,
            drift.bsw.replayed_cycles,
            drift.gactx.recorded_cycles,
            drift.gactx.replayed_cycles,
        );
        assert_eq!(trace.counter("pairs.done"), 4, "{executor:?}/{threads}t");
    }
}

#[test]
fn attribution_reconstructs_the_timeline() {
    let trace = TraceFile::parse(&golden_trace(3, ExecutorKind::Dataflow)).expect("parses");
    let attr = Attribution::compute(&trace, 5);
    assert_eq!(attr.pairs, 4, "golden workload has 4 chromosome pairs");
    let critical = attr.critical.expect("critical path over a real run");
    assert!(critical.total_us > 0);
    assert!(attr.wall_us >= critical.filter_us);
    assert!(attr.workers.len() >= 2, "threaded dataflow uses several workers");
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
    assert!(share_sum <= 10_000, "shares are centi-percent of stage time");
}

#[test]
fn headerless_trace_parses_as_schema_1_and_unknown_major_is_rejected() {
    let with_header = golden_trace(1, ExecutorKind::Barrier);
    let headerless: String = with_header
        .lines()
        .filter(|l| !l.starts_with("{\"schema\""))
        .map(|l| format!("{l}\n"))
        .collect();
    let t = TraceFile::parse(&headerless).expect("schema-1 trace parses");
    assert_eq!(t.schema, 1);

    let future = with_header.replacen(
        "{\"schema\":2}",
        "{\"schema\":3}",
        1,
    );
    let err = TraceFile::parse(&future).expect_err("future major rejected");
    assert!(err.to_string().contains("unsupported trace schema"), "{err}");
}

#[test]
fn diff_gate_passes_self_and_fails_perturbation() {
    let trace_text = golden_trace(1, ExecutorKind::Barrier);
    let json = ProfileReport::build(&TraceFile::parse(&trace_text).expect("parses"), 5).to_json();
    let summary = diff::ReportSummary::from_json(&json).expect("summary parses");
    let thresholds = diff::Thresholds::default();
    assert!(diff::diff(&summary, &summary, &thresholds).is_pass());

    // A drift regression beyond the threshold fails the gate.
    let mut worse = summary;
    worse.gactx_drift_centi = Some(
        summary.gactx_drift_centi.unwrap_or(0) + thresholds.drift_regression_centi + 1,
    );
    let outcome = diff::diff(&summary, &worse, &thresholds);
    assert!(!outcome.is_pass());
    assert!(outcome.render().contains("REGRESSION"));

    // Losing the drift signal entirely also fails.
    let mut lost = summary;
    lost.bsw_drift_centi = None;
    assert!(!diff::diff(&summary, &lost, &thresholds).is_pass());
}
