//! The bytes of the artefacts `wga` writes, pinned.
//!
//! `tests/data/golden.journal`, `golden.trace.jsonl` and
//! `golden.profile_report.json` were written by the binary as it stood
//! before `wga_core::json` became the one JSON writer:
//!
//! ```text
//! wga align golden.target.fa golden.query.fa --threads 1 \
//!     --checkpoint golden.journal --trace-out golden.trace.jsonl
//! wga profile report golden.trace.jsonl --json golden.profile_report.json
//! ```
//!
//! Each must still read, and what reads it must render it back byte for
//! byte: a journal record with its CRC, every trace line through `obs`,
//! and the report of the fixture trace. The journal header and the
//! `--metrics-out` object of a fixed value are pinned as literals.
//!
//! The trace's two `hwsim.*` lines are modeled cycles the binary then
//! wrote as spans; the reader skips them. `golden.profile_report.json`
//! was rewritten by the same command when the report's `modeled` member
//! replaced its `drift` one (`profile_schema` 2);
//! `golden.profile_report.schema1.json` keeps the schema-1 bytes, which
//! `wga profile diff` still reads.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::dataflow::{ExecutorKind, ExecutorMetrics, StageMetrics};
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions};
use darwin_wga::core::journal::{params_fingerprint, Journal};
use darwin_wga::core::json;
use darwin_wga::core::obs::TraceLine;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::profile::{diff, ProfileReport, TraceFile};
use std::fs;
use std::path::PathBuf;

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

fn fixture(file: &str) -> String {
    fs::read_to_string(data(file)).expect("fixture present")
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("wga-bytes-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

fn load(name: &str, file: &str) -> Assembly {
    let reader = std::io::BufReader::new(fs::File::open(data(file)).expect("FASTA present"));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

#[test]
fn golden_journal_resumes_every_pair_into_the_golden_report() {
    let path = scratch("resume.journal");
    fs::copy(data("golden.journal"), &path).unwrap();
    let options = AlignOptions {
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let (target, query) = (load("t", "golden.target.fa"), load("q", "golden.query.fa"));
    let report = align_assemblies_with(&WgaParams::darwin_wga(), &target, &query, &options)
        .expect("the journal resumes");
    assert_eq!(report.resumed_pairs, 4);
    assert_eq!(report.canonical_text(), fixture("golden.report.txt"));
    let _ = fs::remove_file(&path);
}

/// The filter engine and the query range size change no output, so they
/// are not in the parameter fingerprint: a journal cut to 2 of its 4
/// records resumes into the golden report whichever engine and range
/// size wrote it and whichever resume it.
#[test]
fn a_journal_resumes_across_engines_and_range_sizes() {
    use darwin_wga::core::config::FilterEngineKind;
    let (target, query) = (load("t", "golden.target.fa"), load("q", "golden.query.fa"));
    let path = scratch("engines.journal");
    let run = |params: &WgaParams| {
        let options = AlignOptions {
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        align_assemblies_with(params, &target, &query, &options).expect("the journal resumes")
    };
    let cut = |text: &str| -> String {
        text.lines()
            .take(3)
            .map(|line| format!("{line}\n"))
            .collect()
    };
    let darwin = WgaParams::darwin_wga;
    let scalar = WgaParams {
        shard_bases: 512,
        ..darwin().with_filter_engine(FilterEngineKind::Scalar)
    };
    let fine = WgaParams {
        shard_bases: 128,
        ..darwin()
    };
    // Written by `scalar` at 512-base ranges, resumed at the defaults; the
    // fixture, written at the defaults, resumed at 128-base ranges.
    for (written, resumed) in [(Some(&scalar), darwin()), (None, fine)] {
        match written {
            Some(params) => {
                run(params);
                fs::write(&path, cut(&fs::read_to_string(&path).unwrap())).unwrap();
            }
            None => fs::write(&path, cut(&fixture("golden.journal"))).unwrap(),
        }
        let report = run(&resumed);
        assert_eq!(report.resumed_pairs, 2);
        assert_eq!(report.canonical_text(), fixture("golden.report.txt"));
        let _ = fs::remove_file(&path);
    }
}

/// Decoding a record and appending it again writes its line back, CRC
/// included; a fresh journal's header is the fixture's first line.
#[test]
fn golden_journal_records_re_encode_byte_for_byte() {
    let golden = fixture("golden.journal");
    let fingerprint = params_fingerprint(&WgaParams::darwin_wga());
    let copy = scratch("read.journal");
    fs::copy(data("golden.journal"), &copy).unwrap();
    let mut read = Journal::open(&copy, &fingerprint).expect("the fixture opens");
    assert_eq!(read.stats().records_recovered, 4);
    let again = scratch("again.journal");
    let mut written = Journal::open(&again, &fingerprint).expect("a fresh journal opens");
    for line in golden.lines().skip(1) {
        let doc = json::parse(line).expect("a record is JSON");
        let (t, q) = (
            doc.str("target_chrom").unwrap(),
            doc.str("query_chrom").unwrap(),
        );
        written
            .append(&read.take(t, q).expect("recovered"))
            .unwrap();
    }
    assert_eq!(fs::read_to_string(&again).unwrap(), golden);
    for path in [copy, again] {
        let _ = fs::remove_file(path);
    }
}

#[test]
fn journal_header_is_pinned() {
    let path = scratch("header.journal");
    drop(Journal::open(&path, &params_fingerprint(&WgaParams::darwin_wga())).unwrap());
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        "{\"format\":\"wga-journal\",\"version\":2,\"params_fingerprint\":\"c101066a06e1bd8f\"}\n"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn golden_trace_lines_re_render_through_obs() {
    let trace = fixture("golden.trace.jsonl");
    let (mut kinds, mut retired) = ([0usize; 4], 0);
    for line in trace.lines() {
        let doc = json::parse(line).unwrap();
        if matches!(doc.str("span"), Ok("hwsim.bsw" | "hwsim.gactx")) {
            retired += 1;
            continue;
        }
        let parsed = TraceLine::from_json(&doc).expect("a trace line");
        kinds[match parsed {
            TraceLine::Schema(_) => 0,
            TraceLine::Span(_) => 1,
            TraceLine::Counter(..) => 2,
            TraceLine::Hist(..) => 3,
        }] += 1;
        assert_eq!(parsed.to_json().to_string(), line);
    }
    assert_eq!((kinds, retired), ([1, 66, 7, 3], 2));
}

#[test]
fn golden_trace_reports_the_golden_profile_report() {
    let trace = TraceFile::parse(&fixture("golden.trace.jsonl")).expect("the fixture parses");
    assert_eq!(
        ProfileReport::build(&trace, 5).to_json(),
        fixture("golden.profile_report.json")
    );
}

/// A schema-1 report, its retired `drift` member included, diffs against
/// the schema-2 report of the same trace: same shares, so it passes.
#[test]
fn a_schema_1_report_diffs_against_the_golden_profile_report() {
    let old = diff::ReportSummary::from_json(&fixture("golden.profile_report.schema1.json"))
        .expect("a schema-1 report reads");
    let new = diff::ReportSummary::from_json(&fixture("golden.profile_report.json"))
        .expect("the golden report reads");
    assert_eq!((old.profile_schema, new.profile_schema), (1, 2));
    assert!(diff::diff(&old, &new, &diff::Thresholds::default()).is_pass());
}

#[test]
fn metrics_json_is_pinned() {
    let stage = |workers, n: u64| StageMetrics {
        workers,
        items: n,
        cells: n * 10,
        busy_us: n * 100,
        idle_us: n + 1,
        max_queue_occupancy: n + 2,
    };
    let metrics = ExecutorMetrics {
        executor: ExecutorKind::Dataflow,
        threads: 2,
        queue_depth: 8,
        seeding: stage(1, 3),
        filtering: stage(2, 5),
        extension: stage(2, 7),
        faults_injected: 1,
        retries: 2,
        stalls_detected: 3,
    };
    assert_eq!(
        metrics.to_json().to_string(),
        "{\"executor\":\"dataflow\",\"threads\":2,\"queue_depth\":8,\
         \"seeding\":{\"workers\":1,\"items\":3,\"cells\":30,\"busy_us\":300,\"idle_us\":4,\"max_queue_occupancy\":5},\
         \"filtering\":{\"workers\":2,\"items\":5,\"cells\":50,\"busy_us\":500,\"idle_us\":6,\"max_queue_occupancy\":7},\
         \"extension\":{\"workers\":2,\"items\":7,\"cells\":70,\"busy_us\":700,\"idle_us\":8,\"max_queue_occupancy\":9},\
         \"faults_injected\":1,\"retries\":2,\"stalls_detected\":3}"
    );
}
