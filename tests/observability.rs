//! Integration tests for the observability layer (`wga_core::obs`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Inertness** — running with a live [`TraceRecorder`] produces a
//!    report byte-identical to the checked-in golden report (and hence to
//!    a recorder-off run) on every schedule and thread count. The
//!    observability layer may observe; it may never perturb.
//! 2. **Trace schema** — `TraceRecorder::write_trace` emits JSONL that
//!    the repo's own JSON parser accepts: every span line carries the
//!    full integer field set and a known span name; every counter line
//!    carries a known counter name and non-negative value; nothing else
//!    is written (the retired `hist` lines in particular).
//! 3. **Metrics are the trace's profile** — on both schedules and in
//!    both run commands, `--metrics-out` writes what
//!    `wga profile report --json` writes for the same run's trace, plus
//!    the process's memory on one more line.

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::json::{self, Json};
use darwin_wga::core::obs::{
    Counter, Obs, SpanName, TraceLine, TraceRecorder, NO_SPAN, STRAND_NA, TRACE_SCHEMA,
};
use darwin_wga::genome::assembly::Assembly;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn load_assembly(name: &str, file: &str) -> Assembly {
    let path = data_dir().join(file);
    let reader = BufReader::new(fs::File::open(&path).expect("golden FASTA present"));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

fn golden_inputs() -> (Assembly, Assembly, String) {
    let target = load_assembly("golden-target", "golden.target.fa");
    let query = load_assembly("golden-query", "golden.query.fa");
    let expected = fs::read_to_string(data_dir().join("golden.report.txt"))
        .expect("golden.report.txt present");
    (target, query, expected)
}

/// The golden pair under the default parameters and `options`.
fn run_golden(options: &AlignOptions, obs: Obs<'_>) -> AssemblyReport {
    let (target, query, _) = golden_inputs();
    align_assemblies_observed(&WgaParams::darwin_wga(), &target, &query, options, obs)
        .expect("run succeeds")
}

fn int_field(obj: &Json, key: &str) -> u64 {
    obj.u64(key).unwrap_or_else(|e| panic!("{e} in {obj:?}"))
}

/// Recorder on vs recorder off: same bytes on every filter engine ×
/// thread count — the "provably inert" acceptance gate. The
/// schema-2 span fields (tid/id/parent, extend lane spans, queue-wait
/// spans) must leave the canonical report untouched too.
#[test]
fn golden_report_is_identical_with_recorder_on() {
    let (target, query, expected) = golden_inputs();
    for engine in [FilterEngineKind::Scalar, FilterEngineKind::Simd] {
        let params = WgaParams::darwin_wga().with_filter_engine(engine);
        for threads in [1usize, 3] {
            let options = AlignOptions {
                threads,
                ..AlignOptions::default()
            };
            let recorder = TraceRecorder::new();
            let observed =
                align_assemblies_observed(&params, &target, &query, &options, Obs::new(&recorder))
                    .expect("observed run succeeds");
            assert_eq!(
                observed.canonical_text(),
                expected,
                "{engine:?}/{threads}t: recorder changed the report"
            );
            // The recorder actually saw the run, i.e. the comparison
            // above exercised live instrumentation, not a no-op.
            assert_eq!(recorder.counter(Counter::PairsDone), 4);
            assert!(recorder.counter(Counter::FilterTiles) > 0);
            assert!(!recorder.spans().is_empty());
        }
    }
}

/// Every span line in the trace parses, uses a known span name, and
/// carries the full integer schema; counter lines carry a known counter
/// name and a non-negative value, with exactly one line per counter;
/// no other line, a retired `hist` line in particular, is written.
#[test]
fn trace_jsonl_matches_schema() {
    let recorder = TraceRecorder::new();
    let report = run_golden(&AlignOptions::default(), Obs::new(&recorder));
    assert!(report.total_matches() > 0);

    let mut out = Vec::new();
    recorder.write_trace(&mut out).expect("trace writes");
    let text = String::from_utf8(out).expect("trace is UTF-8");
    assert!(!text.contains("\"hist\""), "a retired hist line is written");

    let known: Vec<&str> = SpanName::ALL.iter().map(|n| n.as_str()).collect();
    let known_counters: Vec<&str> = Counter::ALL.iter().map(|c| c.as_str()).collect();
    let mut seen_spans = Vec::new();
    let mut seen_counters = Vec::new();
    let mut seen_schema = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        if doc.get("schema").is_some() {
            assert_eq!(idx, 0, "schema header must be the first line");
            assert_eq!(int_field(&doc, "schema"), TRACE_SCHEMA);
            seen_schema += 1;
        } else if let Some(name) = doc.get("span").and_then(Json::as_str) {
            assert!(known.contains(&name), "unknown span name {name:?}");
            for key in [
                "pair", "strand", "seq", "start_us", "dur_us", "items", "cells", "tid", "id",
                "parent",
            ] {
                int_field(&doc, key);
            }
            let strand = int_field(&doc, "strand");
            assert!((0..=2).contains(&strand), "strand code out of range");
            // Schema 2: every span names its recording thread and a
            // nonzero process-unique id.
            assert!(int_field(&doc, "tid") >= 1, "{name}: unassigned tid");
            assert!(
                int_field(&doc, "id") > 0,
                "{name}: id must never be NO_SPAN"
            );
            seen_spans.push(name.to_string());
        } else if let Some(name) = doc.get("counter").and_then(Json::as_str) {
            assert!(known_counters.contains(&name), "unknown counter {name:?}");
            int_field(&doc, "value");
            seen_counters.push(name.to_string());
        } else {
            panic!("line is neither a schema header, a span, nor a counter: {line:?}");
        }
    }
    assert_eq!(seen_schema, 1, "exactly one schema header");
    // Exactly one line per counter.
    for required in &known_counters {
        assert_eq!(
            seen_counters.iter().filter(|c| *c == required).count(),
            1,
            "expected exactly one counter line for {required:?}"
        );
    }
    // The serial golden run must produce the core span taxonomy,
    // including the schema-2 lane-level `extend` span.
    for required in [
        "seed.table",
        "seed",
        "filter.batch",
        "extend.tile",
        "extend",
    ] {
        assert!(
            seen_spans.iter().any(|s| s == required),
            "required span {required:?} missing from trace"
        );
    }
}

/// A checkpointed run emits `checkpoint` spans, one per computed pair.
#[test]
fn checkpointed_run_traces_checkpoint_spans() {
    let path = std::env::temp_dir().join(format!("wga-obs-ckpt-{}.jsonl", std::process::id()));
    let _ = fs::remove_file(&path);
    let recorder = TraceRecorder::new();
    let options = AlignOptions {
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    run_golden(&options, Obs::new(&recorder));
    let _ = fs::remove_file(&path);
    let checkpoints = recorder
        .spans()
        .iter()
        .filter(|s| s.name == SpanName::Checkpoint)
        .count();
    assert_eq!(checkpoints, 4, "one checkpoint span per journaled pair");
}

/// `wga` run in `dir` with `args`, which must exit 0.
fn wga_in(dir: &Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_wga"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn wga");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    out
}

/// Checks the `--metrics-out` file `metrics` of the run that wrote the
/// trace `trace`, both in `dir`: less its `"process"` line it is the
/// bytes `wga profile report <trace> --json` writes, and `wga profile
/// diff` reads it. Returns the metrics, parsed.
fn metrics_are_the_profile_of(dir: &Path, metrics: &str, trace: &str, at: &str) -> Json {
    wga_in(dir, &["profile", "report", trace, "--json", "r.json"]);
    let text = fs::read_to_string(dir.join(metrics)).unwrap();
    let process: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("\"process\":"))
        .collect();
    assert_eq!(process.len(), 1, "{at}: {text}");
    assert!(
        process[0].starts_with("\"process\":{\"vm_hwm_kb\":"),
        "{at}: {text}"
    );
    let profile: String = (text.split_inclusive('\n'))
        .filter(|line| !line.starts_with("\"process\":"))
        .collect();
    let report = fs::read_to_string(dir.join("r.json")).unwrap();
    assert!(profile == report, "{at}:\n{text}\nagainst\n{report}");
    wga_in(dir, &["profile", "diff", metrics, metrics]);
    json::parse(&text).expect("metrics JSON parses")
}

/// `--metrics-out` is the profile of the run's own trace, for `wga
/// align` at one thread and at two and for `wga many` at two: the same
/// bytes as `wga profile report` of the trace beside it, less the
/// `"process"` line, a file `wga profile diff` reads, and a
/// `filter.batch` stage whose items are the run's filter tiles.
#[test]
fn metrics_out_is_the_profile_report_of_the_runs_trace() {
    let dir = std::env::temp_dir().join(format!("wga-obs-metrics-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let [target, query] = ["golden.target.fa", "golden.query.fa"]
        .map(|file| data_dir().join(file).to_str().unwrap().to_string());
    let observed = ["--trace-out", "t.jsonl", "--metrics-out", "m.json"];
    for (command, threads) in [("align", "1"), ("align", "2"), ("many", "2")] {
        let at = format!("{command} --threads {threads}");
        let args = [command, &target, &query, "--threads", threads];
        let out = wga_in(&dir, &[&args[..], &observed].concat());
        let metrics = metrics_are_the_profile_of(&dir, "m.json", "t.jsonl", &at);
        let stages = metrics.arr("stages").unwrap();
        let batches = (stages.iter())
            .find(|stage| stage.str("stage") == Ok("filter.batch"))
            .unwrap_or_else(|| panic!("{at}: no filter.batch stage"));
        let tiles = metrics.member("workload").unwrap().u64("filter_tiles");
        assert!(tiles.as_ref().is_ok_and(|&tiles| tiles > 0), "{at}");
        assert_eq!(batches.u64("items"), tiles, "{at}");
        if command == "align" {
            let line = format!("filter tiles:       {}\n", tiles.unwrap());
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains(&line), "{at}: no {line:?} in {stdout}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A pair that fails still finishes: with one pair failed by an
/// injected error, `pairs.done` reaches `pairs.total` on every schedule (a
/// `--progress` meter must not end a finished run at `pairs 3/4` with a
/// live ETA), and the canonical report is the same on both.
#[test]
fn failed_pair_still_counts_as_done_on_every_schedule() {
    use darwin_wga::core::faultsim::FaultPlan;

    let plan = FaultPlan::parse(concat!(
        "{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":13,\"faults\":[",
        "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,1,2],\"pair\":1}]}"
    ))
    .expect("fault plan parses");
    let plan = std::sync::Arc::new(plan);
    let mut canon: Vec<String> = Vec::new();
    for threads in [1, 3] {
        let recorder = TraceRecorder::new();
        let options = AlignOptions {
            threads,
            fault_plan: Some(plan.clone()),
            ..AlignOptions::default()
        };
        let report = run_golden(&options, Obs::new(&recorder));
        assert_eq!(report.failed_pairs(), 1, "--threads {threads}");
        let progress = recorder.progress();
        assert_eq!(progress.pairs_total, 4, "--threads {threads}");
        assert_eq!(progress.pairs_done, 4, "--threads {threads}");
        canon.push(report.canonical_text());
    }
    assert_eq!(canon[0], canon[1]);
}

/// A run resumed from the whole golden journal computed nothing: its
/// progress snapshot reads every pair done and no cells spent, so no
/// Mcells/s rate, on every schedule, while the trace's counters still
/// count the replayed pairs as the report does.
#[test]
fn fully_resumed_run_spends_no_cells_in_progress() {
    for threads in [1, 3] {
        let path = std::env::temp_dir().join(format!(
            "wga-obs-resume-{}-{threads}.journal",
            std::process::id()
        ));
        fs::copy(data_dir().join("golden.journal"), &path).expect("journal copy");
        let recorder = TraceRecorder::new();
        let options = AlignOptions {
            threads,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        let report = run_golden(&options, Obs::new(&recorder));
        let _ = fs::remove_file(&path);
        assert_eq!(report.resumed_pairs, 4, "--threads {threads}");
        let progress = recorder.progress();
        assert_eq!(
            (progress.pairs_done, progress.pairs_total, progress.cells),
            (4, 4, 0),
            "--threads {threads}"
        );
        let cells = recorder.counter(Counter::FilterCells);
        assert_eq!(cells, report.counters.filter_cells, "--threads {threads}");
        assert!(cells > 0);
    }
}

/// `TraceLine::Span` is the schema: a recorded span renders as one
/// integer-only line that reads back to the same span.
#[test]
fn span_line_is_byte_stable() {
    let recorder = TraceRecorder::new();
    let obs = Obs::new(&recorder).with_pair(3);
    let mut buf = obs.buffer();
    let timer = buf.start();
    buf.finish(timer, SpanName::Chain, STRAND_NA, 7, 2, 99);
    buf.flush();
    let spans = recorder.spans();
    assert_eq!(spans.len(), 1);
    let line = TraceLine::Span(spans[0]).to_json().to_string();
    let doc = json::parse(&line).expect("span line parses");
    assert_eq!(
        TraceLine::from_json(&doc),
        Ok(Some(TraceLine::Span(spans[0])))
    );
    assert_eq!(doc.get("span").and_then(Json::as_str), Some("chain"));
    assert_eq!(int_field(&doc, "pair"), 3);
    assert_eq!(int_field(&doc, "seq"), 7);
    assert_eq!(int_field(&doc, "items"), 2);
    assert_eq!(int_field(&doc, "cells"), 99);
    // Schema-2 fields ride on every line: a real thread id, a nonzero
    // span id, and NO_SPAN parent for a top-level span.
    assert!(int_field(&doc, "tid") >= 1);
    assert!(int_field(&doc, "id") > 0);
    assert_eq!(int_field(&doc, "parent"), NO_SPAN);
}

/// A threaded dataflow run records `queue.wait` spans on the known
/// queue codes, and every `extend.tile` span is parented under an
/// `extend` lane span recorded by the same thread.
#[test]
fn dataflow_run_records_queue_waits_and_extend_lanes() {
    let recorder = TraceRecorder::new();
    let options = AlignOptions {
        threads: 3,
        ..AlignOptions::default()
    };
    run_golden(&options, Obs::new(&recorder));
    let spans = recorder.spans();

    let waits: Vec<_> = spans
        .iter()
        .filter(|s| s.name == SpanName::QueueWait)
        .collect();
    assert!(!waits.is_empty(), "dataflow run must record queue waits");
    // No collector, so no pop of its queue (code 3, like the extension
    // queue's 2, only in old traces).
    for w in &waits {
        assert!(
            [0, 1, 4].contains(&w.seq),
            "unknown or retired queue code: {}",
            w.seq
        );
    }

    let lanes: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == SpanName::Extend)
        .map(|s| (s.id, s.tid))
        .collect();
    assert!(!lanes.is_empty(), "extension work must record lane spans");
    let mut tiles = 0usize;
    for t in spans.iter().filter(|s| s.name == SpanName::ExtendTile) {
        tiles += 1;
        let lane_tid = lanes
            .get(&t.parent)
            .unwrap_or_else(|| panic!("extend.tile parent {} is not a lane span id", t.parent));
        assert_eq!(
            *lane_tid, t.tid,
            "tile and its lane recorded by different threads"
        );
    }
    assert!(tiles > 0, "golden run must extend at least one anchor");
}

/// `wga many` traces and measures its whole matrix as `wga align` does,
/// and neither output changes a byte of its PAF or report. At one thread
/// and at two, `wga profile report` reads the trace back and lists every
/// chromosome pair of the matrix, and the metrics are its profile with
/// the process's high-water.
#[test]
fn many_traces_and_measures_the_matrix_without_changing_an_output() {
    let dir = std::env::temp_dir().join(format!("wga-obs-many-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let wga = |args: &[&str]| wga_in(&dir, args);
    // Three genomes of two chromosomes: three genome pairs, 12 pair ids.
    let genomes = ["golden.target.fa", "golden.query.fa", "golden_n.target.fa"]
        .map(|file| data_dir().join(file).to_str().unwrap().to_string());
    for threads in ["1", "2"] {
        let outputs = |observed: &[&str]| -> (Vec<u8>, Vec<u8>) {
            let mut args = vec!["many"];
            args.extend(genomes.iter().map(String::as_str));
            args.extend(["--threads", threads, "--paf-out", "p.paf"]);
            args.extend(["--report-out", "r.txt"]);
            wga(&[&args, observed].concat());
            let read = |file: &str| fs::read(dir.join(file)).unwrap();
            (read("p.paf"), read("r.txt"))
        };
        let plain = outputs(&[]);
        let observed = outputs(&["--trace-out", "t.jsonl", "--metrics-out", "m.json"]);
        assert!(
            plain == observed,
            "tracing changed an output at {threads} threads"
        );

        let profile = wga(&["profile", "report", "t.jsonl", "--top", "1000"]);
        let table = String::from_utf8_lossy(&profile.stdout);
        assert!(table.contains(" spans, 12 pairs, "), "{table}");
        for pair in 0..12 {
            let listed = format!("pair {pair:>4} ");
            assert!(
                table.contains(&listed),
                "no {listed:?} at {threads}: {table}"
            );
        }
        let at = format!("many --threads {threads}");
        metrics_are_the_profile_of(&dir, "m.json", "t.jsonl", &at);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// One clock: every `--metrics-out` duration of a `wga align` run is the
/// sum of its spans' `dur_us` in the same run's trace, at one thread and
/// at two: each stage's `total_us` is its span name's, `queue.wait`
/// (the time the producer and the pool spent blocked) included.
#[test]
fn metrics_durations_are_sums_of_the_trace_spans() {
    let dir = std::env::temp_dir().join(format!("wga-obs-clock-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let inputs = ["golden.target.fa", "golden.query.fa"]
        .map(|file| data_dir().join(file).to_str().unwrap().to_string());
    for threads in ["1", "2"] {
        let args = ["align", &inputs[0], &inputs[1], "--threads", threads];
        wga_in(
            &dir,
            &[
                &args[..],
                &["--trace-out", "t.jsonl", "--metrics-out", "m.json"],
            ]
            .concat(),
        );

        let trace = fs::read_to_string(dir.join("t.jsonl")).unwrap();
        let spans: Vec<_> = trace
            .lines()
            .filter_map(
                |line| match TraceLine::from_json(&json::parse(line).unwrap()) {
                    Ok(Some(TraceLine::Span(span))) => Some(span),
                    _ => None,
                },
            )
            .collect();
        let metrics = json::parse(&fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
        let stages = metrics.arr("stages").unwrap();
        for name in SpanName::ALL {
            let of_name = || spans.iter().filter(|s| s.name == name);
            let stage = (stages.iter())
                .find(|stage| stage.str("stage") == Ok(name.as_str()))
                .unwrap_or_else(|| panic!("{threads} threads: no {} stage", name.as_str()));
            let at = format!("{}, {threads} threads", name.as_str());
            assert_eq!(int_field(stage, "spans"), of_name().count() as u64, "{at}");
            let busy: u64 = of_name().map(|s| s.dur_us).sum();
            assert_eq!(int_field(stage, "total_us"), busy, "{at}");
        }
        for name in [SpanName::Seed, SpanName::FilterBatch, SpanName::Extend] {
            assert!(spans.iter().any(|s| s.name == name), "{threads} threads");
        }
        if threads == "2" {
            let waits = spans.iter().filter(|s| s.name == SpanName::QueueWait);
            assert!(waits.count() > 0, "the producer and the pool wait");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
