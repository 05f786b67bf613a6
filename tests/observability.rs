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
//!    carries a known counter name and non-negative value; every
//!    histogram line carries sorted log2 buckets that sum to its total.
//! 3. **Metrics universality** — both schedules report
//!    [`ExecutorMetrics`] whose JSON round-trips through the parser and
//!    is tagged with the schedule that produced it.

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::dataflow::ExecutorKind;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::json::{self, Json};
use darwin_wga::core::obs::{
    Counter, HistKind, Log2Histogram, Obs, SpanName, TraceLine, TraceRecorder, NO_SPAN, STRAND_NA,
    TRACE_SCHEMA,
};
use darwin_wga::genome::assembly::Assembly;
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
/// histogram lines carry sorted buckets summing to their totals.
#[test]
fn trace_jsonl_matches_schema() {
    let recorder = TraceRecorder::new();
    let report = run_golden(&AlignOptions::default(), Obs::new(&recorder));
    assert!(!report.alignments.is_empty());

    let mut out = Vec::new();
    recorder.write_trace(&mut out).expect("trace writes");
    let text = String::from_utf8(out).expect("trace is UTF-8");

    let known: Vec<&str> = SpanName::ALL.iter().map(|n| n.as_str()).collect();
    let known_hists: Vec<&str> = HistKind::ALL.iter().map(|h| h.as_str()).collect();
    let known_counters: Vec<&str> = Counter::ALL.iter().map(|c| c.as_str()).collect();
    let mut seen_spans = Vec::new();
    let mut seen_hists = Vec::new();
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
        } else if let Some(name) = doc.get("hist").and_then(Json::as_str) {
            assert!(known_hists.contains(&name), "unknown histogram {name:?}");
            let total = int_field(&doc, "total");
            let buckets = doc.get("buckets").and_then(Json::as_arr).expect("buckets");
            let mut sum = 0u64;
            let mut last_bucket = None;
            for entry in buckets {
                let pair = entry.as_arr().expect("bucket entry is [index, count]");
                assert_eq!(pair.len(), 2);
                let (b, c) = (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap());
                assert!(last_bucket < Some(b), "buckets not strictly ascending");
                assert!(c > 0, "empty buckets must be omitted");
                last_bucket = Some(b);
                sum += c;
            }
            assert_eq!(sum, total, "{name}: bucket counts must sum to total");
            seen_hists.push(name.to_string());
        } else {
            panic!("line is neither a schema header, a span, a counter, nor a histogram: {line:?}");
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
    // including the schema-2 lane-level `extend` span…
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
    // …and one line per histogram kind.
    for required in known_hists {
        assert_eq!(
            seen_hists.iter().filter(|h| *h == required).count(),
            1,
            "expected exactly one {required:?} line"
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

/// Both schedules emit metrics; the JSON parses and names the schedule.
#[test]
fn metrics_json_is_valid_on_every_executor() {
    for (threads, executor, tag) in [
        (1, ExecutorKind::Barrier, "barrier"),
        (2, ExecutorKind::Dataflow, "dataflow"),
    ] {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = run_golden(&options, Obs::off());
        let metrics = report.stage_metrics.expect("metrics on both schedules");
        assert_eq!(metrics.executor, executor);
        let doc = json::parse(&metrics.to_json().to_string()).expect("metrics JSON parses");
        assert_eq!(doc.get("executor").and_then(Json::as_str), Some(tag));
        for stage in ["seeding", "filtering", "extension"] {
            let s = doc.get(stage).unwrap_or_else(|| panic!("missing {stage}"));
            for key in [
                "workers",
                "items",
                "cells",
                "busy_us",
                "idle_us",
                "max_queue_occupancy",
            ] {
                int_field(s, key);
            }
        }
        // Both schedules agree on what work the run contained.
        assert_eq!(metrics.filtering.items, report.workload.filter_tiles);
        assert_eq!(metrics.seeding.cells, report.workload.seeds);
        // One pool of `threads` seeds, filters and extends.
        let workers = [metrics.seeding, metrics.filtering, metrics.extension].map(|s| s.workers);
        assert_eq!(workers, [threads; 3], "--threads {threads}");
    }
}

/// A pair that fails still finishes: with one pair's retry budget
/// exhausted, `pairs.done` reaches `pairs.total` on every schedule (a
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
            max_retries: 1,
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

/// Log2 histogram boundary behaviour via the public API: 0 → bucket 0,
/// powers of two open new buckets, `u64::MAX` lands in the last one.
#[test]
fn histogram_bucket_boundaries() {
    let h = Log2Histogram::new();
    for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
        h.observe(v);
    }
    assert_eq!(h.total(), 8);
    let snapshot = h.snapshot();
    // 0→b0; 1→b1; 2,3→b2; 4→b3; 1023→b10; 1024→b11; MAX→b64.
    assert_eq!(
        snapshot,
        vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1), (11, 1), (64, 1)]
    );
    // Bucket b > 0 opens at 2^(b-1).
    for (bucket, _) in snapshot.into_iter().filter(|&(b, _)| b > 0) {
        assert_eq!(Log2Histogram::bucket_index(1 << (bucket - 1)), bucket);
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
    assert_eq!(TraceLine::from_json(&doc), Ok(TraceLine::Span(spans[0])));
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
    for w in &waits {
        assert!(w.seq <= 3, "queue code out of range: {}", w.seq);
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
