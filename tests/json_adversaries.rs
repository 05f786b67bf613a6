//! The JSON readers — and the MAF reader — under damaged input, in the
//! pattern of the FASTA reader's adversaries: one journal record, one
//! trace with every line kind, one fault plan, one `--metrics-out`
//! payload, one `profile_report.json` and one two-block MAF, cut at
//! every prefix and with every byte replaced by a few troublemakers in
//! turn. Every reader — `json::parse`, `Journal::open`,
//! `TraceFile::parse`, `FaultPlan::parse`, `ReportSummary::from_json`,
//! `read_maf` — returns a value or a typed error, never a panic. A
//! nesting bomb, which used to overflow the parser's stack, is an error
//! in each reader, and a corrupt interior journal line to the rest of
//! the journal.

use darwin_wga::align::{AlignOp, Alignment, Cigar};
use darwin_wga::core::config::WgaParams;
use darwin_wga::core::faultsim::FaultPlan;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::journal::{crc32c, params_fingerprint, Journal, PairRecord};
use darwin_wga::core::json::{self, Json};
use darwin_wga::core::maf::{read_maf, write_maf};
use darwin_wga::core::obs::Obs;
use darwin_wga::core::report::{
    BudgetKind, FunnelCounters, RunEvent, RunOutcome, StageTimings, Strand, WgaAlignment,
};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::Sequence;
use darwin_wga::hwsim::Workload;
use darwin_wga::profile::diff::ReportSummary;
use darwin_wga::profile::{ProfileReport, TraceFile};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

/// A fresh path: tests run in parallel, so every call gets its own.
fn scratch(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("wga-json-adv-{}-{call}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

fn fingerprint() -> String {
    params_fingerprint(&WgaParams::darwin_wga())
}

/// A journal whose header is followed by `records`, one a line. The
/// header comes from the one journal `Journal::open` creates (and
/// fsyncs); the rest are written without a sync.
fn journal_with(name: &str, records: &[&[u8]]) -> PathBuf {
    static HEADER: OnceLock<Vec<u8>> = OnceLock::new();
    let header = HEADER.get_or_init(|| {
        let path = scratch("header.journal");
        drop(Journal::open(&path, &fingerprint()).expect("a fresh journal opens"));
        let header = fs::read(&path).unwrap();
        let _ = fs::remove_file(&path);
        header
    });
    let path = scratch(name);
    let mut bytes = header.clone();
    for record in records {
        bytes.extend_from_slice(record);
        bytes.push(b'\n');
    }
    fs::write(&path, bytes).unwrap();
    path
}

/// A degraded record with both event kinds and strings that need escapes,
/// as `Journal::append` writes it (no newline).
fn journal_record(query_chrom: &str) -> String {
    let mut cigar = Cigar::new();
    cigar.push(AlignOp::Match, 20);
    cigar.push(AlignOp::Insert, 2);
    cigar.push(AlignOp::Subst, 1);
    let record = PairRecord {
        target_chrom: "chr\"I\\\t".into(),
        query_chrom: query_chrom.into(),
        outcome: RunOutcome::Degraded {
            events: vec![
                RunEvent::BudgetExceeded {
                    budget: BudgetKind::FilterTiles,
                    limit: 100,
                    observed: 250,
                },
                RunEvent::BudgetExceeded {
                    budget: BudgetKind::ExtensionCells,
                    limit: 4000,
                    observed: 4100,
                },
            ],
        },
        workload: Workload {
            seeds: 10,
            filter_tiles: 20,
            extension_tiles: 3,
            extension_cells: 4000,
            extension_rows: 40,
        },
        timings: StageTimings {
            seeding: Duration::from_micros(1500),
            filtering: Duration::from_micros(2500),
            extension: Duration::from_micros(3500),
        },
        counters: FunnelCounters {
            raw_seed_hits: 25,
            filter_cells: 6400,
            anchors_passed: 3,
            ..FunnelCounters::default()
        },
        alignments: vec![WgaAlignment {
            alignment: Alignment::new(5, 9, cigar, 1234),
            strand: Strand::Reverse,
        }],
    };
    let path = journal_with("record.journal", &[]);
    Journal::open(&path, &fingerprint())
        .unwrap()
        .append(&record)
        .unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let _ = fs::remove_file(&path);
    text.lines()
        .nth(1)
        .expect("the appended record")
        .to_string()
}

const TRACE: &str = concat!(
    "{\"schema\":2}\n",
    "{\"span\":\"extend.tile\",\"pair\":0,\"strand\":1,\"seq\":3,\"start_us\":10,\"dur_us\":5,",
    "\"items\":2,\"cells\":400,\"tid\":1,\"id\":1099511627778,\"parent\":1099511627777}\n",
    "{\"counter\":\"filter.tiles\",\"value\":4}\n",
    "{\"hist\":\"filter.tile_cells\",\"total\":3,\"buckets\":[[2,1],[5,2]]}\n",
);

const PLAN: &str = "{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":42,\"faults\":[\
    {\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,2],\"pair\":1},\
    {\"hook\":\"journal.append\",\"kind\":\"crash\",\"at\":[0],\"ms\":25}]}";

/// A `--metrics-out` file as `wga` writes it: the profile of the run's
/// trace ([`TRACE`] here) with the process's memory as its first line.
fn metrics() -> String {
    let trace = TraceFile::parse(TRACE).expect("trace parses");
    let mut doc = ProfileReport::build(&trace, 5).to_doc();
    let process = Json::obj([
        ("vm_hwm_kb", 3008u64.into()),
        ("rss_anon_kb", 1020u64.into()),
        ("rss_file_kb", 1960u64.into()),
    ]);
    if let Json::Obj(members) = &mut doc {
        members.insert(0, ("process".to_string(), process));
    }
    doc.to_lines()
}

/// Two blocks as `wga align` writes them, one a strand.
fn maf() -> String {
    let t: Sequence = "ACGTTGCAACGT".parse().expect("bases");
    let q: Sequence = "ACGATGCACGT".parse().expect("bases");
    let mut cigar = Cigar::new();
    cigar.push(AlignOp::Match, 3);
    cigar.push(AlignOp::Subst, 1);
    cigar.push(AlignOp::Match, 4);
    cigar.push(AlignOp::Delete, 1);
    cigar.push(AlignOp::Match, 3);
    let alignment = Alignment::new(0, 0, cigar, 700);
    let alignments = [Strand::Forward, Strand::Reverse].map(|strand| WgaAlignment {
        alignment: alignment.clone(),
        strand,
    });
    let mut out = Vec::new();
    write_maf(&mut out, "chrT", &t, "chrQ", &q, &alignments).expect("written");
    String::from_utf8(out).expect("MAF is text")
}

fn report() -> String {
    fs::read_to_string(data("golden.profile_report.json")).expect("fixture present")
}

/// Every in-memory reader on `input`; a panic names the case.
fn read_everywhere(input: &[u8], case: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = TraceFile::read(input);
        let _ = read_maf(input);
        if let Ok(text) = std::str::from_utf8(input) {
            if let Ok(doc) = json::parse(text) {
                assert_eq!(
                    json::parse(&doc.to_string()),
                    Ok(doc),
                    "renders back to itself"
                );
            }
            let _ = FaultPlan::parse(text);
            let _ = ReportSummary::from_json(text);
        }
    }));
    if outcome.is_err() {
        panic!("{case} panicked on {:?}", String::from_utf8_lossy(input));
    }
}

/// The undamaged input, every prefix and every one-byte substitution.
fn damaged(input: &[u8]) -> impl Iterator<Item = (Vec<u8>, String)> + '_ {
    let prefixes =
        (0..input.len()).map(|end| (input[..end].to_vec(), format!("prefix of {end} bytes")));
    let substitutions = (0..input.len()).flat_map(move |at| {
        [b'"', b'\\', b'{', b'[', b'9', b'-', b'\n', 0xff]
            .into_iter()
            .map(move |byte| {
                let mut bytes = input.to_vec();
                bytes[at] = byte;
                (bytes, format!("byte {at} set to {byte:#04x}"))
            })
    });
    std::iter::once((input.to_vec(), "the undamaged input".to_string()))
        .chain(prefixes)
        .chain(substitutions)
}

#[test]
fn the_undamaged_inputs_read() {
    let record = journal_record("chr1");
    let path = journal_with("undamaged.journal", &[record.as_bytes()]);
    let journal = Journal::open(&path, &fingerprint()).expect("journal opens");
    assert_eq!(journal.stats().records_recovered, 1);
    let _ = fs::remove_file(&path);
    // The retired `hist` line is skipped: one span, one counter read.
    let trace = TraceFile::parse(TRACE).expect("trace parses");
    assert_eq!((trace.spans.len(), trace.counter("filter.tiles")), (1, 4));
    let without_hist: String = TRACE
        .lines()
        .filter(|l| !l.contains("\"hist\""))
        .map(|l| format!("{l}\n"))
        .collect();
    let plain = TraceFile::parse(&without_hist).expect("trace parses");
    assert_eq!((plain.spans, plain.counters), (trace.spans, trace.counters));
    assert_eq!(FaultPlan::parse(PLAN).expect("plan parses").rules.len(), 2);
    assert_eq!(json::parse(&metrics()).unwrap().to_lines(), metrics());
    assert!(ReportSummary::from_json(&metrics()).is_ok());
    assert!(ReportSummary::from_json(&report()).is_ok());
    let blocks = read_maf(maf().as_bytes()).expect("MAF reads");
    let strands: Vec<Strand> = blocks.iter().map(|block| block.strand).collect();
    assert_eq!(strands, [Strand::Forward, Strand::Reverse]);
}

#[test]
fn every_damaged_input_reads_or_fails_cleanly() {
    for input in [
        journal_record("chr1"),
        TRACE.to_string(),
        PLAN.to_string(),
        metrics(),
        report(),
        maf(),
    ] {
        for (bytes, case) in damaged(input.as_bytes()) {
            read_everywhere(&bytes, &case);
        }
    }
}

/// Every damaged copy of a record, one a line ahead of a good record,
/// in one journal (a damaged journal is rewritten on open, and a rewrite
/// per case would make this a test of the disk): it opens, each damaged
/// line is recovered or skipped and counted, and the good record after
/// them is recovered.
#[test]
fn every_damaged_journal_record_is_skipped_or_recovered() {
    let record = journal_record("chr1");
    let damaged: Vec<Vec<u8>> = damaged(record.as_bytes()).map(|(bytes, _)| bytes).collect();
    let mut lines: Vec<&[u8]> = damaged.iter().map(Vec::as_slice).collect();
    let next = journal_record("chr2");
    lines.push(next.as_bytes());
    let path = journal_with("damaged.journal", &lines);
    let mut journal = Journal::open(&path, &fingerprint()).expect("a damaged journal opens");
    let stats = journal.stats();
    assert!(journal.take("chr\"I\\\t", "chr2").is_some(), "{stats:?}");
    assert!(journal.take("chr\"I\\\t", "chr1").is_some(), "{stats:?}");
    assert!(!stats.torn_tail_dropped, "{stats:?}");
    assert!(
        stats.corrupt_records_skipped > 4 * record.len() as u64,
        "{stats:?}"
    );
    let _ = fs::remove_file(&path);
}

/// A sealed record whose CIGAR reads `4294967295=1=`: each run fits a
/// `u32`, their merge would not. It is a corrupt record, skipped and
/// counted, never a zero-length alignment wrapped from the sum.
#[test]
fn a_cigar_run_past_the_longest_run_is_a_corrupt_record() {
    let good = journal_record("chr1");
    let body = format!("{}}}", &good[..good.rfind(",\"crc\":").unwrap()])
        .replace("\"cigar\":\"20=2I1X\"", "\"cigar\":\"4294967295=1=\"");
    assert!(body.contains("4294967295=1="), "{body}");
    let sealed = format!(
        "{},\"crc\":{}}}",
        &body[..body.len() - 1],
        crc32c(body.as_bytes())
    );
    read_everywhere(sealed.as_bytes(), "the overflowing cigar");
    let next = journal_record("chr2");
    let path = journal_with("overflow.journal", &[sealed.as_bytes(), next.as_bytes()]);
    let mut journal = Journal::open(&path, &fingerprint()).expect("the journal opens");
    let stats = journal.stats();
    assert_eq!(stats.corrupt_records_skipped, 1, "{stats:?}");
    assert!(journal.take("chr\"I\\\t", "chr1").is_none(), "{stats:?}");
    assert!(journal.take("chr\"I\\\t", "chr2").is_some(), "{stats:?}");
    let _ = fs::remove_file(&path);
}

#[test]
fn a_nesting_bomb_is_an_error_in_every_reader() {
    let bomb = "[".repeat(1 << 20);
    assert!(json::parse(&bomb).unwrap_err().contains("nesting"));
    let err = TraceFile::parse(&bomb).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    let err = FaultPlan::parse(&bomb).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    assert!(ReportSummary::from_json(&bomb).is_err());
}

/// A 1 MB line of `[` inside the golden journal is a corrupt record:
/// skipped and counted, while the run resumes every pair around it.
#[test]
fn a_journal_with_a_nesting_bomb_inside_resumes() {
    let golden = fs::read_to_string(data("golden.journal")).unwrap();
    let (header, records) = golden.split_once('\n').unwrap();
    let path = scratch("bomb.journal");
    fs::write(
        &path,
        format!("{header}\n{}\n{records}", "[".repeat(1 << 20)),
    )
    .unwrap();
    let load = |name, file| {
        let reader = std::io::BufReader::new(fs::File::open(data(file)).unwrap());
        Assembly::from_fasta(name, reader).unwrap()
    };
    let options = AlignOptions {
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let report = align_assemblies_observed(
        &WgaParams::darwin_wga(),
        &load("t", "golden.target.fa"),
        &load("q", "golden.query.fa"),
        &options,
        Obs::off(),
    )
    .expect("the journal resumes");
    let stats = report.journal_stats.expect("a checkpointed run has stats");
    assert_eq!(stats.corrupt_records_skipped, 1);
    assert_eq!(report.resumed_pairs, 4);
    assert_eq!(
        report.canonical_text(),
        fs::read_to_string(data("golden.report.txt")).unwrap()
    );
    let _ = fs::remove_file(&path);
}
