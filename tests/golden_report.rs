//! Golden-file regression for the assembly pipeline.
//!
//! A deterministic synthetic genome pair is checked in under
//! `tests/data/` together with the expected [`AssemblyReport`] rendering
//! (`AssemblyReport::canonical_text`). The test replays the full
//! seed→filter→extend pipeline over the checked-in FASTA for **both**
//! filter engines on **both schedules** — the one-thread loop and the
//! streaming dataflow executor at 3 threads (and at 8 on the default
//! engine) — and requires the report to stay byte-identical in every
//! configuration: any behavioural drift in seeding, any BSW engine,
//! extension, chaining or the dataflow executor shows up as a diff
//! against a file in version control.
//!
//! A second pair, `golden_n.*`, is the first stamped with what real
//! assemblies carry and the synthetic one does not: runs of `N` (1, 19,
//! 40 and 700 long, across the 32- and 64-base seams of the packed
//! sequence planes, one of them inside the pair's longest alignment),
//! soft-masked lower case and IUPAC ambiguity letters. Its report was
//! recorded while a sequence was still one byte a base, so it pins that
//! the packed storage reads every such base as the byte storage did.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_report -- --nocapture
//! ```
//!
//! then commit the updated files under `tests/data/`.

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::obs::Obs;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::fasta;
use darwin_wga::genome::Base;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// The deterministic input pair: two homologous chromosome pairs at
/// different distances (all-vs-all gives four pipeline runs, two of
/// them between unrelated chromosomes). Only used when regenerating —
/// the test itself reads the checked-in FASTA.
fn generate_assemblies() -> (Assembly, Assembly) {
    let mut target = Assembly::new("golden-target");
    let mut query = Assembly::new("golden-query");
    for (chrom_t, chrom_q, len, dist_milli, seed) in [
        ("chrI", "chr1", 9_000usize, 200u64, 31u64),
        ("chrII", "chr2", 7_000, 350, 32),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = EvolutionParams::at_distance(dist_milli as f64 / 1000.0);
        let pair = SyntheticPair::generate(len, &params, &mut rng);
        target.push(chrom_t, pair.target.sequence.clone());
        query.push(chrom_q, pair.query.sequence);
    }
    (target, query)
}

fn load_assembly(name: &str, file: &str) -> Assembly {
    let path = data_dir().join(file);
    let reader = BufReader::new(fs::File::open(&path).unwrap_or_else(|e| {
        panic!(
            "cannot open {}: {e} — regenerate with GOLDEN_REGEN=1 cargo test --test golden_report",
            path.display()
        )
    }));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

/// Every alignment of a finished report holds its CIGAR at 4 bytes a
/// run and no spare capacity.
fn assert_exact_cigars(report: &AssemblyReport, run: &str) {
    assert!(report.total_matches() > 0, "{run}: no alignments");
    for a in report.pairs.iter().flat_map(|pair| &pair.alignments) {
        let cigar = &a.alignment.cigar;
        assert_eq!(cigar.heap_bytes(), 4 * cigar.runs().len(), "{run}: {cigar}");
    }
}

const ENGINES: [FilterEngineKind; 2] = [FilterEngineKind::Scalar, FilterEngineKind::Simd];

/// Runs the pair on `engine` at `threads`, checks that no pair failed and
/// that the report is the `golden` one's `expected` text, and returns it.
fn checked_run(
    (target, query): (&Assembly, &Assembly),
    (engine, threads): (FilterEngineKind, usize),
    expected: &str,
    golden: &str,
) -> AssemblyReport {
    let params = WgaParams::darwin_wga().with_filter_engine(engine);
    let options = AlignOptions {
        threads,
        ..AlignOptions::default()
    };
    let report = align_assemblies_observed(&params, target, query, &options, Obs::off())
        .expect("pipeline run succeeds");
    let run = format!("{engine:?}/{threads}t");
    assert_eq!(report.failed_pairs(), 0, "{run}: failed pairs");
    let got = report.canonical_text();
    assert!(
        got == expected,
        "{run} diverged from {golden} (got {} bytes, expected {})",
        got.len(),
        expected.len()
    );
    report
}

#[test]
fn golden_report_is_stable_across_engines_and_threads() {
    let dir = data_dir();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::create_dir_all(&dir).expect("create tests/data");
        let (target, query) = generate_assemblies();
        for (assembly, file) in [(&target, "golden.target.fa"), (&query, "golden.query.fa")] {
            let records: Vec<fasta::Record> = assembly
                .chromosomes()
                .iter()
                .map(|c| fasta::Record {
                    name: c.name.clone(),
                    description: format!("{} {}", c.name, assembly.name),
                    sequence: c.sequence.clone(),
                })
                .collect();
            fasta::write(fs::File::create(dir.join(file)).unwrap(), &records).unwrap();
        }
        let report = align_assemblies_observed(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions::default(),
            Obs::off(),
        )
        .expect("golden run succeeds");
        fs::write(dir.join("golden.report.txt"), report.canonical_text()).unwrap();
        println!("regenerated golden files in {}", dir.display());
        return;
    }

    let target = load_assembly("golden-target", "golden.target.fa");
    let query = load_assembly("golden-query", "golden.query.fa");
    let expected = fs::read_to_string(dir.join("golden.report.txt"))
        .expect("golden.report.txt present — regenerate with GOLDEN_REGEN=1");
    assert!(
        expected.contains("aln\t") && expected.ends_with('\n'),
        "golden report looks truncated"
    );

    // Every engine at one thread (the pair loop) and three (dataflow),
    // and the default engine at eight.
    let mut runs = ENGINES
        .map(|engine| [(engine, 1usize), (engine, 3)])
        .concat();
    runs.push((FilterEngineKind::Simd, 8));
    for (engine, threads) in runs {
        let pair = (&target, &query);
        let report = checked_run(pair, (engine, threads), &expected, "the golden report");
        assert_exact_cigars(&report, &format!("{engine:?}/{threads}t"));
    }
}

/// Alignments replayed from the golden journal hold exactly their runs
/// too: the journal's CIGAR text is parsed into an exact-size CIGAR.
#[test]
fn golden_journal_replays_exact_size_cigars() {
    let target = load_assembly("golden-target", "golden.target.fa");
    let query = load_assembly("golden-query", "golden.query.fa");
    let path =
        std::env::temp_dir().join(format!("wga-golden-exact-{}.journal", std::process::id()));
    fs::copy(data_dir().join("golden.journal"), &path).unwrap();
    let options = AlignOptions {
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let report = align_assemblies_observed(
        &WgaParams::darwin_wga(),
        &target,
        &query,
        &options,
        Obs::off(),
    )
    .expect("the golden journal resumes");
    let _ = fs::remove_file(&path);
    assert_eq!(report.resumed_pairs, 4);
    assert_exact_cigars(&report, "resumed");
}

/// One edit of the N golden: `text` over the record's bases from `at`.
struct Stamp {
    record: &'static str,
    at: usize,
    text: String,
}

/// What `golden_n.*` lays over the checked-in pair. The positions are
/// chosen against the 32 bases of a code word and the 64 of an `N`-mask
/// word: a run ends on a seam, starts on one, or spans several, and the
/// 19-run sits inside `chrI`×`chr1`'s longest alignment (1925 + 3 975).
fn n_stamps(target: bool) -> Vec<Stamp> {
    let n = |count: usize| "N".repeat(count);
    let stamp = |record, at, text: String| Stamp { record, at, text };
    if target {
        vec![
            stamp("chrI", 0, n(1)),
            stamp("chrI", 63, n(1)),
            stamp("chrI", 500, "acgtacgtttgacca".repeat(20).to_string()),
            stamp("chrI", 1200, "RYKMSWBDHVrykmswbdhv".to_string()),
            stamp("chrI", 2999, n(19)),
            stamp("chrI", 4076, n(40)),
            stamp("chrI", 6790, n(700)),
            stamp("chrI", 9482, n(1)),
            stamp("chrII", 32, n(1)),
            stamp("chrII", 5520, n(40)),
            stamp("chrII", 9984, n(19)),
        ]
    } else {
        vec![
            stamp("chr1", 31, n(1)),
            stamp("chr1", 64, n(1)),
            stamp("chr1", 4480, n(19)),
            stamp(
                "chr1",
                8000,
                "nnnnnnnnnnNNNNNNNNNNxxxxxxxxxxXXXXXXXXXX".to_string(),
            ),
            stamp("chr1", 11624, n(1)),
            stamp("chr2", 0, n(40)),
            stamp("chr2", 1300, "ggatccaaagtc".repeat(30).to_string()),
            stamp("chr2", 2400, n(700)),
            stamp("chr2", 6700, "WSN".to_string()),
        ]
    }
}

/// The FASTA text `source` with `stamps` laid over its records, rewrapped
/// at 70 columns. By hand, not through `fasta::write`: the lower case and
/// the IUPAC letters have to reach the file as they are.
fn stamp_fasta(source: &str, stamps: &[Stamp]) -> String {
    let mut records: Vec<(String, Vec<u8>)> = Vec::new();
    for line in source.lines() {
        match line.strip_prefix('>') {
            Some(header) => records.push((header.to_string(), Vec::new())),
            None => records
                .last_mut()
                .expect("header first")
                .1
                .extend(line.bytes()),
        }
    }
    for stamp in stamps {
        let (_, bases) = records
            .iter_mut()
            .find(|(header, _)| header.split_whitespace().next() == Some(stamp.record))
            .expect("stamped record exists");
        bases[stamp.at..stamp.at + stamp.text.len()].copy_from_slice(stamp.text.as_bytes());
    }
    let mut out = String::new();
    for (header, bases) in records {
        out.push_str(&format!(">{header}\n"));
        for line in bases.chunks(70) {
            out.push_str(std::str::from_utf8(line).expect("ASCII"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn n_golden_is_stable_across_engines_and_schedules() {
    let dir = data_dir();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        for (file, target) in [("target", true), ("query", false)] {
            let source = fs::read_to_string(dir.join(format!("golden.{file}.fa")))
                .expect("golden FASTA present — regenerate it first");
            let stamped = stamp_fasta(&source, &n_stamps(target));
            fs::write(dir.join(format!("golden_n.{file}.fa")), stamped).unwrap();
        }
        let target = load_assembly("golden-target", "golden_n.target.fa");
        let query = load_assembly("golden-query", "golden_n.query.fa");
        let report = align_assemblies_observed(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions::default(),
            Obs::off(),
        )
        .expect("golden run succeeds");
        fs::write(dir.join("golden_n.report.txt"), report.canonical_text()).unwrap();
        println!("regenerated N golden files in {}", dir.display());
        return;
    }

    let target = load_assembly("golden-target", "golden_n.target.fa");
    let query = load_assembly("golden-query", "golden_n.query.fa");
    let expected = fs::read_to_string(dir.join("golden_n.report.txt"))
        .expect("golden_n.report.txt present — regenerate with GOLDEN_REGEN=1");
    assert!(
        expected.contains("aln\t") && expected.ends_with('\n'),
        "N golden report looks truncated"
    );
    let ambiguous = |assembly: &Assembly| -> usize {
        assembly
            .chromosomes()
            .iter()
            .map(|c| c.sequence.iter().filter(|&b| b == Base::N).count())
            .sum()
    };
    assert_eq!(
        (ambiguous(&target), ambiguous(&query)),
        (842, 805),
        "the stamps reached the files"
    );

    for engine in ENGINES {
        for threads in [1usize, 2] {
            let pair = (&target, &query);
            checked_run(pair, (engine, threads), &expected, "the N golden report");
        }
    }
}

/// What `wga align` writes per chromosome pair — the MAF and the chain
/// summary lines of stdout — byte for byte at one thread and at two.
/// `golden.maf` and `golden.chains.txt` were written by the binary and
/// are never regenerated: an output change has to explain itself.
#[test]
fn wga_align_writes_the_golden_maf_and_chains() {
    let dir = data_dir();
    let expected_maf = fs::read(dir.join("golden.maf")).expect("golden.maf present");
    let expected_chains =
        fs::read_to_string(dir.join("golden.chains.txt")).expect("golden.chains.txt present");
    for threads in ["1", "2"] {
        let maf = std::env::temp_dir().join(format!(
            "wga-golden-maf-{}-t{threads}.maf",
            std::process::id()
        ));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wga"))
            .arg("align")
            .arg(dir.join("golden.target.fa"))
            .arg(dir.join("golden.query.fa"))
            .args(["--threads", threads, "--maf"])
            .arg(&maf)
            .output()
            .expect("wga runs");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let chains: String = stdout
            .lines()
            .filter(|line| line.starts_with("== chr") || line.starts_with("   chain"))
            .map(|line| format!("{line}\n"))
            .collect();
        let written = fs::read(&maf).expect("MAF written");
        let _ = fs::remove_file(&maf);
        assert_eq!(
            chains, expected_chains,
            "chain summary at --threads {threads}"
        );
        assert!(
            written == expected_maf,
            "MAF differs at --threads {threads}"
        );
    }
}
