//! Golden-file regression for the PAF emitter.
//!
//! The checked-in genome pair under `tests/data/` (shared with
//! `golden_report.rs`) runs through many-genome mode and must render
//! the byte-identical `tests/data/golden.paf` for both filter engines
//! at 1, 3 and 8 threads. A round-trip pass
//! re-parses every emitted line and checks it against the report it
//! came from: column count, interval sanity, the reverse-strand query
//! flip, and the matches ≤ block-length invariant.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test paf_golden -- --nocapture
//! ```

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::pangenome::{self, paf::paf_text, ManyOptions, ManyReport};
use darwin_wga::core::report::Strand;
use darwin_wga::genome::assembly::Assembly;
use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn load_assembly(name: &str, file: &str) -> Assembly {
    let path = data_dir().join(file);
    let reader = BufReader::new(fs::File::open(&path).unwrap_or_else(|e| {
        panic!(
            "cannot open {}: {e} — is the golden fixture checked in?",
            path.display()
        )
    }));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

fn golden_genomes() -> Vec<Assembly> {
    vec![
        load_assembly("golden-target", "golden.target.fa"),
        load_assembly("golden-query", "golden.query.fa"),
    ]
}

fn run(params: &WgaParams, genomes: &[Assembly], options: &ManyOptions) -> ManyReport {
    pangenome::align_many(params, genomes, options).expect("many-genome run succeeds")
}

#[test]
fn golden_paf_is_stable_across_engines_executors_and_threads() {
    let genomes = golden_genomes();
    let path = data_dir().join("golden.paf");

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let report = run(&WgaParams::darwin_wga(), &genomes, &ManyOptions::default());
        fs::write(&path, paf_text(&report, &genomes)).expect("write golden.paf");
        println!("regenerated {}", path.display());
        return;
    }

    let expected =
        fs::read_to_string(&path).expect("golden.paf present — regenerate with GOLDEN_REGEN=1");
    assert!(
        !expected.is_empty() && expected.ends_with('\n'),
        "golden PAF looks truncated"
    );

    for engine in [FilterEngineKind::Scalar, FilterEngineKind::Simd] {
        let params = WgaParams::darwin_wga().with_filter_engine(engine);
        for threads in [1usize, 3, 8] {
            let options = ManyOptions {
                threads,
                ..ManyOptions::default()
            };
            let report = run(&params, &genomes, &options);
            let got = paf_text(&report, &genomes);
            assert!(
                got == expected,
                "{engine:?}/{threads}t diverged from golden.paf \
                 (got {} bytes, expected {})",
                got.len(),
                expected.len()
            );
        }
    }
}

#[test]
fn paf_round_trips_against_its_report() {
    let genomes = golden_genomes();
    let report = run(&WgaParams::darwin_wga(), &genomes, &ManyOptions::default());
    let paf = paf_text(&report, &genomes);
    let lines: Vec<&str> = paf.lines().collect();
    assert_eq!(
        lines.len(),
        report.alignments.len(),
        "one PAF line per surviving alignment"
    );

    for (line, a) in lines.iter().zip(&report.alignments) {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 12, "mandatory PAF columns: {line}");
        let num = |i: usize| -> usize {
            cols[i]
                .parse()
                .unwrap_or_else(|_| panic!("col {i} numeric: {line}"))
        };

        assert_eq!(cols[0], format!("{}.{}", a.query_genome, a.query_chrom));
        assert_eq!(cols[5], format!("{}.{}", a.target_genome, a.target_chrom));
        let (q_len, q_start, q_end) = (num(1), num(2), num(3));
        let (t_len, t_start, t_end) = (num(6), num(7), num(8));
        assert!(
            q_start < q_end && q_end <= q_len,
            "query interval sane: {line}"
        );
        assert!(
            t_start < t_end && t_end <= t_len,
            "target interval sane: {line}"
        );

        let aln = &a.aligned.alignment;
        assert_eq!((t_start, t_end), (aln.target_start, aln.target_end));
        match a.aligned.strand {
            Strand::Forward => {
                assert_eq!(cols[4], "+");
                assert_eq!((q_start, q_end), (aln.query_start, aln.query_end));
            }
            Strand::Reverse => {
                assert_eq!(cols[4], "-");
                // Undo the forward-strand flip to recover the raw
                // reverse-complement coordinates the report stores.
                assert_eq!(
                    (q_len - q_end, q_len - q_start),
                    (aln.query_start, aln.query_end)
                );
            }
        }

        let (matches, block_len, mapq) = (num(9), num(10), num(11));
        assert_eq!(matches as u64, aln.matches());
        assert_eq!(block_len, aln.cigar.len());
        assert!(
            matches <= block_len,
            "matches bounded by block length: {line}"
        );
        assert_eq!(mapq, 255);
    }
}
