//! Exact work counts of a fresh run, pinned.
//!
//! `canonical_text` leaves the funnel counters out by design, so nothing
//! else in the suite would notice a change that does more (or less) work
//! for the same alignments. This test runs each input with a checkpoint,
//! reads every chromosome pair's record back through [`Journal::open`] +
//! [`Journal::take`] in canonical order, and writes one line of integers
//! a pair to `tests/data/work_counts.txt`:
//!
//! ```text
//! input target_chrom query_chrom  seeds filter_tiles extension_tiles
//!     extension_cells extension_rows  raw_seed_hits filter_cells
//!     anchors_passed anchors_absorbed alignments_kept  matched_bp
//! ```
//!
//! The inputs are the golden pair (`tests/data/golden.*`), its N-stamped
//! twin (`golden_n.*`) and the three-genome, two-chromosome `wga many`
//! set of `tests/many_genome.rs` (one block of lines per genome pair, its
//! `pair_AAA_BBB.journal`). The text must be the same at one thread, on
//! the barrier executor at two threads and on the dataflow executor at
//! two: no count depends on the schedule.
//!
//! To regenerate after an *intentional* change of the work done:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test work_counts
//! ```
//!
//! and name the count that moved, and why, in CHANGES.md.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::dataflow::ExecutorKind;
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions};
use darwin_wga::core::journal::{params_fingerprint, Journal};
use darwin_wga::core::pangenome::{self, index::scaled_params, ManyOptions};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

fn load(name: &str, file: &str) -> Assembly {
    let reader = std::io::BufReader::new(fs::File::open(data(file)).expect("FASTA present"));
    Assembly::from_fasta(name, reader).expect("checked-in FASTA parses")
}

/// The genome set of `tests/many_genome.rs::multi_chromosome_genomes`.
fn multi_chromosome_genomes() -> Vec<Assembly> {
    let mut rng = StdRng::seed_from_u64(99);
    let a = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let b = SyntheticPair::generate(4_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let extra_a = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let mut g0 = Assembly::new("g0");
    g0.push("chrI", a.target.sequence.clone());
    g0.push("chrII", b.target.sequence.clone());
    let mut g1 = Assembly::new("g1");
    g1.push("chrI", a.query.sequence.clone());
    g1.push("chrII", b.query.sequence.clone());
    let mut g2 = Assembly::new("g2");
    g2.push("chrI", extra_a.query.sequence.clone());
    g2.push("chrII", b.query.sequence.clone());
    vec![g0, g1, g2]
}

/// Appends one line per chromosome pair of `target` × `query`, read
/// from the journal at `path`.
fn journal_lines(
    out: &mut String,
    input: &str,
    path: &Path,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
) {
    let mut journal = Journal::open(path, &params_fingerprint(params)).expect("journal opens");
    for t in target.chromosomes() {
        for q in query.chromosomes() {
            let record = journal
                .take(&t.name, &q.name)
                .unwrap_or_else(|| panic!("{input}: no record for {} × {}", t.name, q.name));
            let (w, c) = (&record.workload, &record.counters);
            let matched: u64 = record
                .alignments
                .iter()
                .map(|a| a.alignment.matches())
                .sum();
            let counts = [
                w.seeds,
                w.filter_tiles,
                w.extension_tiles,
                w.extension_cells,
                w.extension_rows,
                c.raw_seed_hits,
                c.filter_cells,
                c.anchors_passed,
                c.anchors_absorbed,
                c.alignments_kept,
                matched,
            ];
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "{input}\t{}\t{}\t{}",
                t.name,
                q.name,
                counts.join("\t")
            )
            .unwrap();
        }
    }
}

/// The work-count text of every input, run on `executor` at `threads`.
fn work_counts(executor: ExecutorKind, threads: usize) -> String {
    let scratch = std::env::temp_dir().join(format!(
        "wga-work-counts-{}-{}-{threads}",
        std::process::id(),
        executor.as_str()
    ));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).unwrap();
    let params = WgaParams::darwin_wga();
    let mut out = String::new();

    for input in ["golden", "golden_n"] {
        let target = load("golden-target", &format!("{input}.target.fa"));
        let query = load("golden-query", &format!("{input}.query.fa"));
        let path = scratch.join(format!("{input}.journal"));
        let options = AlignOptions {
            threads,
            executor,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        align_assemblies_with(&params, &target, &query, &options).expect("run succeeds");
        journal_lines(&mut out, input, &path, &params, &target, &query);
    }

    let genomes = multi_chromosome_genomes();
    let dir = scratch.join("many");
    let options = ManyOptions {
        threads,
        executor,
        checkpoint_dir: Some(dir.clone()),
        ..ManyOptions::default()
    };
    pangenome::align_many(&params, &genomes, &options).expect("many run succeeds");
    let scaled = scaled_params(&params, genomes.len());
    for a in 0..genomes.len() {
        for b in a + 1..genomes.len() {
            let path = dir.join(format!("pair_{a:03}_{b:03}.journal"));
            let input = format!("many_{}_{}", genomes[a].name, genomes[b].name);
            journal_lines(&mut out, &input, &path, &scaled, &genomes[a], &genomes[b]);
        }
    }
    let _ = fs::remove_dir_all(&scratch);
    out
}

#[test]
fn work_counts_are_pinned_on_every_schedule() {
    let serial = work_counts(ExecutorKind::Barrier, 1);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::write(data("work_counts.txt"), &serial).unwrap();
        println!("regenerated {}", data("work_counts.txt").display());
        return;
    }
    let expected = fs::read_to_string(data("work_counts.txt"))
        .expect("work_counts.txt present — regenerate with GOLDEN_REGEN=1");
    assert_eq!(serial, expected, "--threads 1");
    for executor in [ExecutorKind::Barrier, ExecutorKind::Dataflow] {
        assert_eq!(
            work_counts(executor, 2),
            expected,
            "{}@2",
            executor.as_str()
        );
    }
}
