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
//! twin (`golden_n.*`), a near (distance 0.30) and a far (1.30) evolved
//! pair of 20 kb, the three-genome, two-chromosome `wga many` set of
//! `tests/many_genome.rs` and a four-genome, one-chromosome set with two
//! related pairs (one block of lines per genome pair, its
//! `pair_AAA_BBB.journal`). The text must be the same at one thread (the
//! pair loop) and on the dataflow executor at two and three: no count
//! depends on the schedule. Nor on the filter engine or the
//! query range size: the golden pair's lines are the same under the
//! scalar engine and at `shard_bases = 128`.
//!
//! To regenerate after an *intentional* change of the work done:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test work_counts
//! ```
//!
//! and name the count that moved, and why, in CHANGES.md.

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
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

/// A one-chromosome evolved pair of `len` bases at `distance`.
fn evolved_pair(name: &str, len: usize, distance: f64, seed: u64) -> (Assembly, Assembly) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng);
    let mut target = Assembly::new(format!("{name}-target"));
    target.push("chr1", pair.target.sequence);
    let mut query = Assembly::new(format!("{name}-query"));
    query.push("chr1", pair.query.sequence);
    (target, query)
}

/// Four one-chromosome genomes: `h0`/`h1` and `h2`/`h3` are related
/// pairs, every other genome pair is unrelated.
fn four_genomes() -> Vec<Assembly> {
    let mut rng = StdRng::seed_from_u64(41);
    let mut genomes = Vec::new();
    for _ in 0..2 {
        let pair = SyntheticPair::generate(8_000, &EvolutionParams::at_distance(0.15), &mut rng);
        for sequence in [pair.target.sequence, pair.query.sequence] {
            let mut genome = Assembly::new(format!("h{}", genomes.len()));
            genome.push("chr1", sequence);
            genomes.push(genome);
        }
    }
    genomes
}

/// One line per chromosome pair of `target` × `query`, read from the
/// journal at `path`.
fn journal_lines(
    input: &str,
    path: &Path,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
) -> String {
    let mut journal = Journal::open(path, &params_fingerprint(params)).expect("journal opens");
    let mut out = String::new();
    for t in target.chromosomes() {
        for q in query.chromosomes() {
            let record = journal
                .take(&t.name, &q.name)
                .unwrap_or_else(|| panic!("{input}: no record for {} × {}", t.name, q.name));
            let (w, c) = (&record.workload, &record.counters);
            let alignments = record.alignments.iter();
            let matched: u64 = alignments.map(|a| a.alignment.matches()).sum();
            write!(out, "{input}\t{}\t{}", t.name, q.name).unwrap();
            for count in [
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
            ] {
                write!(out, "\t{count}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

/// The lines of one pair, run at `threads` with a checkpoint in
/// `scratch`.
fn align_lines(
    input: &str,
    params: &WgaParams,
    (target, query): (Assembly, Assembly),
    threads: usize,
    scratch: &Path,
) -> String {
    let path = scratch.join(format!("{input}.journal"));
    let options = AlignOptions {
        threads,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    align_assemblies_with(params, &target, &query, &options).expect("run succeeds");
    journal_lines(input, &path, params, &target, &query)
}

/// The lines of each genome pair of one `wga many` set, run at `threads`
/// with a checkpoint directory in `scratch`.
fn many_lines(genomes: &[Assembly], threads: usize, scratch: &Path) -> String {
    let params = WgaParams::darwin_wga();
    let dir = scratch.join(format!("many-{}", genomes.len()));
    let options = ManyOptions {
        threads,
        checkpoint_dir: Some(dir.clone()),
        ..ManyOptions::default()
    };
    pangenome::align_many(&params, genomes, &options).expect("many run succeeds");
    let scaled = scaled_params(&params, genomes.len());
    let mut out = String::new();
    for a in 0..genomes.len() {
        for b in a + 1..genomes.len() {
            let path = dir.join(format!("pair_{a:03}_{b:03}.journal"));
            let input = format!("many_{}_{}", genomes[a].name, genomes[b].name);
            out += &journal_lines(&input, &path, &scaled, &genomes[a], &genomes[b]);
        }
    }
    out
}

/// A fresh scratch directory named after `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    let scratch =
        std::env::temp_dir().join(format!("wga-work-counts-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).unwrap();
    scratch
}

fn golden_pair(input: &str) -> (Assembly, Assembly) {
    let target = load("golden-target", &format!("{input}.target.fa"));
    let query = load("golden-query", &format!("{input}.query.fa"));
    (target, query)
}

/// The work-count text of every input, run at `threads`.
fn work_counts(threads: usize) -> String {
    let scratch = scratch_dir(&threads.to_string());
    let params = WgaParams::darwin_wga();
    let mut out = String::new();
    for input in ["golden", "golden_n"] {
        out += &align_lines(input, &params, golden_pair(input), threads, &scratch);
    }
    for (input, distance, seed) in [("near", 0.30, 51), ("far", 1.30, 52)] {
        let pair = evolved_pair(input, 20_000, distance, seed);
        out += &align_lines(input, &params, pair, threads, &scratch);
    }
    for genomes in [multi_chromosome_genomes(), four_genomes()] {
        out += &many_lines(&genomes, threads, &scratch);
    }
    let _ = fs::remove_dir_all(&scratch);
    out
}

/// The golden pair's lines under `params`, at one thread.
fn golden_lines(params: &WgaParams, tag: &str) -> String {
    let scratch = scratch_dir(tag);
    let out = align_lines("golden", params, golden_pair("golden"), 1, &scratch);
    let _ = fs::remove_dir_all(&scratch);
    out
}

#[test]
fn work_counts_are_pinned_on_every_schedule() {
    let serial = work_counts(1);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::write(data("work_counts.txt"), &serial).unwrap();
        println!("regenerated {}", data("work_counts.txt").display());
        return;
    }
    let expected = fs::read_to_string(data("work_counts.txt"))
        .expect("work_counts.txt present — regenerate with GOLDEN_REGEN=1");
    assert_eq!(serial, expected, "--threads 1");
    for threads in [2, 3] {
        assert_eq!(work_counts(threads), expected, "--threads {threads}");
    }
    let golden: String = expected
        .lines()
        .filter(|line| line.starts_with("golden\t"))
        .map(|line| format!("{line}\n"))
        .collect();
    let scalar = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
    assert_eq!(golden_lines(&scalar, "scalar"), golden, "scalar engine");
    let narrow = WgaParams {
        shard_bases: 128,
        ..WgaParams::darwin_wga()
    };
    assert_eq!(
        golden_lines(&narrow, "shard-128"),
        golden,
        "shard_bases 128"
    );
}
