//! Inputs are a function of the seed: the same seed gives the same bytes,
//! another seed gives other bytes holding the same bases.

use std::path::PathBuf;
use wga_ledger::paths::Paths;
use wga_ledger::{dict, fasta, inputs};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    let paths = Paths::locate();
    paths.build_wga().unwrap();
    // The smallest workload that has more than one generator call.
    let workload = dict::workload("many8").unwrap();
    let generate = |name: &str, seed: u64| {
        let dir = scratch(name);
        inputs::generate(&paths.wga(), workload, seed, &dir).unwrap();
        inputs::read_all(workload, &dir).unwrap()
    };
    let first = generate("inputs-a", 7);
    assert_eq!(first, generate("inputs-b", 7), "seed 7 twice");
    let other = generate("inputs-c", 8);
    assert_ne!(first, other, "seeds 7 and 8");

    // Another seed is another origin, not another genome: every sequence
    // keeps its length and its bases.
    let files = inputs::fasta_files(workload).len();
    for (a, b) in first.iter().zip(&other).take(files) {
        let (a, b) = (
            fasta::parse(std::str::from_utf8(a).unwrap()).unwrap(),
            fasta::parse(std::str::from_utf8(b).unwrap()).unwrap(),
        );
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.header, b.header);
            assert_ne!(a.bases, b.bases);
            let doubled = [a.bases.as_slice(), a.bases.as_slice()].concat();
            assert!(
                doubled
                    .windows(b.bases.len())
                    .any(|w| w == b.bases.as_slice()),
                "{} is not a rotation",
                a.header
            );
        }
    }
}

#[test]
fn seed_one_is_the_generator_output_untouched() {
    assert_eq!(fasta::rotation_q32(1), 0);
    let mut seen = std::collections::BTreeSet::new();
    for seed in 1..=64 {
        assert!(
            seen.insert(fasta::rotation_q32(seed)),
            "seed {seed} repeats a rotation"
        );
    }
    let mut records = fasta::parse(">chr1 demo\nACGTT\nGA\n").unwrap();
    assert_eq!(records[0].bases, b"ACGTTGA");
    fasta::rotate(&mut records, 0);
    assert_eq!(records[0].bases, b"ACGTTGA");
    fasta::rotate(&mut records, 1 << 31);
    assert_eq!(records[0].bases, b"TTGAACG", "half of 7 rounds down to 3");
    assert_eq!(fasta::render(&records), ">chr1 demo\nTTGAACG\n");
}
