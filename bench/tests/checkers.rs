//! The output checkers and `matched_bp` counters against the repository's
//! golden files.

use std::path::{Path, PathBuf};
use wga_ledger::inputs::scrubbed_command;
use wga_ledger::paths::Paths;
use wga_ledger::{fasta, verify};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../tests/data")
        .join(name)
}

#[test]
fn paf_counter_sums_column_ten_of_the_golden_paf() {
    let text = std::fs::read_to_string(golden("golden.paf")).unwrap();
    let expected: u64 = text
        .lines()
        .map(|l| l.split('\t').nth(9).unwrap().parse::<u64>().unwrap())
        .sum();
    let summary = verify::check_paf(&text, None).unwrap();
    assert_eq!(summary.records, text.lines().count() as u64);
    assert_eq!(summary.matched_bp, expected);
    assert!(expected > 0);

    // The stated lengths are checked against the sequences when known.
    let lengths = |name: &str| -> Option<usize> {
        let (genome, chrom) = name.split_once('.')?;
        let file = if genome == "golden-target" {
            "golden.target.fa"
        } else {
            "golden.query.fa"
        };
        fasta::read(&golden(file))
            .unwrap()
            .iter()
            .find(|r| r.name() == chrom)
            .map(|r| r.bases.len())
    };
    assert_eq!(verify::check_paf(&text, Some(&lengths)).unwrap(), summary);
    let wrong = |_: &str| Some(1usize);
    assert!(verify::check_paf(&text, Some(&wrong))
        .unwrap_err()
        .contains("stated length"));
}

#[test]
fn paf_records_outside_their_sequences_are_rejected() {
    let good = "q\t100\t10\t90\t+\tt\t200\t20\t100\t70\t80\t255\n";
    assert_eq!(verify::check_paf(good, None).unwrap().matched_bp, 70);
    for bad in [
        "q\t100\t10\t101\t+\tt\t200\t20\t100\t70\t80\t255\n",
        "q\t100\t10\t90\t+\tt\t200\t120\t100\t70\t80\t255\n",
        "q\t100\t10\t90\t+\tt\t200\t20\t100\t81\t80\t255\n",
        "q\t100\t10\t90\t*\tt\t200\t20\t100\t70\t80\t255\n",
        "q\t100\t10\t90\t+\tt\t200\t20\t100\t70\n",
    ] {
        assert!(verify::check_paf(bad, None).is_err(), "{bad}");
    }
}

#[test]
fn maf_counter_and_block_checker_on_the_golden_pair() {
    let paths = Paths::locate();
    paths.build_wga().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkers-maf");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = scrubbed_command(&paths.wga(), &dir)
        .arg("align")
        .args([golden("golden.target.fa"), golden("golden.query.fa")])
        .args(["--maf", "golden.maf"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The program's own count, printed in its run summary.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let printed: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("matched base pairs:"))
        .expect("the run summary prints matched base pairs")
        .trim()
        .parse()
        .unwrap();

    let target = fasta::read(&golden("golden.target.fa")).unwrap();
    let query = fasta::read(&golden("golden.query.fa")).unwrap();
    let maf = std::fs::read_to_string(dir.join("golden.maf")).unwrap();
    let summary = verify::check_maf(&maf, &target, &query).unwrap();
    assert!(summary.blocks > 0);
    assert_eq!(summary.matched_bp, printed);
    assert_eq!(summary.target_intervals.len() as u64, summary.blocks);

    // One corrupted block: a base of the first target text swapped.
    let line = maf.lines().position(|l| l.starts_with("s ")).unwrap();
    let corrupt = |edit: &dyn Fn(&str) -> String| -> String {
        maf.lines()
            .enumerate()
            .map(|(i, l)| if i == line { edit(l) } else { l.to_string() } + "\n")
            .collect()
    };
    let swapped = corrupt(&|l| {
        let cut = l.rfind(' ').unwrap() + 1;
        let first = if l.as_bytes()[cut] == b'A' { 'C' } else { 'A' };
        format!("{}{first}{}", &l[..cut], &l[cut + 1..])
    });
    assert!(verify::check_maf(&swapped, &target, &query)
        .unwrap_err()
        .contains("not the FASTA's"));
    // And one whose coordinates are off by one.
    let shifted = corrupt(&|l| {
        let fields: Vec<&str> = l.split(' ').collect();
        let start: usize = fields[2].parse().unwrap();
        l.replacen(&format!(" {start} "), &format!(" {} ", start + 1), 1)
    });
    assert!(verify::check_maf(&shifted, &target, &query).is_err());
    // The query of another pair is not this MAF's query.
    assert!(verify::check_maf(&maf, &target, &target).is_err());
}

#[test]
fn reverse_strand_blocks_are_checked_on_the_reverse_complement() {
    let target = fasta::parse(">t\nAACCGGTT\n").unwrap();
    let query = fasta::parse(">q\nTTTACCGG\n").unwrap();
    // Reverse complement of the query is CCGGTAAA; CCGG sits at 0..4 there.
    let maf = "##maf version=1\na score=1\ns t 2 4 + 8 CCGG\ns q 0 4 - 8 CCGG\n\n";
    assert_eq!(
        verify::check_maf(maf, &target, &query).unwrap().matched_bp,
        4
    );
    let forward = maf.replace(" - ", " + ");
    assert!(verify::check_maf(&forward, &target, &query).is_err());
}
