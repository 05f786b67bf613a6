//! Every byte `wga generate` writes is a function of its arguments.
//!
//! All of the repository's inputs — the ledger's workloads, the golden
//! pairs, every seeded differential — come out of `wga generate` /
//! `SyntheticPair::generate`, so a generator that draws one number more,
//! fewer or in another order silently changes what every measurement is
//! taken on. `tests/data/generate_golden.txt` holds the FNV-1a 64 of the
//! three files each call below writes, recorded with the binary of commit
//! b44c3d6 (PR 23) — before the keystream was vectorised and the evolve
//! loop rewritten — so it pins that a faster generator is the same
//! generator.
//!
//! The calls are the seven the performance ledger makes (`bench/`), the
//! two ends of `--distance`, a `--len` that does not divide by `--chroms`,
//! and a 1 Mbp pair, the smallest size at which segmental duplications
//! fire in both lineages.
//!
//! Regenerate only for an *intended* change of the generated sequences,
//! and say why in CHANGES.md:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test generate_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// `(prefix, the arguments after it)`.
const CALLS: [(&str, &[&str]); 11] = [
    ("near", &["--len", "50000", "--distance", "0.30", "--seed", "1", "--chroms", "1"]),
    ("far", &["--len", "80000", "--distance", "1.30", "--seed", "2", "--chroms", "1"]),
    ("chroms", &["--len", "60000", "--distance", "0.30", "--seed", "3", "--chroms", "4"]),
    ("c0", &["--len", "20000", "--distance", "0.15", "--seed", "11", "--chroms", "1"]),
    ("c1", &["--len", "20000", "--distance", "0.15", "--seed", "12", "--chroms", "1"]),
    ("c2", &["--len", "20000", "--distance", "0.15", "--seed", "13", "--chroms", "1"]),
    ("c3", &["--len", "20000", "--distance", "0.15", "--seed", "14", "--chroms", "1"]),
    ("identical", &["--len", "30000", "--distance", "0", "--seed", "5"]),
    ("saturated", &["--len", "30000", "--distance", "2.5", "--seed", "6"]),
    ("uneven", &["--len", "70001", "--chroms", "7", "--seed", "7"]),
    ("big", &["--len", "1000000", "--distance", "0.5", "--seed", "2"]),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every call in a fresh directory and renders the hashes as the
/// golden file spells them.
fn generated() -> String {
    let dir = std::env::temp_dir().join(format!("wga-generate-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    for (prefix, args) in CALLS {
        let out = Command::new(env!("CARGO_BIN_EXE_wga"))
            .current_dir(&dir)
            .args(["generate", prefix])
            .args(args)
            .output()
            .expect("spawn wga");
        assert!(out.status.success(), "{prefix}: {}", String::from_utf8_lossy(&out.stderr));
        writeln!(text, "# wga generate {prefix} {}", args.join(" ")).unwrap();
        for suffix in ["target.fa", "query.fa", "exons.tsv"] {
            let name = format!("{prefix}.{suffix}");
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            writeln!(text, "{:016x} {name}", fnv1a64(&bytes)).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn generated_files_hash_to_the_recorded_values() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/generate_golden.txt");
    let text = generated();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&golden, &text).unwrap();
        return;
    }
    let recorded = std::fs::read_to_string(&golden).expect("tests/data/generate_golden.txt");
    for (got, want) in text.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "a generated file changed");
    }
    assert_eq!(text.lines().count(), recorded.lines().count());
}

#[test]
fn fnv1a64_matches_its_published_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
