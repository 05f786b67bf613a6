//! Edge-case and failure-injection integration tests: degenerate inputs
//! must produce sane (empty or small) results, never panics.

use darwin_wga::core::{config::WgaParams, pipeline::WgaPipeline};
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{Base, Sequence};
use rand::SeedableRng;

fn run(target: &Sequence, query: &Sequence) -> darwin_wga::core::WgaReport {
    WgaPipeline::new(WgaParams::darwin_wga()).run(target, query)
}

#[test]
fn empty_and_tiny_sequences() {
    let empty = Sequence::new();
    let tiny: Sequence = "ACGT".parse().unwrap();
    let normal: Sequence = "ACGTACGTACGTACGTACGTACGT".parse().unwrap();
    for (t, q) in [
        (&empty, &empty),
        (&empty, &normal),
        (&normal, &empty),
        (&tiny, &tiny),
        (&tiny, &normal),
    ] {
        let report = run(t, q);
        assert!(report.alignments.is_empty());
    }
}

#[test]
fn all_n_sequences_never_align() {
    let ns: Sequence = (0..5000).map(|_| Base::N).collect();
    let report = run(&ns, &ns);
    assert_eq!(report.counters.raw_seed_hits, 0);
    assert!(report.alignments.is_empty());
}

#[test]
fn identical_sequences_align_fully() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let s = darwin_wga::genome::markov::MarkovModel::genome_like().generate(20_000, &mut rng);
    let report = run(&s, &s);
    // One (or a few) alignments covering essentially everything.
    assert!(report.total_matches() as f64 > 0.99 * s.len() as f64);
}

#[test]
fn zero_distance_pair_is_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let pair = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.0), &mut rng);
    assert_eq!(pair.target.sequence, pair.query.sequence);
    let len = pair.target.sequence.len();
    assert_eq!(pair.orthologous_runs(), vec![(0, 0, len)]);
}

#[test]
fn extreme_evolution_parameters_do_not_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for params in [
        EvolutionParams {
            conserved_fraction: 0.0,
            ..EvolutionParams::at_distance(0.5)
        },
        EvolutionParams {
            conserved_fraction: 0.9,
            conserved_mean_len: 50,
            ..EvolutionParams::at_distance(0.5)
        },
        EvolutionParams {
            indels_per_substitution: 0.0,
            turnover_per_kb: 0.0,
            duplications_per_mbp: 0.0,
            ..EvolutionParams::at_distance(0.3)
        },
        EvolutionParams {
            distance: 2.5, // saturated
            ..EvolutionParams::default()
        },
    ] {
        let pair = SyntheticPair::generate(4_000, &params, &mut rng);
        assert!(pair.target.sequence.len() > 1_000);
        let _ = run(&pair.target.sequence, &pair.query.sequence);
    }
}

#[test]
fn asymmetric_lengths() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let model = darwin_wga::genome::markov::MarkovModel::genome_like();
    let long = model.generate(30_000, &mut rng);
    let short = long.subsequence(12_000..13_000);
    // Query is a tiny window of the target: must be found, once.
    let report = run(&long, &short);
    assert!(!report.alignments.is_empty());
    let best = &report.alignments[0].alignment;
    assert!(best.matches() >= 990, "{}", best.matches());
    assert!((11_900..12_100).contains(&best.target_start));
}

#[test]
fn n_runs_inside_sequences_are_handled() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let model = darwin_wga::genome::markov::MarkovModel::genome_like();
    let left = model.generate(5_000, &mut rng);
    let right = model.generate(5_000, &mut rng);
    let mut t = left.clone();
    t.extend((0..500).map(|_| Base::N));
    t.extend(right.iter());
    let mut q = left;
    q.extend((0..480).map(|_| Base::N));
    q.extend(right.iter());
    let report = run(&t, &q);
    // Both flanks align; no alignment may claim matched Ns.
    assert!(report.total_matches() >= 9_800);
    for wa in &report.alignments {
        wa.alignment.validate(&t, &q).unwrap();
    }
}

/// Malformed user input must exit with code 1 and a single clean error
/// line — never a panic, never a backtrace.
mod cli {
    use darwin_wga::core::json;
    use std::path::PathBuf;
    use std::process::{Command, Output};

    fn tmp(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("wga-edge-{}-{}", std::process::id(), name));
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn wga(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_wga"))
            .args(args)
            .output()
            .expect("spawn wga")
    }

    /// Asserts a clean failure: exit code 1, exactly one stderr line, and
    /// it is an `error:` line (not a panic message).
    fn assert_clean_failure(out: &Output, expect: &str) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "stderr: {stderr}");
        assert!(lines[0].starts_with("error:"), "stderr: {stderr}");
        assert!(lines[0].contains(expect), "stderr: {stderr}");
    }

    #[test]
    fn align_rejects_empty_fasta() {
        let path = tmp("empty.fa", "");
        let out = wga(&["align", path.to_str().unwrap(), path.to_str().unwrap()]);
        assert_clean_failure(&out, "no records");
    }

    #[test]
    fn align_rejects_sequence_before_header() {
        let good = tmp("truncated-good.fa", ">chr1\nACGTACGT\n");
        // A FASTA truncated such that data precedes the first header.
        let bad = tmp("truncated.fa", "ACGTACGT\n>chr1\nACGT\n");
        let out = wga(&["align", bad.to_str().unwrap(), good.to_str().unwrap()]);
        assert_clean_failure(&out, "header");
    }

    #[test]
    fn align_rejects_invalid_bases() {
        let good = tmp("badbyte-good.fa", ">chr1\nACGTACGT\n");
        let bad = tmp("badbyte.fa", ">chr1\nACGT@CGT\n");
        let out = wga(&["align", good.to_str().unwrap(), bad.to_str().unwrap()]);
        assert_clean_failure(&out, "invalid sequence byte");
    }

    #[test]
    fn align_names_the_line_of_a_non_utf8_sequence_byte() {
        let good = tmp("latin1-good.fa", ">chr1\nACGTACGT\n");
        let bad = tmp("latin1.fa", "");
        std::fs::write(&bad, b">chr1\nACGT\nAC\xe9T\n").unwrap();
        let out = wga(&["align", good.to_str().unwrap(), bad.to_str().unwrap()]);
        assert_clean_failure(&out, "line 3: invalid sequence byte 0xe9");
    }

    #[test]
    fn align_rejects_duplicate_record_names() {
        let good = tmp("dup-good.fa", ">chr1\nACGTACGT\n");
        let bad = tmp("dup.fa", ">chr1\nACGT\n>chr1\nTTTT\n");
        let out = wga(&["align", bad.to_str().unwrap(), good.to_str().unwrap()]);
        assert_clean_failure(&out, "duplicate record name");
    }

    /// `align` and `many` check every option and output path before they
    /// read the first input byte: with FASTAs that do not exist, the
    /// error names the bad value, not the missing file.
    #[test]
    fn align_and_many_reject_a_bad_option_before_reading_a_fasta() {
        let dir = std::env::temp_dir().join(format!("wga-edge-no-such-dir-{}", std::process::id()));
        let (fa, out) = (dir.join("in.fa"), dir.join("out.maf"));
        let (fa, out) = (fa.to_str().unwrap(), out.to_str().unwrap());
        let shared: [(&[&str], &str); 4] = [
            (&["--threads", "0"], "threads must be"),
            (&["--threads", "1000000"], "threads must be at most 1024"),
            (&["--shard-size", "0"], "shard_bases"),
            (&["--filter-engine", "batched"], r#""scalar" or "simd""#),
        ];
        let align = [(&["--maf", out][..], "out.maf")];
        let many = [
            (&["--paf-out", out][..], "out.maf"),
            (&["--knn", "0"], "knn must be"),
        ];
        for (command, own) in [("align", &align[..]), ("many", &many)] {
            for &(bad, named) in shared.iter().chain(own) {
                let run = wga(&[&[command, fa, fa][..], bad].concat());
                assert_clean_failure(&run, named);
                assert!(!String::from_utf8_lossy(&run.stderr).contains("in.fa"));
            }
            // The queue's depth is fixed: `--queue-depth` is no option.
            let run = wga(&[command, fa, fa, "--queue-depth", "4"]);
            assert_option_rejected(&run, "--queue-depth");
            assert!(!String::from_utf8_lossy(&run.stderr).contains("in.fa"));
        }
    }

    /// `--metrics-out` / `--trace-out` pointing at an unwritable path
    /// must fail before the run starts: exactly one stderr line means
    /// the "aligning ..." banner (printed after the files are opened)
    /// never appeared.
    #[test]
    fn align_metrics_out_fails_fast_on_unwritable_path() {
        let good = tmp("obs-good.fa", ">chr1\nACGTACGT\n");
        let missing = std::env::temp_dir()
            .join(format!("wga-edge-no-such-dir-{}", std::process::id()))
            .join("m.json");
        let out = wga(&[
            "align",
            good.to_str().unwrap(),
            good.to_str().unwrap(),
            "--metrics-out",
            missing.to_str().unwrap(),
        ]);
        assert_clean_failure(&out, "m.json");
    }

    #[test]
    fn align_trace_out_fails_fast_on_unwritable_path() {
        let good = tmp("obs-trace-good.fa", ">chr1\nACGTACGT\n");
        let missing = std::env::temp_dir()
            .join(format!("wga-edge-no-such-dir-{}", std::process::id()))
            .join("t.jsonl");
        let out = wga(&[
            "align",
            good.to_str().unwrap(),
            good.to_str().unwrap(),
            "--trace-out",
            missing.to_str().unwrap(),
        ]);
        assert_clean_failure(&out, "t.jsonl");
    }

    /// `--metrics-out` alone records the run's spans, and writes their
    /// profile — the run's filter batches among its stages — with the
    /// process's memory.
    #[test]
    fn align_metrics_out_profiles_a_run_without_a_trace_out() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40);
        let fa = tmp("obs-metrics.fa", &format!(">chr1\n{core}\n"));
        let metrics =
            std::env::temp_dir().join(format!("wga-edge-metrics-{}.json", std::process::id()));
        let out = wga(&[
            "align",
            fa.to_str().unwrap(),
            fa.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        let _ = std::fs::remove_file(&metrics);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("stage metrics"), "stdout: {stdout}");
        // The process's memory from /proc/self/status. The kernel keeps
        // VmHWM at least the resident set it last saw, and the resident
        // set is anonymous + file-backed + shared-memory pages.
        let doc = json::parse(json.trim_end()).expect("metrics JSON parses");
        let process = doc
            .get("process")
            .unwrap_or_else(|| panic!("no process key: {json}"));
        let kb = |key: &str| {
            process
                .u64(key)
                .unwrap_or_else(|e| panic!("process: {e}: {json}"))
        };
        let (hwm, anon, file) = (kb("vm_hwm_kb"), kb("rss_anon_kb"), kb("rss_file_kb"));
        assert!(anon > 0 && file > 0, "{json}");
        assert!(anon + file <= hwm, "{json}");
        assert_eq!(doc.u64("profile_schema"), Ok(2), "{json}");
        let stages = doc.arr("stages").unwrap_or_else(|e| panic!("{e}: {json}"));
        let batch = (stages.iter())
            .find(|stage| stage.str("stage") == Ok("filter.batch"))
            .unwrap_or_else(|| panic!("no filter.batch stage: {json}"));
        assert!(batch.u64("spans").is_ok_and(|spans| spans > 0), "{json}");
    }

    /// The metrics file is written last, so its `"process"` high-water
    /// covers the whole command: chaining, the MAF and the trace too.
    #[test]
    fn align_writes_the_metrics_file_after_every_other_output() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40);
        let fa = tmp("obs-last.fa", &format!(">chr1\n{core}\n"));
        let out_path = |ext: &str| {
            std::env::temp_dir().join(format!("wga-edge-last-{}.{ext}", std::process::id()))
        };
        let (metrics, maf, trace) = (out_path("json"), out_path("maf"), out_path("jsonl"));
        let out = wga(&[
            "align",
            fa.to_str().unwrap(),
            fa.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--maf",
            maf.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        for path in [&metrics, &maf, &trace] {
            let _ = std::fs::remove_file(path);
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let at = |line: &str| {
            stdout
                .find(line)
                .unwrap_or_else(|| panic!("no {line:?} in stdout: {stdout}"))
        };
        assert!(at("MAF written") < at("trace written"), "stdout: {stdout}");
        assert!(
            at("trace written") < at("stage metrics written"),
            "stdout: {stdout}"
        );
        let doc = json::parse(json.trim_end()).expect("metrics JSON parses");
        assert!(doc.get("process").is_some(), "{json}");
    }

    #[test]
    fn align_accepts_crlf_lowercase_and_n_runs() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40);
        let target = tmp(
            "crlf-target.fa",
            &format!(">chr1 desc\r\n{}\r\nNNNN\r\n", core),
        );
        let query = tmp(
            "crlf-query.fa",
            &format!(">chr1\n{}\nnnnn\n", core.to_lowercase()),
        );
        let out = wga(&["align", target.to_str().unwrap(), query.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("matched base pairs"), "stdout: {stdout}");
    }

    #[test]
    fn align_accepts_header_only_records() {
        let good = tmp("headeronly-good.fa", ">chr1\nACGTACGT\n");
        let empty_record = tmp("headeronly.fa", ">chr1\n");
        let out = wga(&[
            "align",
            good.to_str().unwrap(),
            empty_record.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    }

    #[test]
    fn exons_rejects_bad_maf_block() {
        let maf = tmp("bad.maf", "##maf version=1\na score=12\nnot an s line\n");
        let exons = tmp("bad-maf-exons.tsv", "chr1\te0\t0\t100\n");
        let out = wga(&["exons", maf.to_str().unwrap(), exons.to_str().unwrap()]);
        assert_clean_failure(&out, "expected 's' line");
    }

    #[test]
    fn exons_rejects_bad_exon_table() {
        let maf = tmp("empty.maf", "##maf version=1\n");
        let exons = tmp("bad-exons.tsv", "only-two\tfields\n");
        let out = wga(&["exons", maf.to_str().unwrap(), exons.to_str().unwrap()]);
        assert_clean_failure(&out, "bad line");
        let exons = tmp("reversed-exons.tsv", "chr1\texon_1\t90\t10\n");
        let out = wga(&["exons", maf.to_str().unwrap(), exons.to_str().unwrap()]);
        assert_clean_failure(&out, "bad line");
    }

    #[test]
    fn exons_rejects_a_coverage_outside_zero_to_one() {
        let maf = tmp("cov.maf", "##maf version=1\n");
        let exons = tmp("cov-exons.tsv", "chr1\texon_1\t10\t90\n");
        let (maf, exons) = (maf.to_str().unwrap(), exons.to_str().unwrap());
        for bad in ["nan", "-1", "0", "1.5", "inf"] {
            let out = wga(&["exons", maf, exons, "--coverage", bad]);
            assert_clean_failure(&out, "invalid value for --coverage");
        }
        let out = wga(&["exons", maf, exons, "--coverage", "1"]);
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0/1 exons covered at >= 100%"), "{stdout}");
    }

    /// Every prefix of a small exon table, and every one-byte substitution
    /// of it from a handful of troublemakers, reads or fails with an
    /// `error:` line: never a panic.
    #[test]
    fn exons_table_adversaries_fail_cleanly() {
        let maf = tmp("adv.maf", "##maf version=1\n");
        let table = b"#chrom\tlabel\tstart\tend\nchr1\texon_1\t10\t90\nexon_2\t100\t120\n";
        let path = std::env::temp_dir().join(format!("wga-edge-{}-adv.tsv", std::process::id()));
        let mut cases: Vec<Vec<u8>> = (0..table.len()).map(|n| table[..n].to_vec()).collect();
        for at in 0..table.len() {
            for byte in [b'\t', b'\n', b'-', b'9', b'x', 0xFF] {
                let mut case = table.to_vec();
                case[at] = byte;
                cases.push(case);
            }
        }
        for case in cases {
            std::fs::write(&path, &case).unwrap();
            let out = wga(&["exons", maf.to_str().unwrap(), path.to_str().unwrap()]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let shown = String::from_utf8_lossy(&case);
            match out.status.code() {
                Some(0) => {}
                Some(1) => assert!(stderr.starts_with("error:"), "{shown:?}: {stderr}"),
                code => panic!("{shown:?}: exit {code:?}: {stderr}"),
            }
        }
    }

    /// A fresh empty directory to run `wga` in, so a test can see every
    /// file the run wrote.
    fn empty_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wga-edge-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wga_in(dir: &std::path::Path, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_wga"))
            .current_dir(dir)
            .args(args)
            .output()
            .expect("spawn wga")
    }

    fn files_in(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Asserts the failure of a misspelt or repeated option: exit 1, an
    /// `error:` line naming the argument, then the usage text.
    fn assert_option_rejected(out: &Output, arg: &str) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: unknown or repeated option {arg}").as_str()),
            "stderr: {stderr}"
        );
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
    }

    #[test]
    fn help_prints_usage_and_runs_nothing_in_every_subcommand() {
        let dir = empty_dir("help");
        for args in [
            &["--help"][..],
            &["-h"],
            &["generate", "--help"],
            &["generate", "demo", "-h"],
            &["align", "--help"],
            &["exons", "--help"],
            &["many", "a.fa", "--help"],
            &["profile", "report", "--help"],
        ] {
            let out = wga_in(&dir, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
            assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
            // `--threads` alone picks the schedule.
            assert!(!stderr.contains("--executor"), "{args:?}: {stderr}");
            assert!(
                stderr.contains("wga generate <prefix>"),
                "{args:?}: {stderr}"
            );
        }
        // In particular no `--help.target.fa`.
        assert_eq!(files_in(&dir), Vec::<String>::new());
    }

    #[test]
    fn generate_usage_lists_chroms_and_rejects_unknown_options() {
        let dir = empty_dir("generate-options");
        let out = wga_in(&dir, &["generate", "demo", "--lenn", "500"]);
        assert_option_rejected(&out, "--lenn");
        let usage = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(usage.contains("[--seed S] [--chroms N]"), "{usage}");
        let out = wga_in(&dir, &["generate", "demo", "--len", "500", "--len", "600"]);
        assert_option_rejected(&out, "--len");
        // An option where the prefix belongs is not a prefix.
        let out = wga_in(&dir, &["generate", "--prefix"]);
        assert_option_rejected(&out, "--prefix");
        assert_eq!(files_in(&dir), Vec::<String>::new());
        // And the accepted form still works.
        let out = wga_in(&dir, &["generate", "demo", "--len", "600", "--chroms", "2"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            files_in(&dir),
            ["demo.exons.tsv", "demo.query.fa", "demo.target.fa"]
        );
    }

    #[test]
    fn generate_names_a_stray_positional() {
        let dir = empty_dir("generate-stray");
        // Used to exit 0 having written `x.*` and ignored `y`.
        for args in [
            &["generate", "x", "y", "--len", "100"][..],
            &["generate", "x", "--len", "100", "y"],
        ] {
            let out = wga_in(&dir, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert_eq!(
                stderr.lines().next(),
                Some("error: unexpected argument y: generate takes one <prefix>"),
                "{args:?}: {stderr}"
            );
            assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        }
        assert_eq!(files_in(&dir), Vec::<String>::new());
    }

    #[test]
    fn generate_rejects_a_non_finite_or_negative_distance() {
        let dir = empty_dir("generate-distance");
        for bad in ["inf", "nan", "-1"] {
            let out = wga_in(
                &dir,
                &["generate", "demo", "--len", "3000", "--distance", bad],
            );
            assert_clean_failure(&out, "invalid value for --distance");
        }
        assert_eq!(files_in(&dir), Vec::<String>::new());
    }

    #[test]
    fn generate_rejects_a_length_it_cannot_honour() {
        let dir = empty_dir("generate-length");
        // Both used to exit 0 with FASTA records of no bases.
        let out = wga_in(&dir, &["generate", "demo", "--len", "0"]);
        assert_clean_failure(&out, "--len must be at least --chroms (0 < 1)");
        let out = wga_in(&dir, &["generate", "demo", "--len", "10", "--chroms", "20"]);
        assert_clean_failure(&out, "--len must be at least --chroms (10 < 20)");
        // A descendant position is a `u32`: the ancestor fits one, its
        // descendants at this distance (2.75 bases a base) would not.
        let out = wga_in(
            &dir,
            &[
                "generate",
                "demo",
                "--len",
                "4000000000",
                "--chroms",
                "2",
                "--distance",
                "1.3",
            ],
        );
        assert_clean_failure(&out, "exceed the 4294967294 a coordinate map can address");
        assert_eq!(files_in(&dir), Vec::<String>::new());
        // One base a chromosome is a length it can.
        let out = wga_in(&dir, &["generate", "demo", "--len", "3", "--chroms", "3"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn align_names_a_repeated_or_misspelt_option() {
        let good = tmp("options-good.fa", ">chr1\nACGTACGT\n");
        let good = good.to_str().unwrap();
        // Used to surface as "align needs <target.fa> <query.fa>".
        let out = wga(&["align", good, good, "--threads", "1", "--threads", "2"]);
        assert_option_rejected(&out, "--threads");
        let out = wga(&["align", good, good, "--thread", "2"]);
        assert_option_rejected(&out, "--thread");
        let out = wga(&["align", good, good, "--baseline", "--baseline"]);
        assert_option_rejected(&out, "--baseline");
        // A retired knob is an option no longer.
        let out = wga(&["align", good, good, "--stall-timeout-ms", "5"]);
        assert_option_rejected(&out, "--stall-timeout-ms");
        let out = wga(&["align", good, good, "--deadline-ms", "5"]);
        assert_option_rejected(&out, "--deadline-ms");
        let out = wga(&["align", good, good, "--max-seed-hits", "5"]);
        assert_option_rejected(&out, "--max-seed-hits");
        let out = wga(&["align", good, good, "--max-retries", "1"]);
        assert_option_rejected(&out, "--max-retries");
    }

    #[test]
    fn many_exons_and_profile_reject_unknown_options() {
        let fa = tmp("options-many.fa", ">chr1\nACGTACGT\n");
        let fa = fa.to_str().unwrap();
        let out = wga(&["many", fa, fa, "--knnn", "2"]);
        assert_option_rejected(&out, "--knnn");
        let out = wga(&["many", fa, fa, "--threads", "1", "--threads", "1"]);
        assert_option_rejected(&out, "--threads");
        let out = wga(&["many", fa, fa, "--stall-timeout-ms", "5"]);
        assert_option_rejected(&out, "--stall-timeout-ms");
        let out = wga(&["exons", "a.maf", "e.tsv", "--coverge", "0.5"]);
        assert_option_rejected(&out, "--coverge");
        let out = wga(&["profile", "report", "t.jsonl", "--jsn", "o.json"]);
        assert_option_rejected(&out, "--jsn");
        let out = wga(&["profile", "diff", "a.json", "b.json", "--max-drift", "1"]);
        assert_option_rejected(&out, "--max-drift");
        // The retired gate flags, and `--json`'s retired twin, are
        // options no longer.
        let out = wga(&["profile", "report", "t.jsonl", "--max-drift-centi", "0"]);
        assert_option_rejected(&out, "--max-drift-centi");
        let out = wga(&["profile", "report", "t.jsonl", "--baseline", "x.json"]);
        assert_option_rejected(&out, "--baseline");
        let out = wga(&[
            "profile",
            "diff",
            "a.json",
            "b.json",
            "--max-drift-regression-centi",
            "1",
        ]);
        assert_option_rejected(&out, "--max-drift-regression-centi");
    }

    /// Two FASTAs of one identical chromosome, `t.fa` and `q.fa`, in a
    /// fresh directory: any output of a run over them is non-empty.
    fn identical_pair_dir(name: &str) -> (PathBuf, String) {
        let dir = empty_dir(name);
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40);
        let fasta = format!(">chr1\n{core}\n");
        for input in ["t.fa", "q.fa"] {
            std::fs::write(dir.join(input), &fasta).unwrap();
        }
        (dir, fasta)
    }

    /// Every output flag of both run commands against every kind of path
    /// it could name. A run either writes the bytes where the user asked
    /// (exit 0) or fails naming the flag before it reads a FASTA (exit 1:
    /// those cases pass a query that does not exist). No input changes,
    /// `/dev/null` stays a device, and no tmp sibling is left behind.
    #[test]
    fn every_output_flag_writes_where_asked_or_fails_before_reading() {
        use std::os::unix::fs::FileTypeExt;
        use std::process::Stdio;
        let (dir, fasta) = identical_pair_dir("outputs");
        std::os::unix::fs::symlink("t.fa", dir.join("link.fa")).unwrap();
        std::fs::create_dir(dir.join("sub")).unwrap();
        std::fs::create_dir(dir.join("a-dir")).unwrap();
        // (command, flag, what its file starts with)
        let flags = [
            ("align", "--maf", "##maf"),
            ("align", "--trace-out", "{"),
            ("align", "--metrics-out", "{"),
            ("align", "--checkpoint", "{\"format\":\"wga-journal\""),
            ("many", "--paf-out", "q.chr1\t"),
            ("many", "--report-out", "genome\t"),
            ("many", "--trace-out", "{"),
            ("many", "--metrics-out", "{"),
        ];
        // (case, path, whether a replaced output writes it, a journal too)
        let cases = [
            ("regular", "out", true, true),
            ("missing", "out", true, true),
            ("an input by another spelling", "sub/../t.fa", false, false),
            ("a symbolic link to an input", "link.fa", false, false),
            ("a FIFO", "pipe", true, false),
            ("/dev/null", "/dev/null", true, false),
            ("a directory", "a-dir", false, false),
        ];
        for (command, flag, starts) in flags {
            for (case, path, replaced_ok, journal_ok) in cases {
                let ok = if flag == "--checkpoint" {
                    journal_ok
                } else {
                    replaced_ok
                };
                let what = format!("{command} {flag} {case}");
                let _ = std::fs::remove_file(dir.join("out"));
                if case == "regular" {
                    std::fs::write(dir.join("out"), "").unwrap();
                }
                // A FIFO's bytes are read as they are written.
                let reader = (case == "a FIFO").then(|| {
                    let made = Command::new("mkfifo").arg(dir.join("pipe")).status();
                    assert!(made.unwrap().success(), "{what}: mkfifo");
                    Command::new("cat")
                        .arg(dir.join("pipe"))
                        .stdout(Stdio::piped())
                        .spawn()
                        .expect("spawn cat")
                });
                let query = if ok { "q.fa" } else { "nope.fa" };
                let out = wga_in(&dir, &[command, "t.fa", query, flag, path]);
                let written = match reader {
                    Some(mut cat) if !ok => {
                        let _ = cat.kill();
                        let _ = cat.wait();
                        None
                    }
                    Some(cat) => Some(cat.wait_with_output().unwrap().stdout),
                    None if ok && path == "out" => Some(std::fs::read(dir.join("out")).unwrap()),
                    None => None,
                };
                let _ = std::fs::remove_file(dir.join("pipe"));
                if ok {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
                    if let Some(bytes) = written {
                        let text = String::from_utf8_lossy(&bytes);
                        assert!(text.starts_with(starts), "{what}: {text}");
                    }
                } else {
                    assert_clean_failure(&out, flag);
                }
                for input in ["t.fa", "q.fa"] {
                    let now = std::fs::read_to_string(dir.join(input)).unwrap();
                    assert_eq!(now, fasta, "{what} changed {input}");
                }
                let null = std::fs::metadata("/dev/null").unwrap().file_type();
                assert!(null.is_char_device(), "{what} replaced /dev/null");
                let names = files_in(&dir);
                assert!(
                    !names.iter().any(|n| n.ends_with(".tmp")),
                    "{what}: {names:?}"
                );
            }
        }
    }

    /// Two output flags naming one file, however it is spelt, or one
    /// naming the tmp sibling another stages through: a config error
    /// naming both flags, raised before anything is written.
    #[test]
    fn two_outputs_naming_one_file_is_a_config_error() {
        let (dir, _) = identical_pair_dir("one-file");
        for args in [
            &[
                "align",
                "t.fa",
                "q.fa",
                "--maf",
                "same.out",
                "--trace-out",
                "same.out",
            ][..],
            &[
                "align",
                "t.fa",
                "q.fa",
                "--maf",
                "same.out",
                "--metrics-out",
                "./same.out",
            ],
            &[
                "align",
                "t.fa",
                "q.fa",
                "--maf",
                "same.out",
                "--checkpoint",
                "same.out",
            ],
            &[
                "align",
                "t.fa",
                "q.fa",
                "--maf",
                "same.out",
                "--trace-out",
                "same.out.tmp",
            ],
            // A damaged journal is repaired through its tmp sibling.
            &[
                "align",
                "t.fa",
                "q.fa",
                "--maf",
                "j.journal.tmp",
                "--checkpoint",
                "j.journal",
            ],
            &[
                "many",
                "t.fa",
                "q.fa",
                "--paf-out",
                "same.out",
                "--report-out",
                "same.out",
            ],
            &[
                "many",
                "t.fa",
                "q.fa",
                "--trace-out",
                "same.out",
                "--metrics-out",
                "same.out",
            ],
        ] {
            let out = wga_in(&dir, args);
            assert_clean_failure(&out, args[4]);
            assert_clean_failure(&out, args[6]);
            assert_eq!(files_in(&dir), ["q.fa", "t.fa"], "{args:?}");
        }
    }

    /// A run that fails after its outputs were pre-opened removes every
    /// tmp sibling it staged.
    #[test]
    fn a_failed_run_leaves_no_tmp_sibling() {
        let (dir, _) = identical_pair_dir("litter");
        let outputs = ["--trace-out", "t.jsonl", "--metrics-out", "m.json"];
        for args in [
            &["align", "missing.fa", "q.fa", "--maf", "litter.maf"][..],
            &[
                "many",
                "t.fa",
                "missing.fa",
                "--paf-out",
                "p.paf",
                "--report-out",
                "r.txt",
            ],
        ] {
            let out = wga_in(&dir, &[args, &outputs].concat());
            assert_clean_failure(&out, "missing.fa");
            assert_eq!(files_in(&dir), ["q.fa", "t.fa"], "{args:?}");
        }
    }

    /// One side of the checked-in golden pair.
    fn golden(side: &str) -> String {
        format!("{}/tests/data/golden.{side}.fa", env!("CARGO_MANIFEST_DIR"))
    }

    /// A filter-tile budget below what the golden pair's chromosome pairs
    /// filter (127 to 268 tiles each) degrades the pairs it cuts, and
    /// cuts them alike at one thread and at two.
    #[test]
    fn align_max_filter_tiles_degrades_alike_at_one_and_two_threads() {
        let dir = empty_dir("tile-budget");
        let (t, q) = (golden("target"), golden("query"));
        let run = |threads: &str| -> (String, Vec<u8>) {
            let args = [
                "align",
                t.as_str(),
                q.as_str(),
                "--max-filter-tiles",
                "150",
                "--threads",
                threads,
                "--maf",
                "out.maf",
            ];
            let out = wga_in(&dir, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "--threads {threads}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            (stdout, std::fs::read(dir.join("out.maf")).unwrap())
        };
        let (stdout, one_thread) = run("1");
        assert!(
            stdout.contains("chromosome pairs:   1 completed, 3 degraded, 0 failed"),
            "{stdout}"
        );
        let unbudgeted = format!("{}/tests/data/golden.maf", env!("CARGO_MANIFEST_DIR"));
        assert!(
            one_thread != std::fs::read(unbudgeted).unwrap(),
            "the budget cut nothing"
        );
        let (stdout, two_threads) = run("2");
        assert!(
            stdout.contains("1 completed, 3 degraded, 0 failed"),
            "{stdout}"
        );
        assert!(two_threads == one_thread, "--threads 2 changed the MAF");
    }

    /// A version-2 journal, the golden run's before the format dropped
    /// its retired members, is refused at its header by `align` and by
    /// `many`: exit 1 naming the journal and both versions. The file keeps
    /// its bytes and its inode, so the refusal came before any repair.
    #[test]
    fn a_version_2_journal_is_refused_and_left_as_it_was() {
        use std::os::unix::fs::MetadataExt;
        let v2 = format!(
            "{}/tests/data/golden.v2.journal",
            env!("CARGO_MANIFEST_DIR")
        );
        let bytes = std::fs::read(v2).unwrap();
        let dir = empty_dir("v2-journal");
        std::fs::create_dir(dir.join("ckpt")).unwrap();
        let (t, q) = (golden("target"), golden("query"));
        for (command, checkpoint, journal) in [
            ("align", "run.journal", "run.journal"),
            ("many", "ckpt", "ckpt/pair_000_001.journal"),
        ] {
            let path = dir.join(journal);
            std::fs::write(&path, &bytes).unwrap();
            let inode = std::fs::metadata(&path).unwrap().ino();
            let out = wga_in(&dir, &[command, &t, &q, "--checkpoint", checkpoint]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
            let error = stderr.lines().last().unwrap_or_default();
            assert!(
                error.starts_with("error: checkpoint"),
                "{command}: {stderr}"
            );
            for named in [journal, "version 2", "version 3"] {
                assert!(error.contains(named), "{command}: {stderr}");
            }
            // `align` refuses it before reading either FASTA; `many`
            // plans its pairs from the genomes before it opens one.
            if command == "align" {
                assert!(!stderr.contains("aligning"), "{command}: {stderr}");
            }
            assert!(std::fs::read(&path).unwrap() == bytes, "{command}");
            assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "{command}");
        }
    }

    /// `--executor` is parsed and read by nothing: `--threads` picks the
    /// schedule, and neither changes an output byte. A value naming no
    /// schedule is still refused.
    #[test]
    fn align_executor_changes_no_output_byte() {
        let dir = empty_dir("executor");
        let (t, q) = (golden("target"), golden("query"));
        let maf_of = |flags: &[&str]| -> Vec<u8> {
            let mut args = vec!["align", t.as_str(), q.as_str(), "--maf", "out.maf"];
            args.extend_from_slice(flags);
            let out = wga_in(&dir, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{flags:?}: {stderr}");
            std::fs::read(dir.join("out.maf")).unwrap()
        };
        let one_thread = maf_of(&["--threads", "1"]);
        assert!(one_thread.starts_with(b"##maf") && one_thread.len() > 1_000);
        for flags in [
            &["--threads", "2"][..],
            &["--threads", "3"],
            &["--threads", "1", "--executor", "dataflow"],
            &["--threads", "2", "--executor", "barrier"],
            &["--threads", "2", "--executor", "dataflow"],
        ] {
            assert!(maf_of(flags) == one_thread, "{flags:?} changed the MAF");
        }
        let out = wga_in(&dir, &["align", &t, &q, "--executor", "bogus"]);
        assert_clean_failure(&out, "invalid value for --executor: bogus");
    }

    /// Both run subcommands load their genomes behind the `fasta.read`
    /// fault gate, one occurrence a file and nothing retried: an injected
    /// read error fails the run before it starts, naming the file it hit,
    /// and an occurrence no read reaches changes no output byte and
    /// counts no fault. The retry knob is an option no longer.
    #[test]
    fn many_and_align_read_their_genomes_under_the_fasta_read_hook() {
        use darwin_wga::core::obs::{SpanName, TraceLine};

        let dir = empty_dir("fasta-read");
        let (t, q) = (golden("target"), golden("query"));
        let plan_at = |at: u64| -> String {
            let path = dir.join(format!("plan{at}.json"));
            let plan = format!(
                r#"{{"format":"wga-fault-plan","version":1,"faults":[
                    {{"hook":"fasta.read","kind":"error","at":[{at}]}}]}}"#
            );
            std::fs::write(&path, plan).unwrap();
            path.to_str().unwrap().to_string()
        };
        let missed = plan_at(2);
        for (subcommand, output) in [("many", "--paf-out"), ("align", "--maf")] {
            let run = |flags: &[&str]| -> Vec<u8> {
                let mut args = vec![subcommand, t.as_str(), q.as_str(), output, "out"];
                args.extend_from_slice(flags);
                let out = wga_in(&dir, &args);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
                std::fs::read(dir.join("out")).unwrap()
            };
            let clean = run(&[]);
            assert!(!clean.is_empty());
            let observed = ["--metrics-out", "m.json", "--trace-out", "t.jsonl"];
            let unhit = run(&[&observed[..], &["--fault-plan", &missed]].concat());
            assert!(
                unhit == clean,
                "{subcommand}: an unhit plan changed the output"
            );
            let metrics = std::fs::read_to_string(dir.join("m.json")).unwrap();
            let doc = json::parse(metrics.trim_end()).expect("metrics JSON parses");
            let faults = doc.member("faults").and_then(|faults| faults.u64("spans"));
            assert_eq!(faults, Ok(0), "{subcommand}");
            assert_eq!(doc.get_u64("retries"), Ok(None), "{subcommand}");
            let trace = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
            let faults = (trace.lines())
                .map(|line| TraceLine::from_json(&json::parse(line).unwrap()).unwrap())
                .filter(|line| {
                    matches!(line, Some(TraceLine::Span(span)) if span.name == SpanName::Fault)
                })
                .count();
            assert_eq!(faults, 0, "{subcommand}");

            for (at, file) in [(0, &t), (1, &q)] {
                let out = wga_in(&dir, &[subcommand, &t, &q, "--fault-plan", &plan_at(at)]);
                assert_clean_failure(&out, &format!("{file}: fasta.read: injected I/O error"));
            }
            let out = wga_in(&dir, &[subcommand, &t, &q, "--max-retries", "1"]);
            assert_option_rejected(&out, "--max-retries");
        }
    }

    /// A sink probes its hook once, inside its atomic write, and is not
    /// retried: a torn write at the second occurrence never fires, and
    /// one at the first fails the run before the rename, leaving the old
    /// files whole and no tmp sibling.
    #[test]
    fn align_probes_each_sink_once_an_attempt() {
        let dir = empty_dir("sink-probe");
        let (t, q) = (golden("target"), golden("query"));
        let plan_at = |at: u64| -> String {
            let path = dir.join(format!("plan{at}.json"));
            let rule = |hook| format!(r#"{{"hook":"{hook}","kind":"short-write","at":[{at}]}}"#);
            let faults = [rule("metrics.sink"), rule("trace.sink")].join(",");
            let plan = format!(r#"{{"format":"wga-fault-plan","version":1,"faults":[{faults}]}}"#);
            std::fs::write(&path, plan).unwrap();
            path.to_str().unwrap().to_string()
        };
        let run = |plan: &str| {
            let args = [
                "align",
                &t,
                &q,
                "--metrics-out",
                "m.json",
                "--trace-out",
                "t.jsonl",
                "--fault-plan",
                plan,
            ];
            wga_in(&dir, &args)
        };
        let out = run(&plan_at(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let (metrics, trace) = (dir.join("m.json"), dir.join("t.jsonl"));
        let metrics_bytes = std::fs::read(&metrics).unwrap();
        let trace_bytes = std::fs::read(&trace).unwrap();
        let text = String::from_utf8(metrics_bytes.clone()).unwrap();
        assert!(json::parse(text.trim_end()).is_ok(), "{text}");
        let trace_text = String::from_utf8(trace_bytes.clone()).unwrap();
        assert!(trace_text.starts_with("{\"schema\":"), "{trace_text}");
        for line in trace_text.lines() {
            assert!(json::parse(line).is_ok(), "{line}");
        }

        let out = run(&plan_at(0));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert_eq!(
            stderr.lines().last(),
            Some("error: write t.jsonl.tmp: injected short write"),
            "{stderr}"
        );
        assert_eq!(std::fs::read(&metrics).unwrap(), metrics_bytes);
        assert_eq!(std::fs::read(&trace).unwrap(), trace_bytes);
        let left: Vec<String> = files_in(&dir)
            .into_iter()
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(left.is_empty(), "{left:?}");
    }
}

#[test]
fn maf_of_empty_report_is_just_a_header() {
    let t: Sequence = "ACGT".parse().unwrap();
    let mut out = Vec::new();
    darwin_wga::core::maf::write_maf(&mut out, "t", &t, "q", &t, &[]).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 1);
    assert!(darwin_wga::core::maf::read_maf(text.as_bytes())
        .unwrap()
        .is_empty());
}
