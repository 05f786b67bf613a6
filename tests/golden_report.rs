//! Golden-file regression for the assembly pipeline.
//!
//! A deterministic synthetic genome pair is checked in under
//! `tests/data/` together with the expected [`AssemblyReport`] rendering
//! (`AssemblyReport::canonical_text`). The test replays the full
//! seed→filter→extend pipeline over the checked-in FASTA for all **three**
//! filter engines at 1 and 3 worker threads, and for **both executors**
//! (stage-barrier and streaming dataflow) at 1, 3 and 8 threads, and
//! requires the report to stay byte-identical in every configuration —
//! any behavioural drift in seeding, any BSW engine, extension,
//! chaining, the parallel driver or the dataflow executor shows up as a
//! diff against a file in version control.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_report -- --nocapture
//! ```
//!
//! then commit the updated files under `tests/data/`.

use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::dataflow::ExecutorKind;
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
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
    for (chrom_t, chrom_q, len, dist_milli, seed) in
        [("chrI", "chr1", 9_000usize, 200u64, 31u64), ("chrII", "chr2", 7_000, 350, 32)]
    {
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

#[test]
fn golden_report_is_stable_across_engines_and_threads() {
    let dir = data_dir();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::create_dir_all(&dir).expect("create tests/data");
        let (target, query) = generate_assemblies();
        target
            .to_fasta(fs::File::create(dir.join("golden.target.fa")).unwrap())
            .unwrap();
        query
            .to_fasta(fs::File::create(dir.join("golden.query.fa")).unwrap())
            .unwrap();
        let report = align_assemblies_with(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions::default(),
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

    for engine in [
        FilterEngineKind::Scalar,
        FilterEngineKind::Batched,
        FilterEngineKind::Simd,
    ] {
        for threads in [1usize, 3] {
            let params = WgaParams::darwin_wga().with_filter_engine(engine);
            let options = AlignOptions {
                threads,
                ..AlignOptions::default()
            };
            let report = align_assemblies_with(&params, &target, &query, &options)
                .expect("pipeline run succeeds");
            assert_eq!(report.failed_pairs(), 0, "{engine:?}/{threads}t: failed pairs");
            let got = report.canonical_text();
            assert!(
                got == expected,
                "{engine:?} engine at {threads} thread(s) diverged from the \
                 golden report (got {} bytes, expected {})",
                got.len(),
                expected.len()
            );
        }
    }

    // Both executors at 1, 3 and 8 threads reproduce the same bytes —
    // the gate for ever flipping the default to dataflow.
    for executor in [ExecutorKind::Barrier, ExecutorKind::Dataflow] {
        for threads in [1usize, 3, 8] {
            let options = AlignOptions {
                threads,
                executor,
                ..AlignOptions::default()
            };
            let report =
                align_assemblies_with(&WgaParams::darwin_wga(), &target, &query, &options)
                    .expect("pipeline run succeeds");
            assert_eq!(
                report.failed_pairs(),
                0,
                "{executor:?}/{threads}t: failed pairs"
            );
            let got = report.canonical_text();
            assert!(
                got == expected,
                "{executor:?} executor at {threads} thread(s) diverged from the \
                 golden report (got {} bytes, expected {})",
                got.len(),
                expected.len()
            );
            let metrics = report
                .stage_metrics
                .expect("every executor reports stage metrics");
            assert_eq!(metrics.executor, executor, "metrics tag their executor");
            assert_eq!(metrics.threads, threads);
        }
    }
}
