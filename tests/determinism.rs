//! Determinism and parallel-equivalence integration tests.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::obs::Obs;
use darwin_wga::core::pipeline::WgaPipeline;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::SeedableRng;
use std::fs;
use std::process::{Command, Stdio};

fn pair(seed: u64) -> SyntheticPair {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SyntheticPair::generate(30_000, &EvolutionParams::at_distance(0.25), &mut rng)
}

#[test]
fn pipeline_is_deterministic() {
    let pair = pair(5);
    let a =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);
    let b =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);
    assert_eq!(a.alignments, b.alignments);
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn parallel_filtering_matches_serial_exactly() {
    let pair = pair(6);
    let params = WgaParams::darwin_wga();
    let serial = WgaPipeline::new(params.clone()).run(&pair.target.sequence, &pair.query.sequence);
    let (mut target, mut query) = (Assembly::new("t"), Assembly::new("q"));
    target.push("t", pair.target.sequence.clone());
    query.push("q", pair.query.sequence.clone());
    for threads in [2usize, 3, 8] {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let par =
            align_assemblies_observed(&params, &target, &query, &options, Obs::off()).unwrap();
        let alignments: Vec<_> = par.pairs.into_iter().flat_map(|p| p.alignments).collect();
        assert_eq!(serial.alignments, alignments, "threads={threads}");
        assert_eq!(serial.workload, par.workload);
    }
}

/// The dataflow producer dispatches pairs smallest-remaining-work
/// first, which on this deliberately lopsided matrix (chromosome sizes
/// 12k / 3k / 6k vs 9k / 2k) is very different from FIFO pair-id
/// order. The canonical report must not notice: results are committed
/// by pair id and assembled in pair-id order, fault occurrences are scoped
/// per (hook, pair), so scheduling policy is invisible in the output
/// bytes across thread counts (the executor's own tests sweep its queue
/// depth).
#[test]
fn dataflow_work_order_is_invisible_in_canonical_output() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let params = EvolutionParams::at_distance(0.2);
    let sizes_t = [12_000usize, 3_000, 6_000];
    let sizes_q = [9_000usize, 2_000];
    let mut target = Assembly::new("t");
    let mut query = Assembly::new("q");
    for (i, len) in sizes_t.iter().enumerate() {
        let p = SyntheticPair::generate(*len, &params, &mut rng);
        target.push(format!("chr{i}T"), p.target.sequence.clone());
        if let Some(qlen) = sizes_q.get(i) {
            let pq = SyntheticPair::generate(*qlen, &params, &mut rng);
            query.push(format!("chr{i}Q"), pq.query.sequence.clone());
        }
    }

    let wga = WgaParams::darwin_wga();
    let reference =
        align_assemblies_observed(&wga, &target, &query, &AlignOptions::default(), Obs::off())
            .expect("one-thread reference run")
            .canonical_text();
    for threads in [2usize, 8] {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = align_assemblies_observed(&wga, &target, &query, &options, Obs::off())
            .expect("dataflow run");
        assert_eq!(
            report.canonical_text(),
            reference,
            "dataflow {threads}t diverged from the one-thread reference"
        );
    }
}

#[test]
fn generation_is_seed_stable_across_calls() {
    let a = pair(7);
    let b = pair(7);
    assert_eq!(a.target.sequence, b.target.sequence);
    assert_eq!(a.query.sequence, b.query.sequence);
    assert_eq!(a.ancestral_conserved, b.ancestral_conserved);
}

/// A `--checkpoint` journal is a function of the run's inputs: two
/// one-thread `wga align` runs of the golden pair write the bytes of
/// `tests/data/golden.journal`, a two-thread run writes the same lines
/// in the order its pairs completed, and two one-thread `wga many` runs
/// write the same `pair_000_001.journal`.
#[test]
fn a_checkpoint_journal_is_a_function_of_its_inputs() {
    let dir = std::env::temp_dir().join(format!("wga-determinism-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let data = |file: &str| format!("{}/tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let (target, query) = (data("golden.target.fa"), data("golden.query.fa"));
    let runs = [
        ("align", "1", "one.journal"),
        ("align", "1", "again.journal"),
        ("align", "2", "two.journal"),
        ("many", "1", "many"),
        ("many", "1", "many_again"),
    ];
    let children: Vec<_> = (runs.iter())
        .map(|&(command, threads, checkpoint)| {
            Command::new(env!("CARGO_BIN_EXE_wga"))
                .current_dir(&dir)
                .args([command, &target, &query, "--threads", threads])
                .args(["--checkpoint", checkpoint])
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn wga")
        })
        .collect();
    for (child, run) in children.into_iter().zip(&runs) {
        let out = child.wait_with_output().expect("wga runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{run:?}: {stderr}");
    }
    let read = |file: &str| fs::read_to_string(dir.join(file)).expect("journal written");
    let golden = fs::read_to_string(data("golden.journal")).expect("fixture present");
    assert_eq!(read("one.journal"), golden, "a one-thread journal");
    assert_eq!(read("again.journal"), golden, "a second one-thread journal");
    let sorted = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted(&read("two.journal")), sorted(&golden), "--threads 2");
    assert_eq!(
        read("many/pair_000_001.journal"),
        read("many_again/pair_000_001.journal"),
        "wga many"
    );
    let _ = fs::remove_dir_all(&dir);
}
