//! Fault-tolerance integration tests: checkpoint/resume equivalence,
//! budget degradation, and typed errors through the assembly driver.

use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::obs::Obs;
use darwin_wga::core::report::RunOutcome;
use darwin_wga::core::{config::WgaParams, WgaError};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn two_chrom_assemblies() -> (Assembly, Assembly) {
    let mut rng = StdRng::seed_from_u64(77);
    let p1 = SyntheticPair::generate(9_000, &EvolutionParams::at_distance(0.2), &mut rng);
    let p2 = SyntheticPair::generate(7_000, &EvolutionParams::at_distance(0.2), &mut rng);
    let mut target = Assembly::new("t");
    target.push("chrI", p1.target.sequence.clone());
    target.push("chrII", p2.target.sequence.clone());
    let mut query = Assembly::new("q");
    query.push("chr1", p1.query.sequence.clone());
    query.push("chr2", p2.query.sequence.clone());
    (target, query)
}

fn journal_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("wga-fault-{}-{}.jsonl", std::process::id(), name));
    let _ = std::fs::remove_file(&path);
    path
}

/// The acceptance test for checkpoint/resume: a run interrupted after k
/// completed pairs, then resumed, must produce a final report that is
/// byte-identical (excluding wall-clock timings) to an uninterrupted run.
/// The kill is simulated by truncating the journal back to the header +
/// the first k=2 completed pairs, with a torn partial record at the tail
/// (the crash-mid-append signature).
fn kill_after_k_pairs_then_resume(name: &str, options: AlignOptions) {
    let (target, query) = two_chrom_assemblies();
    let params = WgaParams::darwin_wga();
    let uninterrupted = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions::default(),
        Obs::off(),
    )
    .unwrap();
    assert_eq!(uninterrupted.pairs.len(), 4);

    let path = journal_path(name);
    let opts = AlignOptions {
        checkpoint: Some(path.clone()),
        ..options
    };
    let full = align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
    assert_eq!(full.resumed_pairs, 0);
    assert_eq!(full.canonical_text(), uninterrupted.canonical_text());

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 pair records");
    let truncated = format!(
        "{}\n{}\n{}\n{{\"target_chrom\":\"chr",
        lines[0], lines[1], lines[2]
    );
    std::fs::write(&path, truncated).unwrap();

    let resumed = align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
    assert_eq!(resumed.resumed_pairs, 2);
    assert_eq!(resumed.canonical_text(), uninterrupted.canonical_text());
    assert_eq!(resumed.workload, uninterrupted.workload);

    // After the resume the journal is whole again: a third run replays
    // every pair.
    let replayed = align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
    assert_eq!(replayed.resumed_pairs, 4);
    assert_eq!(replayed.canonical_text(), uninterrupted.canonical_text());
    let _ = std::fs::remove_file(&path);
}

/// Kill and resume on the one-thread loop.
#[test]
fn kill_after_k_pairs_then_resume_is_equivalent() {
    kill_after_k_pairs_then_resume("kill-resume", AlignOptions::default());
}

/// The same on the streaming dataflow executor, whose pool workers
/// journal pairs as they finish extending them.
#[test]
fn dataflow_kill_after_k_pairs_then_resume_is_equivalent() {
    let options = AlignOptions {
        threads: 3,
        ..AlignOptions::default()
    };
    kill_after_k_pairs_then_resume("dataflow-kill-resume", options);
}

/// A single flipped byte inside an interior journal record (disk rot,
/// not a torn tail) must fail that record's CRC, be skipped with a
/// counted warning, and cause only the damaged pair to be re-run: the
/// resumed report is still byte-identical to an uninterrupted run.
#[test]
fn byte_flip_in_journal_interior_rerunds_only_that_pair() {
    let (target, query) = two_chrom_assemblies();
    let params = WgaParams::darwin_wga();
    let uninterrupted = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions::default(),
        Obs::off(),
    )
    .unwrap();

    let path = journal_path("byte-flip");
    let opts = AlignOptions {
        threads: 2,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();

    // Flip one byte in the second pair record (an interior line, so this
    // is corruption, not a crash-torn tail). The payload stays valid
    // JSON; only the CRC can catch it.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 pair records");
    let flipped = lines[2].replacen("\"target_chrom\":\"chr", "\"target_chrom\":\"Chr", 1);
    assert_ne!(flipped, lines[2], "mutation must change the record");
    let corrupted = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        lines[0], lines[1], flipped, lines[3], lines[4]
    );
    std::fs::write(&path, corrupted).unwrap();

    let resumed = align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
    assert_eq!(resumed.resumed_pairs, 3, "only the damaged pair re-runs");
    assert_eq!(resumed.canonical_text(), uninterrupted.canonical_text());
    let stats = resumed
        .journal_stats
        .expect("checkpointed run records stats");
    assert_eq!(stats.records_recovered, 3);
    assert_eq!(stats.corrupt_records_skipped, 1);
    assert!(!stats.torn_tail_dropped);
    let _ = std::fs::remove_file(&path);
}

/// A journal written under different parameters must be rejected, not
/// silently mixed into the new run.
#[test]
fn resume_with_different_params_is_rejected() {
    let (target, query) = two_chrom_assemblies();
    let path = journal_path("fingerprint");
    let opts = AlignOptions {
        threads: 1,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    align_assemblies_observed(&WgaParams::darwin_wga(), &target, &query, &opts, Obs::off())
        .unwrap();
    let err = align_assemblies_observed(
        &WgaParams::lastz_baseline(),
        &target,
        &query,
        &opts,
        Obs::off(),
    )
    .unwrap_err();
    assert!(matches!(err, WgaError::Checkpoint { .. }), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// A repeat-dense pair under tight budgets completes with a Degraded
/// outcome and bounded work, instead of running unbounded or aborting.
#[test]
fn budget_capped_repeat_dense_pair_degrades_gracefully() {
    // A tandem-repeat sequence: every seed matches hundreds of diagonals,
    // the classic workload explosion budgets exist to contain.
    let motif = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC";
    let mut target = Assembly::new("t");
    target.push("chrR", motif.repeat(150).parse().unwrap());
    let mut query = Assembly::new("q");
    query.push("chrR", motif.repeat(150).parse().unwrap());

    let params = WgaParams::darwin_wga();
    let unbounded = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions::default(),
        Obs::off(),
    )
    .unwrap();
    assert_eq!(unbounded.degraded_pairs(), 0);
    assert!(unbounded.workload.filter_tiles > 50);

    let mut capped_params = params.clone();
    capped_params.budget.max_filter_tiles = Some(50);
    capped_params.budget.max_extension_cells =
        Some((unbounded.workload.extension_cells / 10).max(1));
    let capped = align_assemblies_observed(
        &capped_params,
        &target,
        &query,
        &AlignOptions::default(),
        Obs::off(),
    )
    .unwrap();

    assert_eq!(capped.pairs.len(), 1);
    assert!(
        matches!(capped.pairs[0].outcome, RunOutcome::Degraded { .. }),
        "{:?}",
        capped.pairs[0].outcome
    );
    assert!(capped.workload.filter_tiles <= 50, "{:?}", capped.workload);
    assert!(
        capped.workload.extension_cells < unbounded.workload.extension_cells,
        "capped {:?} vs unbounded {:?}",
        capped.workload,
        unbounded.workload
    );
}

/// Budget-capped truncation is deterministic across thread counts: the
/// serial and parallel drivers share the same clamp/extend logic.
#[test]
fn budget_capped_runs_match_across_thread_counts() {
    let (target, query) = two_chrom_assemblies();
    let mut params = WgaParams::darwin_wga();
    params.budget.max_filter_tiles = Some(120);
    let serial = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions {
            threads: 1,
            ..AlignOptions::default()
        },
        Obs::off(),
    )
    .unwrap();
    let parallel = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions {
            threads: 3,
            ..AlignOptions::default()
        },
        Obs::off(),
    )
    .unwrap();
    assert_eq!(serial.canonical_text(), parallel.canonical_text());
}

#[test]
fn zero_threads_and_degenerate_params_are_typed_errors() {
    let (target, query) = two_chrom_assemblies();
    let err = align_assemblies_observed(
        &WgaParams::darwin_wga(),
        &target,
        &query,
        &AlignOptions {
            threads: 0,
            ..AlignOptions::default()
        },
        Obs::off(),
    )
    .unwrap_err();
    assert!(matches!(err, WgaError::Config(_)), "{err}");

    let mut params = WgaParams::darwin_wga();
    params.extension_threshold = -1;
    let err = align_assemblies_observed(
        &params,
        &target,
        &query,
        &AlignOptions::default(),
        Obs::off(),
    )
    .unwrap_err();
    assert!(matches!(err, WgaError::Config(_)), "{err}");
}
