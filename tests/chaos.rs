//! Chaos suite: deterministic fault injection on both schedules, with
//! the checkpoint journal as the one recovery mechanism.
//!
//! The invariants under test mirror DESIGN.md's failure ladder:
//!
//! * every (hook x kind) injection terminates — no hangs: a compute
//!   fault fails its pair, a journal fault ends the run with an
//!   error and leaves the journal to resume from, and only a plan that
//!   panics outside pair containment kills the run (the "kill"
//!   scenario);
//! * the same `--fault-plan` yields the same injection sites, the same
//!   failed pairs and byte-identical `canonical_text` across the
//!   one-thread loop and the dataflow executor;
//! * an injected error fails exactly the targeted pair, on both
//!   schedules, identically;
//! * a run killed at an injected fault point resumes from its
//!   checkpoint into the byte-identical golden report.
//!
//! `tests/crash_points.rs` aborts the `wga` process at every durability
//! boundary and resumes each crash.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::error::WgaResult;
use darwin_wga::core::faultsim::{FaultInjector, FaultPlan};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::journal::PairRecord;
use darwin_wga::core::obs::Obs;
use darwin_wga::core::report::RunOutcome;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// One small chromosome pair: fast enough for the hook x kind matrix.
fn one_pair_assemblies() -> (Assembly, Assembly) {
    let mut rng = StdRng::seed_from_u64(11);
    let p = SyntheticPair::generate(3_000, &EvolutionParams::at_distance(0.2), &mut rng);
    let mut target = Assembly::new("t");
    target.push("chrI", p.target.sequence.clone());
    let mut query = Assembly::new("q");
    query.push("chr1", p.query.sequence.clone());
    (target, query)
}

/// Four pairs (2x2 cross product): enough structure for pair-scoped
/// faults and surviving-pair comparisons.
fn four_pair_assemblies() -> (Assembly, Assembly) {
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

fn plan(faults: &str) -> FaultPlan {
    FaultPlan::parse(&format!(
        "{{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[{faults}]}}"
    ))
    .expect("fault plan parses")
}

/// What records hold of their pairs' results: outcome, workload and
/// alignments.
fn results(pairs: &[PairRecord]) -> Vec<String> {
    (pairs.iter())
        .map(|p| format!("{:?} {:?} {:?}", p.outcome, p.workload, p.alignments))
        .collect()
}

fn journal_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("wga-chaos-{}-{}.jsonl", std::process::id(), name));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs an alignment on its own thread with a hard deadline, so a
/// fault-handling bug that hangs a queue fails the test instead of the
/// CI job. Panics inside the run also fail here, with the payload
/// message.
fn run_within(
    secs: u64,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    opts: AlignOptions,
    plan: Option<FaultPlan>,
    label: &str,
) -> AssemblyReport {
    injected_within(secs, params, target, query, opts, plan, label).0
}

/// [`run_within`], with the number of faults the run injected.
fn injected_within(
    secs: u64,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    opts: AlignOptions,
    plan: Option<FaultPlan>,
    label: &str,
) -> (AssemblyReport, u64) {
    result_within(secs, params, target, query, opts, plan, label)
        .unwrap_or_else(|e| panic!("{label}: run errored: {e}"))
}

/// [`injected_within`] for a run that may end with an error. The plan's
/// injector rides on the run's `Obs`, as the CLI's does, so its count
/// is the run's.
fn result_within(
    secs: u64,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    opts: AlignOptions,
    plan: Option<FaultPlan>,
    label: &str,
) -> WgaResult<(AssemblyReport, u64)> {
    let (tx, rx) = mpsc::channel();
    let params = params.clone();
    let target = target.clone();
    let query = query.clone();
    thread::spawn(move || {
        let injector = plan.map(FaultInjector::new);
        let obs = (injector.as_ref()).map_or(Obs::off(), |i| Obs::off().with_injector(i));
        let report = align_assemblies_observed(&params, &target, &query, &opts, obs);
        let injected = injector.map_or(0, |injector| injector.injected());
        let _ = tx.send(report.map(|report| (report, injected)));
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{label}: run exceeded {secs}s deadline"))
}

/// The fault-free one-thread run every recovered run is compared to.
fn fault_free(params: &WgaParams, target: &Assembly, query: &Assembly) -> AssemblyReport {
    run_within(
        120,
        params,
        target,
        query,
        AlignOptions::default(),
        None,
        "fault-free",
    )
}

/// The two schedules under test: the one-thread loop and streaming
/// dataflow.
const SCHEDULES: [(&str, usize); 2] = [("serial", 1), ("dataflow", 3)];

/// Every hook x kind combination that stays inside pair containment
/// terminates on both schedules. Nothing is retried: at a compute hook
/// the pair fails and the run completes; at a journal hook the run ends
/// with an error, and a rerun on the same journal resumes into the
/// fault-free report.
#[test]
fn fault_matrix_terminates_on_every_executor() {
    let (target, query) = one_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let clean = fault_free(&params, &target, &query);
    let kinds = ["error", "panic", "short-write"];
    for kind in kinds {
        let fault = |hook: &str| {
            let one = format!("{{\"hook\":\"{hook}\",\"kind\":\"{kind}\",\"at\":[0]}}");
            Some(plan(&one))
        };
        // Compute-stage hooks fire on both schedules.
        let compute = ["filter.batch", "extend.tile"]
            .into_iter()
            .flat_map(|hook| SCHEDULES.map(|(name, threads)| (hook, name, threads)));
        for (hook, name, threads) in compute {
            let opts = AlignOptions {
                threads,
                ..AlignOptions::default()
            };
            let report = run_within(60, &params, &target, &query, opts, fault(hook), hook);
            assert_eq!(report.pairs.len(), 1, "{hook}/{kind}/{name}");
            assert_ne!(
                report.canonical_text(),
                clean.canonical_text(),
                "{hook}/{kind}/{name}: the fault must cost its pair something"
            );
        }
        // Journal hooks fire on checkpointed runs. `panic` here lands
        // outside pair containment by design (the "kill" scenario,
        // covered by kill_at_injected_fault_then_resume_matches_golden).
        if kind != "panic" {
            for hook in ["journal.append", "journal.sync"] {
                for (name, threads) in SCHEDULES {
                    let label = format!("{hook}/{kind}/{name}");
                    let path = journal_path(&format!("matrix-{hook}-{kind}-{name}"));
                    let opts = AlignOptions {
                        threads,
                        checkpoint: Some(path.clone()),
                        ..AlignOptions::default()
                    };
                    let err =
                        result_within(60, &params, &target, &query, opts, fault(hook), &label)
                            .expect_err("a journal fault ends the run");
                    assert!(err.to_string().contains(hook), "{label}: {err}");
                    let resume = AlignOptions {
                        threads,
                        checkpoint: Some(path.clone()),
                        ..AlignOptions::default()
                    };
                    let resumed = run_within(60, &params, &target, &query, resume, None, &label);
                    // A fault after the append leaves the pair durable.
                    let durable = u64::from(hook == "journal.sync");
                    assert_eq!(resumed.resumed_pairs, durable, "{label}");
                    assert_eq!(resumed.canonical_text(), clean.canonical_text(), "{label}");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

/// The chaos determinism gate: the same plan injects at the same sites
/// and fails the same pairs on both schedules, so `canonical_text` and
/// the injection count agree byte for byte. An error at pair 1's first
/// filter batch fails it; one at every pair's first extension tile fails
/// the two related pairs (0 and 3) and misses the unrelated pair 2,
/// which never extends.
#[test]
fn same_plan_is_deterministic_across_executors() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let clean = fault_free(&params, &target, &query);
    let faults = "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0],\"pair\":1},\
                  {\"hook\":\"extend.tile\",\"kind\":\"error\",\"at\":[0]}";
    let mut seen: Vec<(String, u64)> = Vec::new();
    for (name, threads) in SCHEDULES {
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let faults = Some(plan(faults));
        let (report, injected) = injected_within(120, &params, &target, &query, opts, faults, name);
        let failed: Vec<bool> = (report.pairs.iter())
            .map(|pair| matches!(pair.outcome, RunOutcome::Failed { .. }))
            .collect();
        assert_eq!(failed, [true, true, false, true], "{name}");
        assert_eq!(
            results(&report.pairs[2..3]),
            results(&clean.pairs[2..3]),
            "{name}: the pair no fault reached is untouched"
        );
        seen.push((report.canonical_text(), injected));
    }
    assert_eq!(seen[0].1, 3, "one injection a failed pair");
    assert_eq!(seen[0], seen[1], "the schedules diverged");
}

/// An injected error fails exactly its pair — identically on the
/// one-thread loop and the dataflow executor — while every other pair
/// completes untouched. Nothing retries it: the error's first
/// occurrence is the pair's end.
#[test]
fn an_injected_error_fails_exactly_its_pair_on_every_executor() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let faults = "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0],\"pair\":1}";
    let mut canon: Vec<String> = Vec::new();
    for (name, threads) in SCHEDULES {
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = run_within(
            120,
            &params,
            &target,
            &query,
            opts,
            Some(plan(faults)),
            name,
        );
        assert_eq!(report.pairs.len(), 4, "{name}");
        for (idx, pair) in report.pairs.iter().enumerate() {
            if idx == 1 {
                match &pair.outcome {
                    RunOutcome::Failed { error } => assert_eq!(
                        error, "injected fault: filter.batch pair 1: error",
                        "{name}"
                    ),
                    other => panic!("{name}: pair 1 should fail, got {other:?}"),
                }
            } else {
                assert!(
                    matches!(pair.outcome, RunOutcome::Completed),
                    "{name}: pair {idx} should be untouched: {:?}",
                    pair.outcome
                );
            }
        }
        canon.push(report.canonical_text());
    }
    assert_eq!(
        canon[0], canon[1],
        "the schedules diverged on a failed pair"
    );
}

/// A run killed by an injected panic at the journal-append hook (the
/// moral equivalent of `kill -9` mid-checkpoint) resumes from the
/// journal into the byte-identical golden report.
#[test]
fn kill_at_injected_fault_then_resume_matches_golden() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let golden = fault_free(&params, &target, &query);

    let path = journal_path("kill-at-fault");
    // Pair-scoped panic at the append for pair 2: pairs 0 and 1 are
    // journalled, then the run dies outside pair containment.
    let opts = AlignOptions {
        threads: 1,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let injector = FaultInjector::new(plan(
        "{\"hook\":\"journal.append\",\"kind\":\"panic\",\"at\":[0],\"pair\":2}",
    ));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let obs = Obs::off().with_injector(&injector);
        align_assemblies_observed(&params, &target, &query, &opts, obs)
    }));
    assert!(crashed.is_err(), "injected journal panic must kill the run");

    let resume = AlignOptions {
        threads: 2,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let resumed = run_within(120, &params, &target, &query, resume, None, "resume");
    assert_eq!(resumed.resumed_pairs, 2, "two pairs survived the kill");
    assert_eq!(resumed.canonical_text(), golden.canonical_text());
    let _ = std::fs::remove_file(&path);
}

/// The same kill on the dataflow schedule: the worker whose commit
/// panics closes the queue on its way out, so the producer and the rest
/// of the pool exit and the run dies instead of hanging.
#[test]
fn a_journal_panic_kills_a_dataflow_run_instead_of_hanging() {
    let (target, query) = four_pair_assemblies();
    for threads in [2, 8] {
        let fault = r#"{"hook":"journal.append","kind":"panic","at":[0]}"#;
        dies_within_two_minutes(&target, &query, threads, fault, "kill-dataflow");
    }
}

/// A pair with an empty query the calling thread finishes and commits
/// itself: a panic out of that commit kills the run too, rather than
/// failing the pair.
#[test]
fn a_journal_panic_in_the_calling_threads_commit_kills_the_run() {
    let (target, mut query) = four_pair_assemblies();
    query.push("chrEmpty", Default::default());
    // Pair 2 is chrI × chrEmpty.
    let fault = r#"{"hook":"journal.append","kind":"panic","pair":2,"at":[0]}"#;
    dies_within_two_minutes(&target, &query, 2, fault, "kill-producer");
}

/// Runs `fault` with a checkpoint at `threads` on a thread of its own
/// and asserts that the run panics within two minutes.
fn dies_within_two_minutes(
    target: &Assembly,
    query: &Assembly,
    threads: usize,
    fault: &str,
    name: &str,
) {
    let path = journal_path(&format!("{name}-{threads}"));
    let opts = AlignOptions {
        threads,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let injector = FaultInjector::new(plan(fault));
    let (tx, rx) = mpsc::channel();
    let (target, query) = (target.clone(), query.clone());
    thread::spawn(move || {
        let params = WgaParams::darwin_wga();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let obs = Obs::off().with_injector(&injector);
            align_assemblies_observed(&params, &target, &query, &opts, obs)
        }));
        let _ = tx.send(run.is_err());
    });
    let died = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{name} t={threads}: the killed run hung"));
    assert!(
        died,
        "{name} t={threads}: injected journal panic must kill the run"
    );
    let _ = std::fs::remove_file(&path);
}

/// Injected worker panics shut the dataflow executor down cleanly at 2
/// and 8 threads: the poisoned pair lands `Failed`, the queues drain,
/// and the surviving pairs' output is byte-identical to a fault-free
/// run.
#[test]
fn dataflow_shutdown_is_clean_under_injected_panics() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let clean = fault_free(&params, &target, &query);
    // Pair 3 (chrII x chr2) is a related pair with real extension work;
    // the unrelated cross pairs produce no anchors, so their
    // `extend.tile` hook never fires.
    let faults = "{\"hook\":\"extend.tile\",\"kind\":\"panic\",\"at\":[0],\"pair\":3}";
    for threads in [2, 8] {
        let label = format!("dataflow t={threads}");
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = run_within(
            120,
            &params,
            &target,
            &query,
            opts,
            Some(plan(faults)),
            &label,
        );
        assert_eq!(report.pairs.len(), 4, "{label}");
        let failed = &report.pairs[3];
        match &failed.outcome {
            RunOutcome::Failed { error } => assert!(
                error.contains("injected fault"),
                "{label}: unexpected failure message: {error}"
            ),
            other => panic!("{label}: pair 3 should fail, got {other:?}"),
        }
        // Surviving pairs: same pair/aln lines as the clean run, once
        // the failed pair's lines and the (necessarily smaller)
        // workload totals are set aside.
        let failed_tag = format!("\t{}\t{}\t", failed.target_chrom, failed.query_chrom);
        let survivors = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.contains(&failed_tag) && !l.starts_with("workload\t"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            survivors(&report.canonical_text()),
            survivors(&clean.canonical_text()),
            "{label}: surviving pairs diverged from the fault-free run"
        );
    }
}

/// A strand is seeded and filtered one query range at a time, but the
/// `filter.batch` hook still fires once per (pair, strand): occurrence
/// *k* is the *k*-th strand of the pair, never its *k*-th range. With
/// both strands on, `"at":[0]` injects before the forward strand's first
/// range and `"at":[1]` before the reverse strand's, each failing the
/// pair, and a third occurrence does not exist — identically on both
/// schedules.
#[test]
fn filter_batch_occurrences_count_strands_not_ranges() {
    use darwin_wga::core::obs::{SpanName, TraceRecorder, STRAND_FWD, STRAND_REV};

    let (target, query) = four_pair_assemblies();
    let mut params = WgaParams::darwin_wga();
    params.both_strands = true;
    params.shard_bases = 512; // a dozen ranges and more a strand
    let clean = fault_free(&params, &target, &query);
    let error_at = |at: &str| {
        plan(&format!(
            "{{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":{at},\"pair\":0}}"
        ))
    };
    for (name, threads) in SCHEDULES {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        // Occurrence 0 opens the forward strand, occurrence 1 the reverse.
        for (at, opened) in [("[0]", STRAND_FWD), ("[1]", STRAND_REV)] {
            let label = format!("{name} at {at}");
            let recorder = TraceRecorder::new();
            let injector = FaultInjector::new(error_at(at));
            let obs = Obs::new(&recorder).with_injector(&injector);
            let report = align_assemblies_observed(&params, &target, &query, &options, obs)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            match &report.pairs[0].outcome {
                RunOutcome::Failed { error } => assert_eq!(
                    error, "injected fault: filter.batch pair 0: error",
                    "{label}"
                ),
                other => panic!("{label}: pair 0 should fail, got {other:?}"),
            }
            assert_eq!(
                results(&report.pairs[1..]),
                results(&clean.pairs[1..]),
                "{label}"
            );
            let spans = recorder.spans();
            let of_pair_0 =
                |name: SpanName| spans.iter().filter(move |s| s.pair == 0 && s.name == name);
            let faults: Vec<u64> = of_pair_0(SpanName::Fault).map(|s| s.start_us).collect();
            assert_eq!(faults.len(), 1, "{label}");
            let seeded = |strand: u8| {
                (of_pair_0(SpanName::Seed).filter(move |s| s.strand == strand))
                    .map(|s| s.start_us)
                    .collect::<Vec<_>>()
            };
            let (fwd, rev) = (seeded(STRAND_FWD), seeded(STRAND_REV));
            assert!(rev.is_empty(), "{label}: the reverse strand never seeds");
            if opened == STRAND_FWD {
                assert!(
                    fwd.is_empty(),
                    "{label}: the fault opens the forward strand"
                );
            } else {
                assert!(fwd.len() > 10, "{label}: {} forward ranges", fwd.len());
                assert!(
                    fwd.iter().all(|&start| start <= faults[0]),
                    "{label}: the fault opens the reverse strand, not a forward range"
                );
            }
        }

        let (none, injected) = injected_within(
            120,
            &params,
            &target,
            &query,
            options,
            Some(error_at("[2,3,4]")),
            name,
        );
        assert_eq!(injected, 0, "{name}: a pair has two strands");
        assert_eq!(none.canonical_text(), clean.canonical_text(), "{name}");
    }
}
