//! Chaos suite: deterministic fault injection through the supervised
//! retry/backoff layer, on both schedules.
//!
//! The invariants under test mirror DESIGN.md's escalation ladder:
//!
//! * every (hook x kind) injection terminates — no hangs, no aborts of
//!   the whole run unless the plan explicitly panics outside pair
//!   containment (the "kill" scenario);
//! * the same `--fault-plan` + seed yields the same injection sites,
//!   the same retry counts, and byte-identical `canonical_text` across
//!   the one-thread loop and the dataflow executor for completing pairs;
//! * retry-budget exhaustion fails exactly the targeted pair, on both
//!   schedules, identically;
//! * a run killed at an injected fault point resumes from its
//!   checkpoint into the byte-identical golden report.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::faultsim::FaultPlan;
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions, AssemblyReport};
use darwin_wga::core::report::RunOutcome;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
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

fn plan(seed: u64, faults: &str) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::parse(&format!(
            "{{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":{seed},\"faults\":[{faults}]}}"
        ))
        .expect("fault plan parses"),
    )
}

fn journal_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("wga-chaos-{}-{}.jsonl", std::process::id(), name));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs an alignment on its own thread with a hard deadline, so a
/// supervision bug that hangs a queue fails the test instead of the CI
/// job. Panics inside the run also fail here, with the payload message.
fn run_within(
    secs: u64,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    opts: AlignOptions,
    label: &str,
) -> AssemblyReport {
    let (tx, rx) = mpsc::channel();
    let params = params.clone();
    let target = target.clone();
    let query = query.clone();
    thread::spawn(move || {
        let _ = tx.send(align_assemblies_with(&params, &target, &query, &opts));
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{label}: run exceeded {secs}s deadline"))
        .unwrap_or_else(|e| panic!("{label}: run errored: {e}"))
}

/// The fault-free one-thread run every recovered run is compared to.
fn fault_free(params: &WgaParams, target: &Assembly, query: &Assembly) -> AssemblyReport {
    run_within(
        120,
        params,
        target,
        query,
        AlignOptions::default(),
        "fault-free",
    )
}

/// The two schedules under test: the one-thread loop and streaming
/// dataflow.
const SCHEDULES: [(&str, usize); 2] = [("serial", 1), ("dataflow", 3)];

/// Every hook x kind combination that stays inside pair containment
/// terminates with a well-formed report on every schedule where the
/// hook can fire. `at:[0]` with `max_retries: 2` means recoverable
/// kinds retry and complete; `panic` fails the pair but never the run.
#[test]
fn fault_matrix_terminates_on_every_executor() {
    let (target, query) = one_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let kinds = ["error", "panic", "latency", "short-write"];
    let default_depth = AlignOptions::default().queue_depth;
    for kind in kinds {
        let fault = |hook: &str| {
            let one = format!("{{\"hook\":\"{hook}\",\"kind\":\"{kind}\",\"at\":[0],\"ms\":1}}");
            Some(plan(9, &one))
        };
        // Compute-stage hooks fire on both schedules; queue hooks only
        // exist on the dataflow executor, here at its tightest queues.
        let compute = ["filter.batch", "extend.tile"]
            .into_iter()
            .flat_map(|hook| SCHEDULES.map(|(name, threads)| (hook, name, threads, default_depth)));
        let queue = ["queue.push", "queue.pop"].map(|hook| (hook, "dataflow", 3, 1));
        for (hook, name, threads, queue_depth) in compute.chain(queue) {
            let opts = AlignOptions {
                threads,
                queue_depth,
                max_retries: 2,
                fault_plan: fault(hook),
                ..AlignOptions::default()
            };
            let report = run_within(60, &params, &target, &query, opts, hook);
            assert_eq!(report.pairs.len(), 1, "{hook}/{kind}/{name}");
        }
        // Journal hooks fire on checkpointed runs. `panic` here lands
        // outside pair containment by design (the "kill" scenario,
        // covered by kill_at_injected_fault_then_resume_matches_golden).
        if kind != "panic" {
            for hook in ["journal.append", "journal.sync"] {
                for (name, threads) in SCHEDULES {
                    let path = journal_path(&format!("matrix-{hook}-{kind}-{name}"));
                    let opts = AlignOptions {
                        threads,
                        checkpoint: Some(path.clone()),
                        max_retries: 2,
                        fault_plan: fault(hook),
                        ..AlignOptions::default()
                    };
                    let report = run_within(60, &params, &target, &query, opts, hook);
                    assert_eq!(report.pairs.len(), 1, "{hook}/{kind}/{name}");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

/// Recoverable injections are invisible in canonical output and
/// accounted identically everywhere: the same plan + seed produces the
/// same injection count, the same retry count, and byte-identical
/// canonical text on both schedules — which also equals the
/// fault-free run, because every fault was absorbed by a retry.
#[test]
fn same_plan_is_deterministic_across_executors() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let clean = fault_free(&params, &target, &query);
    let faults = "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0]},\
                  {\"hook\":\"extend.tile\",\"kind\":\"error\",\"at\":[0]}";
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for (name, threads) in SCHEDULES {
        let opts = AlignOptions {
            threads,
            max_retries: 2,
            fault_plan: Some(plan(42, faults)),
            ..AlignOptions::default()
        };
        let report = run_within(120, &params, &target, &query, opts, name);
        for pair in &report.pairs {
            assert!(
                matches!(pair.outcome, RunOutcome::Completed),
                "{name}: {}x{} should absorb the fault via retry: {:?}",
                pair.target_chrom,
                pair.query_chrom,
                pair.outcome
            );
        }
        assert_eq!(
            report.canonical_text(),
            clean.canonical_text(),
            "{name}: recovered faults must not change output"
        );
        seen.push((report.counters.faults_injected, report.counters.retries));
    }
    let (injected, retries) = seen[0];
    assert!(injected > 0, "plan must actually fire: {seen:?}");
    assert!(
        retries > 0,
        "injected errors must consume retries: {seen:?}"
    );
    assert_eq!(seen[0], seen[1], "injection and retry counts diverged");
}

/// Exhausting the retry budget on one pair fails exactly that pair —
/// identically on the one-thread loop and the dataflow executor — while
/// every other pair completes untouched.
#[test]
fn retry_exhaustion_fails_the_same_pair_on_every_executor() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    // max_retries 1 allows attempts 0 and 1; injecting occurrences 0..2
    // guarantees exhaustion no matter how the retry interleaves.
    let faults = "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,1,2],\"pair\":1}";
    let mut canon: Vec<String> = Vec::new();
    for (name, threads) in SCHEDULES {
        let opts = AlignOptions {
            threads,
            max_retries: 1,
            fault_plan: Some(plan(13, faults)),
            ..AlignOptions::default()
        };
        let report = run_within(120, &params, &target, &query, opts, name);
        assert_eq!(report.pairs.len(), 4, "{name}");
        for (idx, pair) in report.pairs.iter().enumerate() {
            if idx == 1 {
                match &pair.outcome {
                    RunOutcome::Failed { error } => assert!(
                        error.contains("retries exhausted"),
                        "{name}: unexpected failure message: {error}"
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
        "the schedules diverged under exhaustion"
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
        fault_plan: Some(plan(
            5,
            "{\"hook\":\"journal.append\",\"kind\":\"panic\",\"at\":[0],\"pair\":2}",
        )),
        ..AlignOptions::default()
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        align_assemblies_with(&params, &target, &query, &opts)
    }));
    assert!(crashed.is_err(), "injected journal panic must kill the run");

    let resume = AlignOptions {
        threads: 2,
        checkpoint: Some(path.clone()),
        ..AlignOptions::default()
    };
    let resumed = run_within(120, &params, &target, &query, resume, "resume");
    assert_eq!(resumed.resumed_pairs, 2, "two pairs survived the kill");
    assert_eq!(resumed.canonical_text(), golden.canonical_text());
    let _ = std::fs::remove_file(&path);
}

/// Injected worker panics under the tightest queue configuration
/// (`queue_depth 1`) shut the dataflow executor down cleanly at 2 and 8
/// threads: the poisoned pair lands `Failed`, the queues drain,
/// and the surviving pairs' output is byte-identical to a fault-free
/// run.
#[test]
fn dataflow_shutdown_is_clean_under_injected_panics() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let clean = fault_free(&params, &target, &query);
    // Pair 3 (chrII x chr2) is a related pair with real extension work;
    // the unrelated cross pairs produce no anchors, so their
    // `extend.tile` hook never fires. Two panics: the injected one,
    // then the poisoned-pair re-abort if anything retries into it.
    let faults = "{\"hook\":\"extend.tile\",\"kind\":\"panic\",\"at\":[0,1],\"pair\":3}";
    for threads in [2, 8] {
        let label = format!("dataflow t={threads}");
        let opts = AlignOptions {
            threads,
            queue_depth: 1,
            fault_plan: Some(plan(3, faults)),
            ..AlignOptions::default()
        };
        let report = run_within(120, &params, &target, &query, opts, &label);
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

/// A stalled dataflow stage (injected 60s latency) is detected by the
/// heartbeat watchdog, aborted, and surfaced as a pair-level failure —
/// the run finishes orders of magnitude before the injected sleep.
#[test]
fn watchdog_escalates_injected_stall_to_pair_failure() {
    let (target, query) = four_pair_assemblies();
    let params = WgaParams::darwin_wga();
    let opts = AlignOptions {
        threads: 2,
        queue_depth: 1,
        stall_timeout_ms: 300,
        // Pair 0 is a related pair, so its extension stage really runs
        // (the unrelated cross pairs never reach `extend.tile`).
        fault_plan: Some(plan(
            1,
            "{\"hook\":\"extend.tile\",\"kind\":\"latency\",\"at\":[0],\"ms\":60000,\"pair\":0}",
        )),
        ..AlignOptions::default()
    };
    // The 30s deadline is the real assertion: without the watchdog the
    // injected sleep holds a queue slot for a full minute.
    let report = run_within(30, &params, &target, &query, opts, "watchdog");
    assert!(
        report.counters.stalls_detected >= 1,
        "watchdog never fired: {:?}",
        report.counters
    );
    assert_eq!(report.pairs.len(), 4);
    let stalled: Vec<_> = report
        .pairs
        .iter()
        .filter(|p| matches!(p.outcome, RunOutcome::Failed { .. }))
        .collect();
    assert!(
        !stalled.is_empty(),
        "the stalled pair must land Failed: {:?}",
        report.pairs
    );
    match &report.pairs[0].outcome {
        RunOutcome::Failed { error } => assert!(
            error.contains("stall") || error.contains("dropped") || error.contains("fault"),
            "pair 0 failure should mention the stall: {error}"
        ),
        other => panic!("stalled pair 0 should fail, got {other:?}"),
    }
}

/// A strand is seeded and filtered one query range at a time, but the
/// `filter.batch` hook still fires once per (pair, strand): occurrence
/// *k* is the *k*-th strand of the pair, never its *k*-th range. With
/// both strands on, `"at":[0,1]` injects before the forward strand's
/// first range and before the reverse strand's first range, and a third
/// occurrence does not exist — identically on both schedules.
#[test]
fn filter_batch_occurrences_count_strands_not_ranges() {
    use darwin_wga::core::genome_pipeline::align_assemblies_observed;
    use darwin_wga::core::obs::{Obs, SpanName, TraceRecorder, STRAND_FWD, STRAND_REV};

    let (target, query) = four_pair_assemblies();
    let mut params = WgaParams::darwin_wga();
    params.both_strands = true;
    params.shard_bases = 512; // a dozen ranges and more a strand
    let clean = fault_free(&params, &target, &query);
    let latency = |at: &str| {
        plan(5, &format!("{{\"hook\":\"filter.batch\",\"kind\":\"latency\",\"at\":{at},\"ms\":1,\"pair\":0}}"))
    };
    for (name, threads) in SCHEDULES {
        let options = |at: &str| AlignOptions {
            threads,
            fault_plan: Some(latency(at)),
            ..AlignOptions::default()
        };
        let recorder = TraceRecorder::new();
        let report = align_assemblies_observed(
            &params,
            &target,
            &query,
            &options("[0,1]"),
            Obs::new(&recorder),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.canonical_text(), clean.canonical_text(), "{name}");
        assert_eq!(report.counters.faults_injected, 2, "{name}");
        let spans = recorder.spans();
        let of_pair_0 =
            |name: SpanName| spans.iter().filter(move |s| s.pair == 0 && s.name == name);
        let mut faults: Vec<u64> = of_pair_0(SpanName::Fault).map(|s| s.start_us).collect();
        faults.sort_unstable();
        let seeded = |strand: u8| {
            let starts = of_pair_0(SpanName::Seed)
                .filter(move |s| s.strand == strand)
                .map(|s| s.start_us);
            (
                starts.clone().min().expect("seeded"),
                starts.clone().max().expect("seeded"),
                starts.count(),
            )
        };
        let ((fwd_first, fwd_last, fwd_ranges), (rev_first, _, rev_ranges)) =
            (seeded(STRAND_FWD), seeded(STRAND_REV));
        assert!(
            fwd_ranges > 10 && rev_ranges > 10,
            "{name}: {fwd_ranges} + {rev_ranges} ranges"
        );
        assert_eq!(faults.len(), 2, "{name}");
        assert!(
            faults[0] <= fwd_first,
            "{name}: occurrence 0 opens the forward strand"
        );
        assert!(
            fwd_last <= faults[1] && faults[1] <= rev_first,
            "{name}: occurrence 1 opens the reverse strand, not the forward strand's second range"
        );

        let none = run_within(120, &params, &target, &query, options("[2,3,4]"), name);
        assert_eq!(
            none.counters.faults_injected, 0,
            "{name}: a pair has two strands"
        );
        assert_eq!(none.canonical_text(), clean.canonical_text(), "{name}");
    }
}
