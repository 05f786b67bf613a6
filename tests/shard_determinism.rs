//! Shard-determinism wall: intra-pair sharding must be invisible in the
//! canonical output.
//!
//! A strand is seeded and filtered one query range at a time, and at more
//! than one thread the dataflow pool runs the ranges in whatever
//! order its workers free up, so the *execution order* varies freely
//! with thread count and scheduler timing. These tests pin the contract
//! that the *output* does not: `canonical_text` is byte-identical to the
//! unsharded serial baseline across thread counts x shard sizes, and stays
//! identical across them when a fault plan fails pairs along the way.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::faultsim::{FaultInjector, FaultPlan};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use darwin_wga::core::obs::Obs;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Two target chromosomes against one query chromosome: one related
/// pair big enough to split into many shards at `shard_bases = 256`,
/// plus an unrelated pair so pair-level bookkeeping is also exercised.
fn assemblies() -> (Assembly, Assembly) {
    let mut rng = StdRng::seed_from_u64(2024);
    let p = SyntheticPair::generate(12_000, &EvolutionParams::at_distance(0.25), &mut rng);
    let decoy = SyntheticPair::generate(4_000, &EvolutionParams::at_distance(0.5), &mut rng);
    let mut target = Assembly::new("t");
    target.push("chrI", p.target.sequence.clone());
    target.push("chrII", decoy.target.sequence.clone());
    let mut query = Assembly::new("q");
    query.push("chr1", p.query.sequence.clone());
    (target, query)
}

/// Runs an alignment on its own thread with a hard deadline so a
/// scheduling deadlock fails the test instead of hanging the job.
fn run_within(
    secs: u64,
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    opts: AlignOptions,
    plan: Option<FaultPlan>,
    label: &str,
) -> AssemblyReport {
    let (tx, rx) = mpsc::channel();
    let params = params.clone();
    let target = target.clone();
    let query = query.clone();
    thread::spawn(move || {
        let injector = plan.map(FaultInjector::new);
        let obs = (injector.as_ref()).map_or(Obs::off(), |i| Obs::off().with_injector(i));
        let _ = tx.send(align_assemblies_observed(
            &params, &target, &query, &opts, obs,
        ));
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{label}: run exceeded {secs}s deadline"))
        .unwrap_or_else(|e| panic!("{label}: run errored: {e}"))
}

/// The matrix under test: serial is the one-thread loop; the wider rows
/// run the ranges through the dataflow pools.
const MATRIX: [(&str, usize); 3] = [("serial", 1), ("dataflow-2", 2), ("dataflow-8", 8)];

/// The default parameters at `shard_bases`.
fn with_shard(shard_bases: usize) -> WgaParams {
    WgaParams {
        shard_bases,
        ..WgaParams::darwin_wga()
    }
}

/// The canonical text of the serial run with shards effectively disabled
/// by a floor larger than any chromosome.
fn unsharded_baseline(target: &Assembly, query: &Assembly) -> String {
    let options = AlignOptions::default();
    let baseline = run_within(
        120,
        &with_shard(1 << 30),
        target,
        query,
        options,
        None,
        "baseline",
    );
    assert!(
        baseline.total_matches() > 0,
        "baseline must produce alignments for the comparison to bite"
    );
    baseline.canonical_text()
}

fn plan(seed: u64, faults: &str) -> Option<FaultPlan> {
    let plan = FaultPlan::parse(&format!(
        "{{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":{seed},\"faults\":[{faults}]}}"
    ));
    Some(plan.expect("fault plan parses"))
}

#[test]
fn sharded_runs_match_unsharded_baseline() {
    let (target, query) = assemblies();
    let golden = unsharded_baseline(&target, &query);
    // Small shards force every stage through the sharded paths even on
    // this modest pair (12 kb / 256 b floor = dozens of work items).
    let sharded = with_shard(256);
    for (name, threads) in MATRIX {
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = run_within(120, &sharded, &target, &query, opts, None, name);
        assert_eq!(
            golden,
            report.canonical_text(),
            "{name}: sharded output diverged from unsharded serial baseline"
        );
    }
}

#[test]
fn sharded_runs_match_under_fault_injection() {
    // An injected error fails its pair the same way sharded or not: an
    // error at the related pair's first extension tile fails it, the
    // decoy pair completes, and the output of every thread-count row
    // with small shards is byte-identical to the unsharded serial run
    // under the same plan.
    let (target, query) = assemblies();
    let fault = "{\"hook\":\"extend.tile\",\"kind\":\"error\",\"at\":[0]}";
    let faulted = |shard_bases, (name, threads)| {
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let params = with_shard(shard_bases);
        let report = run_within(120, &params, &target, &query, opts, plan(17, fault), name);
        report.canonical_text()
    };
    let golden = faulted(1 << 30, MATRIX[0]);
    assert!(golden.contains("pair\tchrI\tchr1\tfailed"), "{golden}");
    assert!(golden.contains("pair\tchrII\tchr1\tcompleted"), "{golden}");
    for row in MATRIX {
        assert_eq!(
            golden,
            faulted(256, row),
            "{}: a failed pair must not change sharded output",
            row.0
        );
    }
}

#[test]
fn sharded_panic_escalates_to_identical_pair_failure() {
    // A panicking extension tile is *not* retried: it fails exactly the
    // pair that owns it, on every schedule, so the failed-pair report is
    // byte-identical across the whole matrix.
    let (target, query) = assemblies();
    let sharded = with_shard(256);
    let fault = "{\"hook\":\"extend.tile\",\"kind\":\"panic\",\"at\":[0]}";
    let mut reference: Option<String> = None;
    for (name, threads) in MATRIX {
        let opts = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report = run_within(120, &sharded, &target, &query, opts, plan(17, fault), name);
        let text = report.canonical_text();
        assert!(
            text.contains("pair\tchrI\tchr1\tfailed"),
            "{name}: the faulted pair must fail"
        );
        match &reference {
            None => reference = Some(text),
            Some(golden) => assert_eq!(
                golden, &text,
                "{name}: pair failure must be identical across schedules"
            ),
        }
    }
}
