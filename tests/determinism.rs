//! Determinism and parallel-equivalence integration tests.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions};
use darwin_wga::core::pipeline::WgaPipeline;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::SeedableRng;

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
        let par = align_assemblies_with(&params, &target, &query, &options).unwrap();
        let alignments: Vec<_> = par.alignments.into_iter().map(|a| a.aligned).collect();
        assert_eq!(serial.alignments, alignments, "threads={threads}");
        assert_eq!(serial.workload, par.workload);
    }
}

/// The dataflow producer dispatches pairs smallest-remaining-work
/// first, which on this deliberately lopsided matrix (chromosome sizes
/// 12k / 3k / 6k vs 9k / 2k) is very different from FIFO pair-id
/// order. The canonical report must not notice: the collector
/// assembles results in pair-id order and fault occurrences are scoped
/// per (hook, pair), so scheduling policy is invisible in the output
/// bytes across thread counts and queue depths.
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
    let reference = align_assemblies_with(&wga, &target, &query, &AlignOptions::default())
        .expect("one-thread reference run")
        .canonical_text();
    for threads in [2usize, 8] {
        for queue_depth in [1usize, 64] {
            let options = AlignOptions {
                threads,
                queue_depth,
                ..AlignOptions::default()
            };
            let report =
                align_assemblies_with(&wga, &target, &query, &options).expect("dataflow run");
            assert_eq!(
                report.canonical_text(),
                reference,
                "dataflow {threads}t depth={queue_depth} diverged from the one-thread reference"
            );
        }
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
