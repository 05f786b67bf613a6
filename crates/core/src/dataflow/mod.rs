//! Streaming dataflow executor: decoupled seed → filter → extend stages.
//!
//! Darwin-WGA's hardware throughput comes from *decoupling* the pipeline
//! stages: D-SOFT hits stream through queues into the BSW filter arrays
//! and surviving tiles stream into the GACT-X arrays, so filtering and
//! extension overlap instead of running to a barrier (PAPER.md §IV).
//! This module is that architecture in software:
//!
//! * a **seeding producer** walks the target rows one at a time, the row
//!   with the least work first and a row's pairs smallest first, and
//!   emits one tile batch per query range of each (pair, strand);
//! * a **filter worker pool** consumes batches through the shared
//!   [`crate::filter_engine::FilterContext`] (the BSW array analogue);
//! * an **extension worker pool** runs GACT-X per independent pair
//!   stream (the GACT-X array analogue) — the sequential anchor-
//!   absorption stage stays *within* a stream, so results are
//!   bit-identical to the barrier executor after the deterministic
//!   stream-ordered merge.
//!
//! The queues are bounded ([`queue::BoundedQueue`], capacity
//! `--queue-depth`), providing the same backpressure a fixed-depth
//! hardware FIFO does. Per-stage telemetry ([`StageMetrics`]) reports
//! queue occupancy, busy/idle time and items/cells processed — the
//! software equivalent of the paper's array-utilisation numbers.
//!
//! Select it with `--executor dataflow`; the stage-barrier driver
//! remains the default.

mod executor;
mod metrics;
mod queue;

pub use metrics::{ExecutorMetrics, StageMetrics};
pub use queue::BoundedQueue;

pub(crate) use executor::execute;

/// Default bounded-queue capacity (`--queue-depth`).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Which execution engine drives an assembly-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Stage-barrier schedule: within each pair seeding and the filter
    /// batches fan out, each stage runs to completion before the next,
    /// and one thread extends ([`crate::pipeline::run_pair`]).
    #[default]
    Barrier,
    /// Streaming executor: all three stages run concurrently over
    /// bounded queues.
    Dataflow,
}

impl ExecutorKind {
    /// Stable lower-case name, used in metrics JSON and CLI summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecutorKind::Barrier => "barrier",
            ExecutorKind::Dataflow => "dataflow",
        }
    }
}

impl std::str::FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecutorKind, String> {
        match s {
            "barrier" => Ok(ExecutorKind::Barrier),
            "dataflow" => Ok(ExecutorKind::Dataflow),
            other => Err(format!(
                "unknown executor '{other}' (expected 'barrier' or 'dataflow')"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterEngineKind, ResourceBudget, WgaParams};
    use crate::genome_pipeline::{align_assemblies_with, AlignOptions};
    use genome::assembly::Assembly;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn executor_kind_parses() -> Result<(), String> {
        assert_eq!("barrier".parse::<ExecutorKind>()?, ExecutorKind::Barrier);
        assert_eq!("dataflow".parse::<ExecutorKind>()?, ExecutorKind::Dataflow);
        Ok(())
    }

    #[test]
    fn executor_kind_from_str() {
        executor_kind_parses().unwrap();
        assert!("streaming".parse::<ExecutorKind>().is_err());
        assert_eq!(ExecutorKind::default(), ExecutorKind::Barrier);
        assert_eq!(ExecutorKind::Barrier.as_str(), "barrier");
        assert_eq!(ExecutorKind::Dataflow.as_str(), "dataflow");
    }

    fn assemblies(seed: u64, sizes: &[(usize, f64)]) -> (Assembly, Assembly) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut target = Assembly::new("t");
        let mut query = Assembly::new("q");
        for (i, &(len, dist)) in sizes.iter().enumerate() {
            let pair = SyntheticPair::generate(len, &EvolutionParams::at_distance(dist), &mut rng);
            target.push(format!("chr{i}T"), pair.target.sequence.clone());
            query.push(format!("chr{i}Q"), pair.query.sequence.clone());
        }
        (target, query)
    }

    fn run(
        params: &WgaParams,
        target: &Assembly,
        query: &Assembly,
        executor: ExecutorKind,
        threads: usize,
        queue_depth: usize,
    ) -> crate::genome_pipeline::AssemblyReport {
        align_assemblies_with(
            params,
            target,
            query,
            &AlignOptions {
                threads,
                executor,
                queue_depth,
                ..AlignOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn dataflow_matches_barrier_across_thread_counts() {
        let (target, query) = assemblies(101, &[(12_000, 0.2), (9_000, 0.3)]);
        let params = WgaParams::darwin_wga();
        let barrier = run(&params, &target, &query, ExecutorKind::Barrier, 1, 64);
        assert!(barrier.total_matches() > 0);
        let bm = barrier.stage_metrics.expect("barrier sets metrics too");
        let work = |m: &ExecutorMetrics| {
            [m.seeding, m.filtering, m.extension].map(|stage| (stage.items, stage.cells))
        };
        for threads in [1, 2, 4] {
            for queue_depth in [1, 3, 64] {
                let dataflow = run(
                    &params,
                    &target,
                    &query,
                    ExecutorKind::Dataflow,
                    threads,
                    queue_depth,
                );
                assert_eq!(
                    barrier.canonical_text(),
                    dataflow.canonical_text(),
                    "threads={threads} queue_depth={queue_depth}"
                );
                assert_eq!(barrier.workload, dataflow.workload);
                let metrics = dataflow.stage_metrics.expect("dataflow sets metrics");
                assert_eq!(metrics.executor, ExecutorKind::Dataflow);
                assert_eq!(metrics.threads, threads);
                assert_eq!(metrics.queue_depth, queue_depth);
                assert_eq!(metrics.filtering.items, barrier.workload.filter_tiles);
                assert!(metrics.filtering.max_queue_occupancy <= queue_depth as u64);
                // Both read every stage's work off the folded report.
                assert_eq!(work(&metrics), work(&bm), "threads={threads}");
                assert_eq!(metrics.extension.workers, threads);
            }
        }
        assert_eq!(bm.executor, ExecutorKind::Barrier);
        assert_eq!(bm.filtering.items, barrier.workload.filter_tiles);
        assert_eq!(bm.threads, 1);
    }

    #[test]
    fn dataflow_matches_barrier_with_budgets_and_both_strands() {
        let (target, query) = assemblies(202, &[(10_000, 0.25)]);
        let params = WgaParams {
            budget: ResourceBudget {
                max_seed_hits: Some(40),
                max_filter_tiles: Some(60),
                max_extension_cells: Some(2_000_000),
                ..ResourceBudget::default()
            },
            both_strands: true,
            ..WgaParams::darwin_wga()
        };
        let barrier = run(&params, &target, &query, ExecutorKind::Barrier, 2, 64);
        let dataflow = run(&params, &target, &query, ExecutorKind::Dataflow, 3, 8);
        assert_eq!(barrier.canonical_text(), dataflow.canonical_text());
        assert!(dataflow.degraded_pairs() > 0, "budgets should trip");
    }

    #[test]
    fn dataflow_matches_barrier_with_scalar_engine() {
        let (target, query) = assemblies(303, &[(8_000, 0.2)]);
        let params = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
        let barrier = run(&params, &target, &query, ExecutorKind::Barrier, 1, 64);
        let dataflow = run(&params, &target, &query, ExecutorKind::Dataflow, 2, 4);
        assert_eq!(barrier.canonical_text(), dataflow.canonical_text());
    }

    #[test]
    fn dataflow_handles_empty_and_unrelated_assemblies() {
        let params = WgaParams::darwin_wga();
        let empty = run(
            &params,
            &Assembly::new("a"),
            &Assembly::new("b"),
            ExecutorKind::Dataflow,
            2,
            4,
        );
        assert!(empty.alignments.is_empty());
        assert!(empty.pairs.is_empty());
        assert!(empty.stage_metrics.is_some());

        // Unrelated sequences: zero hits on some pairs exercises the
        // zero-batch fast path (pair goes straight to extension).
        let mut rng = StdRng::seed_from_u64(404);
        let mut target = Assembly::new("t");
        let mut query = Assembly::new("q");
        target.push(
            "chrT",
            genome::markov::MarkovModel::genome_like().generate(6_000, &mut rng),
        );
        query.push(
            "chrQ",
            genome::markov::MarkovModel::genome_like().generate(6_000, &mut rng),
        );
        let barrier = run(&params, &target, &query, ExecutorKind::Barrier, 1, 64);
        let dataflow = run(&params, &target, &query, ExecutorKind::Dataflow, 2, 2);
        assert_eq!(barrier.canonical_text(), dataflow.canonical_text());
        assert_eq!(dataflow.pairs.len(), 1);
    }

    #[test]
    fn zero_queue_depth_is_a_config_error() {
        let (target, query) = assemblies(505, &[(4_000, 0.1)]);
        let err = align_assemblies_with(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions {
                threads: 2,
                executor: ExecutorKind::Dataflow,
                queue_depth: 0,
                ..AlignOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::WgaError::Config(_)), "{err}");
        // The barrier executor ignores queue_depth entirely.
        let ok = align_assemblies_with(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions {
                threads: 1,
                executor: ExecutorKind::Barrier,
                queue_depth: 0,
                ..AlignOptions::default()
            },
        );
        assert!(ok.is_ok());
    }

    /// CI deadlock-guard entry point: thread count comes from
    /// `WGA_DATAFLOW_THREADS` (default 2) so the same test runs the
    /// suite's queue machinery at different pool sizes under `timeout`.
    #[test]
    fn dataflow_stress_env_threads() {
        let threads: usize = std::env::var("WGA_DATAFLOW_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        let (target, query) = assemblies(606, &[(9_000, 0.2), (7_000, 0.35), (5_000, 0.15)]);
        let params = WgaParams::darwin_wga();
        let barrier = run(&params, &target, &query, ExecutorKind::Barrier, 1, 64);
        // Tiny queues maximise backpressure stalls — the deadlock-prone
        // regime.
        let dataflow = run(&params, &target, &query, ExecutorKind::Dataflow, threads, 1);
        assert_eq!(barrier.canonical_text(), dataflow.canonical_text());
    }

    #[test]
    fn dataflow_checkpoint_resume_is_byte_identical() {
        let (target, query) = assemblies(707, &[(9_000, 0.2), (7_000, 0.3)]);
        let params = WgaParams::darwin_wga();
        let path =
            std::env::temp_dir().join(format!("wga-dataflow-ckpt-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = AlignOptions {
            threads: 3,
            checkpoint: Some(path.clone()),
            executor: ExecutorKind::Dataflow,
            queue_depth: 4,
            ..AlignOptions::default()
        };
        let first = align_assemblies_with(&params, &target, &query, &opts).unwrap();
        assert_eq!(first.resumed_pairs, 0);
        let second = align_assemblies_with(&params, &target, &query, &opts).unwrap();
        assert_eq!(second.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), second.canonical_text());
        // Cross-executor resume: a barrier run picks up the dataflow
        // journal (the executor is not part of the params fingerprint).
        let barrier_opts = AlignOptions {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        let third = align_assemblies_with(&params, &target, &query, &barrier_opts).unwrap();
        assert_eq!(third.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), third.canonical_text());
        let _ = std::fs::remove_file(&path);
    }
}
