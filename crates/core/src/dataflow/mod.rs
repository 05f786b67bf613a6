//! Streaming dataflow executor: decoupled seed → filter → extend stages.
//!
//! Darwin-WGA's hardware throughput comes from *decoupling* the pipeline
//! stages: D-SOFT hits stream through queues into the BSW filter arrays
//! and surviving tiles stream into the GACT-X arrays, so filtering and
//! extension overlap instead of running to a barrier (PAPER.md §IV).
//! The paper's two arrays are separate silicon; here both are general
//! threads, so one pool runs both stages:
//!
//! * a **planning producer** walks the target rows one at a time, the
//!   row with the least work first and a row's pairs smallest first,
//!   and queues one task per query range of each (pair, strand);
//! * a **worker pool** seeds each range, as the paper's host threads
//!   seed, and filters its hits through the shared
//!   [`crate::filter_engine::FilterContext`] (the BSW array analogue),
//!   and the worker that completes a pair runs GACT-X over it (the
//!   GACT-X array analogue) — the sequential anchor-absorption stage
//!   stays *within* a pair, so results are bit-identical to the
//!   one-thread loop after the deterministic pair-ordered merge;
//! * a **collector** journals each finished pair.
//!
//! The queues are bounded ([`queue::BoundedQueue`], capacity
//! `--queue-depth`), providing the same backpressure a fixed-depth
//! hardware FIFO does. Per-stage telemetry ([`StageMetrics`]) reports
//! queue occupancy, busy/idle time and items/cells processed — the
//! software equivalent of the paper's array-utilisation numbers.
//!
//! It runs whenever `--threads` is above 1; one thread runs the pair loop
//! ([`crate::pipeline::run_pair`]) instead.

mod executor;
mod metrics;
mod queue;

pub use metrics::{ExecutorMetrics, StageMetrics};
pub use queue::BoundedQueue;

pub(crate) use executor::execute;

/// Default bounded-queue capacity (`--queue-depth`): the range tasks
/// the producer may plan ahead of the pool (EXPERIMENTS.md, "One
/// schedule", for why 4).
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// The name of a schedule, as `--metrics-out` and the run summary spell
/// it. The thread count picks the schedule; `--executor` and
/// `AlignOptions::executor` still parse one, and nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The one-thread pair loop ([`crate::pipeline::run_pair`]).
    #[default]
    Barrier,
    /// Streaming executor: a planning producer and one pool of seeding,
    /// filtering and extending workers, over bounded queues.
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
    use crate::genome_pipeline::{align_assemblies_observed, align_assemblies_with, AlignOptions};
    use crate::obs::{Obs, Span, SpanName, TraceRecorder};
    use crate::report::{BudgetKind, RunEvent, RunOutcome};
    use genome::assembly::Assembly;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use genome::Sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::time::Duration;

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
        threads: usize,
        queue_depth: usize,
    ) -> crate::genome_pipeline::AssemblyReport {
        let options = AlignOptions {
            threads,
            queue_depth,
            ..AlignOptions::default()
        };
        align_assemblies_with(params, target, query, &options).unwrap()
    }

    #[test]
    fn dataflow_matches_the_loop_across_thread_counts() {
        let (target, query) = assemblies(101, &[(12_000, 0.2), (9_000, 0.3)]);
        let params = WgaParams::darwin_wga();
        let serial = run(&params, &target, &query, 1, 64);
        assert!(serial.total_matches() > 0);
        let sm = serial.stage_metrics.expect("the loop sets metrics too");
        assert_eq!((sm.executor, sm.threads), (ExecutorKind::Barrier, 1));
        assert_eq!(sm.filtering.items, serial.workload.filter_tiles);
        let work = |m: &ExecutorMetrics| {
            [m.seeding, m.filtering, m.extension].map(|stage| (stage.items, stage.cells))
        };
        for threads in [2, 4] {
            for queue_depth in [1, 3, 64] {
                let dataflow = run(&params, &target, &query, threads, queue_depth);
                let at = format!("threads={threads} queue_depth={queue_depth}");
                assert_eq!(serial.canonical_text(), dataflow.canonical_text(), "{at}");
                assert_eq!(serial.workload, dataflow.workload);
                let metrics = dataflow.stage_metrics.expect("dataflow sets metrics");
                assert_eq!(metrics.executor, ExecutorKind::Dataflow);
                assert_eq!(
                    (metrics.threads, metrics.queue_depth),
                    (threads, queue_depth)
                );
                assert!(metrics.filtering.max_queue_occupancy <= queue_depth as u64);
                // Both read every stage's work off the folded report.
                assert_eq!(work(&metrics), work(&sm), "{at}");
                assert_eq!(metrics.extension.workers, threads);
            }
        }
    }

    #[test]
    fn dataflow_matches_the_loop_with_budgets_and_both_strands() {
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
        let serial = run(&params, &target, &query, 1, 64);
        let dataflow = run(&params, &target, &query, 3, 8);
        assert_eq!(serial.canonical_text(), dataflow.canonical_text());
        assert!(dataflow.degraded_pairs() > 0, "budgets should trip");
    }

    /// The tile budget charges the tiles queued for filtering on both
    /// schedules, so a deadline that stops every batch before its first
    /// tile clamps the reverse strand alike at one thread and at two.
    #[test]
    fn tile_budget_events_match_the_loop_when_the_deadline_stops_filtering() {
        let (target, query) = assemblies(808, &[(10_000, 0.25)]);
        let both = WgaParams {
            both_strands: true,
            ..WgaParams::darwin_wga()
        };
        let tiles = run(&both, &target, &query, 1, 4).workload.filter_tiles;
        let params = WgaParams {
            budget: ResourceBudget {
                max_filter_tiles: Some(tiles / 2),
                deadline: Some(Duration::ZERO),
                ..ResourceBudget::default()
            },
            ..both
        };
        let tile_events = |threads| -> Vec<RunEvent> {
            let report = run(&params, &target, &query, threads, 4);
            let events = report
                .pairs
                .into_iter()
                .flat_map(|pair| match pair.outcome {
                    RunOutcome::Degraded { events } => events,
                    _ => Vec::new(),
                });
            events
                .filter(|event| {
                    matches!(
                        event,
                        RunEvent::BudgetExceeded {
                            budget: BudgetKind::FilterTiles,
                            ..
                        }
                    )
                })
                .collect()
        };
        let events = tile_events(1);
        assert_eq!(events.len(), 2, "both strands trip: {events:?}");
        assert_eq!(tile_events(2), events);
    }

    /// One producer, the pool's workers and the collector: a traced run
    /// records spans from no other thread.
    #[test]
    fn a_traced_run_records_at_most_threads_plus_two_thread_ids() {
        let (target, query) = assemblies(909, &[(6_000, 0.2), (5_000, 0.3), (4_000, 0.25)]);
        let params = WgaParams::darwin_wga();
        for threads in [2, 3] {
            let recorder = TraceRecorder::new();
            let options = AlignOptions {
                threads,
                queue_depth: 1,
                ..AlignOptions::default()
            };
            let obs = Obs::new(&recorder);
            align_assemblies_observed(&params, &target, &query, &options, obs).unwrap();
            let tids: BTreeSet<u64> = recorder.spans().iter().map(|span| span.tid).collect();
            assert!(
                tids.len() <= threads + 2,
                "--threads {threads}: spans from {} threads",
                tids.len()
            );
        }
    }

    /// A traced run of a four-chromosome pair at `threads`, cut into
    /// ranges of 512 bases, with its spans.
    fn four_rows(params: &WgaParams, threads: usize) -> Vec<Span> {
        let sizes = [(5_000, 0.2), (4_000, 0.3), (3_000, 0.25), (2_000, 0.2)];
        let (target, query) = assemblies(111, &sizes);
        let params = WgaParams {
            shard_bases: 512,
            ..params.clone()
        };
        let recorder = TraceRecorder::new();
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let obs = Obs::new(&recorder);
        align_assemblies_observed(&params, &target, &query, &options, obs).unwrap();
        recorder.spans()
    }

    /// The producer plans and the pool seeds: above one thread no `seed`
    /// span comes from the thread that builds the tables, unless a
    /// budget makes that thread walk its strands whole.
    #[test]
    fn the_pool_seeds_what_the_producer_plans() {
        let budgeted = WgaParams {
            budget: ResourceBudget {
                max_seed_hits: Some(1_000),
                ..ResourceBudget::default()
            },
            ..WgaParams::darwin_wga()
        };
        for threads in [2, 3] {
            for (params, producer_seeds) in
                [(WgaParams::darwin_wga(), false), (budgeted.clone(), true)]
            {
                let spans = four_rows(&params, threads);
                let of = |name| spans.iter().filter(move |span| span.name == name);
                let producer: BTreeSet<u64> =
                    of(SpanName::SeedTable).map(|span| span.tid).collect();
                assert_eq!(
                    producer.len(),
                    1,
                    "--threads {threads}: one thread builds the tables"
                );
                // A budgeted strand is seeded whole on the producer, and
                // its tasks slice what the budget kept.
                let on_producer = |span: &&Span| producer.contains(&span.tid);
                let (there, elsewhere): (Vec<&Span>, Vec<&Span>) =
                    of(SpanName::Seed).partition(on_producer);
                assert_eq!(
                    (!there.is_empty(), elsewhere.is_empty()),
                    (producer_seeds, producer_seeds),
                    "--threads {threads}, budgeted: {producer_seeds}"
                );
            }
        }
    }

    /// One row's table at a time: no `seed.table` span starts before the
    /// row built before it has ended its last `seed` span.
    #[test]
    fn a_row_table_is_built_once_the_row_before_is_seeded() {
        for threads in [2, 3] {
            let spans = four_rows(&WgaParams::darwin_wga(), threads);
            let mut tables: Vec<_> = spans
                .iter()
                .filter(|span| span.name == SpanName::SeedTable)
                .collect();
            tables.sort_by_key(|span| span.start_us);
            assert_eq!(tables.len(), 4, "--threads {threads}");
            for built in tables.windows(2) {
                // Four query chromosomes a row: pair `p` is in row `p / 4`.
                let seeded = spans
                    .iter()
                    .filter(|span| span.name == SpanName::Seed && span.pair / 4 == built[0].seq)
                    .map(|span| span.start_us + span.dur_us);
                let seeded = seeded.max().expect("the row seeded");
                assert!(
                    seeded <= built[1].start_us,
                    "--threads {threads}: row {} built at {} us, row {} seeded until {seeded} us",
                    built[1].seq,
                    built[1].start_us,
                    built[0].seq
                );
            }
        }
    }

    /// A pair with no query range has nothing for the pool: the producer
    /// finishes it, into the loop's report, on one strand or both.
    #[test]
    fn a_pair_with_an_empty_query_matches_the_loop() {
        let (target, mut query) = assemblies(121, &[(6_000, 0.2)]);
        query.push("chrEmpty", Sequence::default());
        for both_strands in [false, true] {
            let params = WgaParams {
                both_strands,
                ..WgaParams::darwin_wga()
            };
            let serial = run(&params, &target, &query, 1, 4);
            assert_eq!(serial.pairs.len(), 2);
            assert!(serial.failed_pairs() == 0 && serial.total_matches() > 0);
            for threads in [2, 3] {
                let dataflow = run(&params, &target, &query, threads, 4);
                assert_eq!(
                    serial.canonical_text(),
                    dataflow.canonical_text(),
                    "--threads {threads}"
                );
            }
        }
    }

    #[test]
    fn dataflow_matches_the_loop_with_scalar_engine() {
        let (target, query) = assemblies(303, &[(8_000, 0.2)]);
        let params = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
        let serial = run(&params, &target, &query, 1, 64);
        let dataflow = run(&params, &target, &query, 2, 4);
        assert_eq!(serial.canonical_text(), dataflow.canonical_text());
    }

    #[test]
    fn dataflow_handles_empty_and_unrelated_assemblies() {
        let params = WgaParams::darwin_wga();
        let empty = run(&params, &Assembly::new("a"), &Assembly::new("b"), 2, 4);
        assert!(empty.alignments.is_empty());
        assert!(empty.pairs.is_empty());
        assert!(empty.stage_metrics.is_some());

        // Unrelated sequences: zero hits on some pairs exercises the
        // zero-batch fast path (pair goes straight to extension).
        let mut rng = StdRng::seed_from_u64(404);
        let mut target = Assembly::new("t");
        let mut query = Assembly::new("q");
        let model = genome::markov::MarkovModel::genome_like();
        target.push("chrT", model.generate(6_000, &mut rng));
        query.push("chrQ", model.generate(6_000, &mut rng));
        let serial = run(&params, &target, &query, 1, 64);
        let dataflow = run(&params, &target, &query, 2, 2);
        assert_eq!(serial.canonical_text(), dataflow.canonical_text());
        assert_eq!(dataflow.pairs.len(), 1);
    }

    #[test]
    fn zero_queue_depth_is_a_config_error() {
        let (target, query) = assemblies(505, &[(4_000, 0.1)]);
        let options = |threads| AlignOptions {
            threads,
            queue_depth: 0,
            ..AlignOptions::default()
        };
        let params = WgaParams::darwin_wga();
        let err = align_assemblies_with(&params, &target, &query, &options(2)).unwrap_err();
        assert!(matches!(err, crate::error::WgaError::Config(_)), "{err}");
        // The one-thread loop has no queues.
        assert!(align_assemblies_with(&params, &target, &query, &options(1)).is_ok());
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
        let serial = run(&params, &target, &query, 1, 64);
        // Tiny queues maximise backpressure stalls — the deadlock-prone
        // regime.
        let dataflow = run(&params, &target, &query, threads, 1);
        assert_eq!(serial.canonical_text(), dataflow.canonical_text());
    }

    #[test]
    fn dataflow_checkpoint_resume_is_byte_identical() {
        let (target, query) = assemblies(707, &[(9_000, 0.2), (7_000, 0.3)]);
        let params = WgaParams::darwin_wga();
        let path =
            std::env::temp_dir().join(format!("wga-dataflow-ckpt-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let options = |threads| AlignOptions {
            threads,
            checkpoint: Some(path.clone()),
            queue_depth: 4,
            ..AlignOptions::default()
        };
        let first = align_assemblies_with(&params, &target, &query, &options(3)).unwrap();
        assert_eq!(first.resumed_pairs, 0);
        let second = align_assemblies_with(&params, &target, &query, &options(3)).unwrap();
        assert_eq!(second.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), second.canonical_text());
        // The one-thread loop picks up the dataflow journal (the thread
        // count is not part of the params fingerprint).
        let third = align_assemblies_with(&params, &target, &query, &options(1)).unwrap();
        assert_eq!(third.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), third.canonical_text());
        let _ = std::fs::remove_file(&path);
    }
}
