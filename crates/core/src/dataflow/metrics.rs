//! Per-stage telemetry of the executors.
//!
//! The hardware paper evaluates its decoupled arrays by occupancy and
//! throughput per stage; this module is the software equivalent. Each
//! stage's items, cells and busy time are read off the run's folded
//! report ([`ExecutorMetrics::from_report`]) on every executor, so
//! `--metrics-out` means the same thing on each; the dataflow executor
//! adds what a report cannot know — the time its producer and pool
//! spent blocked ([`StageMeter`]) and the filter queue's high-water
//! mark.

use crate::dataflow::ExecutorKind;
use crate::genome_pipeline::AssemblyReport;
use crate::json::Json;
use crate::obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Time one dataflow stage spent blocked (a relaxed atomic — telemetry,
/// not synchronisation).
#[derive(Debug, Default)]
pub(crate) struct StageMeter {
    idle_ns: AtomicU64,
}

impl StageMeter {
    pub(crate) fn add_idle(&self, d: Duration) {
        self.idle_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Writes the stage's idle time and its input queue's high-water
    /// mark into `stage`.
    pub(crate) fn fill(&self, stage: &mut StageMetrics, max_queue_occupancy: usize) {
        stage.idle_us = self.idle_ns.load(Ordering::Relaxed) / 1_000;
        stage.max_queue_occupancy = max_queue_occupancy as u64;
    }
}

/// Snapshot of one stage's telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Threads that run the stage: `threads` for each, since one pool
    /// seeds, filters and extends (the one-thread loop is a pool of one).
    pub workers: usize,
    /// Work items processed: tiles planned (seeding), tiles filtered
    /// (filtering), anchors extended-or-absorbed (extension).
    pub items: u64,
    /// DP cells evaluated (seed positions queried, for seeding).
    pub cells: u64,
    /// Cumulative time workers spent doing work, microseconds.
    pub busy_us: u64,
    /// Cumulative time the stage spent blocked, microseconds: for
    /// seeding, the producer planning it — pushing `filter_q`, or waiting
    /// for a row or a forward strand to finish seeding; for filtering,
    /// the pool popping `filter_q`. Extension has no queue of its own and
    /// reads 0.
    pub idle_us: u64,
    /// High-water mark of the stage's *input* queue: `filter_q` for
    /// filtering, 0 for seeding and extension, which have none.
    pub max_queue_occupancy: u64,
}

/// Whole-run telemetry of one executor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorMetrics {
    /// Which schedule produced these metrics: `Barrier` names the
    /// one-thread loop, `Dataflow` the executor at more threads.
    pub executor: ExecutorKind,
    /// Worker threads in the pool (`--threads`).
    pub threads: usize,
    /// Configured bounded-queue capacity.
    pub queue_depth: usize,
    /// Seeding telemetry: the pool's range tasks, planned by the
    /// producer.
    pub seeding: StageMetrics,
    /// Filtering telemetry: the pool's range batches.
    pub filtering: StageMetrics,
    /// Extension telemetry: the pool's completed pairs.
    pub extension: StageMetrics,
    /// Faults injected by `--fault-plan` across the whole run (zero
    /// outside chaos runs; absent in pre-existing metrics JSON).
    pub faults_injected: u64,
}

impl ExecutorMetrics {
    /// The telemetry of a run on `threads` whose pairs are all folded
    /// into `out`: each stage's items, cells and busy time come from the
    /// report (pairs replayed from a journal included, work spent on a
    /// pair that went on to fail excluded), the fault total from
    /// `obs`'s injector; every stage has `threads` workers. Idle
    /// time and queue occupancy read zero, as in the one-thread loop;
    /// the dataflow executor overwrites what its producer, pool and
    /// queue know.
    pub(crate) fn from_report(
        threads: usize,
        out: &AssemblyReport,
        obs: Obs<'_>,
    ) -> ExecutorMetrics {
        let stage = |workers, items, cells, busy: Duration| StageMetrics {
            workers,
            items,
            cells,
            busy_us: busy.as_micros() as u64,
            ..StageMetrics::default()
        };
        let (w, c, t) = (&out.workload, &out.counters, &out.timings);
        ExecutorMetrics {
            executor: if threads > 1 {
                ExecutorKind::Dataflow
            } else {
                ExecutorKind::Barrier
            },
            threads,
            seeding: stage(threads, w.filter_tiles, w.seeds, t.seeding),
            filtering: stage(threads, w.filter_tiles, c.filter_cells, t.filtering),
            extension: stage(threads, c.anchors_passed, w.extension_cells, t.extension),
            faults_injected: obs.injector().map_or(0, |injector| injector.injected()),
            ..ExecutorMetrics::default()
        }
    }

    /// The metrics as a stable, integer-only JSON object (the
    /// `--metrics-out` payload, which the CLI extends with a `process`
    /// member). Integer-only keeps the schema diffable and
    /// platform-independent, like the bench JSON files.
    pub fn to_json(&self) -> Json {
        let stage = |s: &StageMetrics| {
            Json::obj([
                ("workers", s.workers.into()),
                ("items", s.items.into()),
                ("cells", s.cells.into()),
                ("busy_us", s.busy_us.into()),
                ("idle_us", s.idle_us.into()),
                ("max_queue_occupancy", s.max_queue_occupancy.into()),
            ])
        };
        Json::obj([
            ("executor", self.executor.as_str().into()),
            ("threads", self.threads.into()),
            ("queue_depth", self.queue_depth.into()),
            ("seeding", stage(&self.seeding)),
            ("filtering", stage(&self.filtering)),
            ("extension", stage(&self.extension)),
            ("faults_injected", self.faults_injected.into()),
        ])
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        fn line(name: &str, s: &StageMetrics) -> String {
            let busy = s.busy_us as f64 / 1_000.0;
            let idle = s.idle_us as f64 / 1_000.0;
            format!(
                "  {name:<10} workers={} items={} cells={} busy={busy:.1}ms idle={idle:.1}ms peak-queue={}",
                s.workers, s.items, s.cells, s.max_queue_occupancy
            )
        }
        let queue = if self.executor == ExecutorKind::Dataflow {
            format!(", queue-depth={}", self.queue_depth)
        } else {
            String::new()
        };
        let chaos = if self.faults_injected > 0 {
            format!("\n  chaos faults_injected={}", self.faults_injected)
        } else {
            String::new()
        };
        format!(
            "stage metrics (executor={}, threads={}{queue}):\n{}\n{}\n{}{chaos}",
            self.executor.as_str(),
            self.threads,
            line("seeding", &self.seeding),
            line("filtering", &self.filtering),
            line("extension", &self.extension)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_idle_and_fills_the_queue_side() {
        let m = StageMeter::default();
        m.add_idle(Duration::from_micros(100));
        m.add_idle(Duration::from_micros(150));
        let mut s = StageMetrics {
            workers: 1,
            items: 7,
            cells: 100,
            busy_us: 1500,
            ..StageMetrics::default()
        };
        m.fill(&mut s, 7);
        assert_eq!((s.idle_us, s.max_queue_occupancy), (250, 7));
        assert_eq!(
            (s.workers, s.items, s.cells, s.busy_us),
            (1, 7, 100, 1500),
            "the report's side stays"
        );
    }

    #[test]
    fn summary_names_the_executor_its_queue_and_any_chaos() {
        let metrics = ExecutorMetrics {
            executor: ExecutorKind::Dataflow,
            queue_depth: 64,
            ..ExecutorMetrics::default()
        };
        assert!(metrics.summary().contains("executor=dataflow"));
        assert!(metrics.summary().contains("queue-depth=64"));
        assert!(
            !metrics.summary().contains("chaos"),
            "clean runs stay clean in the summary"
        );
        let barrier = ExecutorMetrics {
            executor: ExecutorKind::Barrier,
            ..metrics
        };
        assert!(barrier.summary().contains("executor=barrier"));
        assert!(!barrier.summary().contains("queue-depth"));
        let chaotic = ExecutorMetrics {
            faults_injected: 3,
            ..metrics
        };
        assert!(chaotic.summary().contains("faults_injected=3"));
    }

    #[test]
    fn metrics_json_without_fault_counters_still_parses() {
        // A `--metrics-out` payload written before the fault counters
        // existed: it must keep parsing, and consumers read
        // the absent counters as zero (the same tolerant-key
        // convention the journal uses for `FunnelCounters`).
        let old = "{\"executor\":\"dataflow\",\"threads\":2,\"queue_depth\":8,\
                   \"seeding\":{\"workers\":1,\"items\":1,\"cells\":2,\"busy_us\":3,\"idle_us\":4,\"max_queue_occupancy\":0},\
                   \"filtering\":{\"workers\":2,\"items\":1,\"cells\":2,\"busy_us\":3,\"idle_us\":4,\"max_queue_occupancy\":5},\
                   \"extension\":{\"workers\":2,\"items\":1,\"cells\":2,\"busy_us\":3,\"idle_us\":4,\"max_queue_occupancy\":5}}";
        let value = crate::json::parse(old).unwrap();
        assert_eq!(value.u64("threads"), Ok(2));
        for field in ["faults_injected", "retries"] {
            assert_eq!(value.get_u64(field), Ok(None), "{field} is absent");
        }
        // The other direction: a payload from when extension speculated,
        // from when stalls were counted, or from when faults were
        // retried, carries a counter this struct no longer has. It still
        // parses, and the fields that remain read as before.
        let retired = old.replacen(
            '{',
            "{\"spec_discard\":7,\"stalls_detected\":0,\"retries\":2,",
            1,
        );
        let value = crate::json::parse(&retired).unwrap();
        assert_eq!(value.u64("spec_discard"), Ok(7));
        assert_eq!(value.u64("retries"), Ok(2));
        assert_eq!(value.u64("queue_depth"), Ok(8));
    }
}
