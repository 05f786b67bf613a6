//! Run reports: alignments, workload counters, stage timings.

use align::Alignment;
use hwsim::Workload;
use std::time::Duration;

/// Query strand an alignment was found on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strand {
    /// Forward (query as given).
    #[default]
    Forward,
    /// Reverse complement of the query; alignment coordinates refer to
    /// the reverse-complemented sequence.
    Reverse,
}

/// One output alignment with strand information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WgaAlignment {
    /// The alignment (query coordinates are on `strand`).
    pub alignment: Alignment,
    /// Query strand.
    pub strand: Strand,
}

/// Wall-clock time spent per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Seeding (table build + D-SOFT).
    pub seeding: Duration,
    /// Filtering (all tiles).
    pub filtering: Duration,
    /// Extension (all anchors).
    pub extension: Duration,
}

impl StageTimings {
    /// Total of all stages.
    pub fn total(&self) -> Duration {
        self.seeding + self.filtering + self.extension
    }

    /// Merges another timing record (summing stages).
    pub fn merge(&mut self, other: &StageTimings) {
        self.seeding += other.seeding;
        self.filtering += other.filtering;
        self.extension += other.extension;
    }
}

/// Which resource budget a [`RunEvent::BudgetExceeded`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`crate::config::ResourceBudget::max_seed_hits`] (per strand).
    SeedHits,
    /// [`crate::config::ResourceBudget::max_filter_tiles`] (per pair).
    FilterTiles,
    /// [`crate::config::ResourceBudget::max_extension_cells`] (per pair).
    ExtensionCells,
    /// [`crate::config::ResourceBudget::deadline`] (per pair; the
    /// `limit`/`observed` fields are milliseconds).
    Deadline,
}

/// Which pipeline stage an event occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Seed-table lookup / D-SOFT banding.
    Seeding,
    /// Gapped or ungapped filtering.
    Filtering,
    /// GACT-X / Y-drop extension.
    Extension,
}

/// One noteworthy event of a pipeline run: graceful degradation instead
/// of unbounded work (budgets) or process death (worker panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEvent {
    /// A resource budget tripped; the stage truncated its work
    /// deterministically and the run continued.
    BudgetExceeded {
        /// Which budget tripped.
        budget: BudgetKind,
        /// Stage that was truncated.
        stage: StageKind,
        /// The configured limit (milliseconds for
        /// [`BudgetKind::Deadline`]).
        limit: u64,
        /// What the stage observed / would have used when it tripped.
        observed: u64,
    },
    /// A filter batch panicked twice (its first run and its one retry)
    /// or was failed by a queue fault; its items were dropped from the
    /// result.
    BatchFailed {
        /// Stage the batch belonged to.
        stage: StageKind,
        /// Batch index within the stage dispatch.
        batch: usize,
        /// Number of work items the batch carried.
        items: u64,
        /// The panic message.
        message: String,
    },
}

/// Per-chromosome-pair status of an assembly-scale run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pair ran to completion with no degradation.
    Completed,
    /// The pair produced results, but budgets tripped and/or worker
    /// batches failed along the way.
    Degraded {
        /// What was truncated or dropped.
        events: Vec<RunEvent>,
    },
    /// The pair produced no results (its worker panicked outside any
    /// recoverable scope); the rest of the run continued.
    Failed {
        /// The panic/error message.
        error: String,
    },
}

/// One chromosome pair's outcome within an
/// [`crate::genome_pipeline::AssemblyReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairOutcome {
    /// Target chromosome name.
    pub target_chrom: String,
    /// Query chromosome name.
    pub query_chrom: String,
    /// What happened to the pair.
    pub outcome: RunOutcome,
}

/// Funnel counters: how many candidates each stage saw and passed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunnelCounters {
    /// Raw seed hits before diagonal-band deduplication. (The seed hits
    /// handed to the filter, one per qualifying band, are
    /// [`Workload::filter_tiles`].)
    pub raw_seed_hits: u64,
    /// DP cells spent in the gapped filter. Absent (zero) in records
    /// serialized before this field existed.
    pub filter_cells: u64,
    /// Anchors that passed the filter threshold.
    pub anchors_passed: u64,
    /// Anchors absorbed into existing alignments (not extended).
    pub anchors_absorbed: u64,
    /// Alignments surviving the extension threshold.
    pub alignments_kept: u64,
    /// Faults injected into this pair by `--fault-plan` (zero outside
    /// chaos runs; absent in records serialized before the field).
    pub faults_injected: u64,
    /// Supervised retries this pair consumed recovering from injected
    /// or real transient failures.
    pub retries: u64,
    /// Watchdog stall escalations attributed to this pair.
    pub stalls_detected: u64,
}

impl FunnelCounters {
    /// Merges another counter record.
    pub fn merge(&mut self, other: &FunnelCounters) {
        self.raw_seed_hits += other.raw_seed_hits;
        self.filter_cells += other.filter_cells;
        self.anchors_passed += other.anchors_passed;
        self.anchors_absorbed += other.anchors_absorbed;
        self.alignments_kept += other.alignments_kept;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.stalls_detected += other.stalls_detected;
    }
}

/// Complete output of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct WgaReport {
    /// Output alignments, best score first.
    pub alignments: Vec<WgaAlignment>,
    /// Hardware-relevant workload (feeds the `hwsim` models).
    pub workload: Workload,
    /// Stage wall-clock timings of this (software) run.
    pub timings: StageTimings,
    /// Stage funnel counters.
    pub counters: FunnelCounters,
    /// Degradation events (tripped budgets, failed worker batches), in
    /// the order they occurred. Empty for a clean run.
    pub events: Vec<RunEvent>,
}

impl WgaReport {
    /// The run's [`RunOutcome`]: `Completed` when clean, `Degraded`
    /// carrying the event list otherwise.
    pub fn outcome(&self) -> RunOutcome {
        if self.events.is_empty() {
            RunOutcome::Completed
        } else {
            RunOutcome::Degraded {
                events: self.events.clone(),
            }
        }
    }

    /// Forward-strand alignments only (what the ground-truth metrics of
    /// the synthetic pairs evaluate).
    pub fn forward_alignments(&self) -> Vec<Alignment> {
        self.alignments
            .iter()
            .filter(|a| a.strand == Strand::Forward)
            .map(|a| a.alignment.clone())
            .collect()
    }

    /// Total matched base pairs across all output alignments.
    pub fn total_matches(&self) -> u64 {
        self.alignments.iter().map(|a| a.alignment.matches()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::{AlignOp, Cigar};

    #[test]
    fn report_helpers() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 10);
        let report = WgaReport {
            alignments: vec![
                WgaAlignment {
                    alignment: Alignment::new(0, 0, c.clone(), 900),
                    strand: Strand::Forward,
                },
                WgaAlignment {
                    alignment: Alignment::new(50, 50, c, 900),
                    strand: Strand::Reverse,
                },
            ],
            ..WgaReport::default()
        };
        assert_eq!(report.forward_alignments().len(), 1);
        assert_eq!(report.total_matches(), 20);
    }

    #[test]
    fn timings_total_and_merge() {
        let mut t = StageTimings {
            seeding: Duration::from_secs(1),
            filtering: Duration::from_secs(2),
            extension: Duration::from_secs(3),
        };
        assert_eq!(t.total(), Duration::from_secs(6));
        t.merge(&t.clone());
        assert_eq!(t.total(), Duration::from_secs(12));
    }

    #[test]
    fn outcome_reflects_events() {
        let mut report = WgaReport::default();
        assert_eq!(report.outcome(), RunOutcome::Completed);
        report.events.push(RunEvent::BudgetExceeded {
            budget: BudgetKind::FilterTiles,
            stage: StageKind::Filtering,
            limit: 10,
            observed: 25,
        });
        match report.outcome() {
            RunOutcome::Degraded { events } => assert_eq!(events.len(), 1),
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn counters_merge() {
        let mut a = FunnelCounters {
            raw_seed_hits: 5,
            filter_cells: 400,
            anchors_passed: 3,
            anchors_absorbed: 1,
            alignments_kept: 2,
            faults_injected: 2,
            retries: 1,
            stalls_detected: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.raw_seed_hits, 10);
        assert_eq!(a.filter_cells, 800);
        assert_eq!(a.alignments_kept, 4);
        assert_eq!(a.faults_injected, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.stalls_detected, 2);
    }
}
