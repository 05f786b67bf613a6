//! Run reports: alignments, workload and funnel counters, events.

use align::Alignment;
use hwsim::Workload;

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

/// Which resource budget a [`RunEvent::BudgetExceeded`] refers to; each
/// truncates one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`crate::config::ResourceBudget::max_filter_tiles`] (per pair),
    /// which truncates filtering.
    FilterTiles,
    /// [`crate::config::ResourceBudget::max_extension_cells`] (per pair),
    /// which truncates extension.
    ExtensionCells,
}

/// One noteworthy event of a pipeline run: graceful degradation instead
/// of unbounded work. The stage an event occurred in follows from its
/// [`BudgetKind`]. A panic is not an event: it fails its pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEvent {
    /// A resource budget tripped; the stage truncated its work
    /// deterministically and the run continued.
    BudgetExceeded {
        /// Which budget tripped.
        budget: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// What the stage observed / would have used when it tripped.
        observed: u64,
    },
}

/// Per-chromosome-pair status of an assembly-scale run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pair ran to completion with no degradation.
    Completed,
    /// The pair produced results, but budgets tripped along the way.
    Degraded {
        /// What was truncated or dropped.
        events: Vec<RunEvent>,
    },
    /// The pair produced no results (a panic or fault in any of its
    /// stages); the rest of the run continued.
    Failed {
        /// The panic/error message.
        error: String,
    },
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
}

impl FunnelCounters {
    /// Merges another counter record.
    pub fn merge(&mut self, other: &FunnelCounters) {
        self.raw_seed_hits += other.raw_seed_hits;
        self.filter_cells += other.filter_cells;
        self.anchors_passed += other.anchors_passed;
        self.anchors_absorbed += other.anchors_absorbed;
        self.alignments_kept += other.alignments_kept;
    }
}

/// Complete output of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct WgaReport {
    /// Output alignments, best score first.
    pub alignments: Vec<WgaAlignment>,
    /// Hardware-relevant workload (feeds the `hwsim` models).
    pub workload: Workload,
    /// No value: a stage's time is its spans' `dur_us` (see
    /// [`crate::obs`]). Kept only for the `bench/` crate's `PairRecord`
    /// literal, which names it.
    #[doc(hidden)]
    pub timings: (),
    /// Stage funnel counters.
    pub counters: FunnelCounters,
    /// Degradation events (tripped budgets), in the order they
    /// occurred. Empty for a clean run.
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
    fn outcome_reflects_events() {
        let mut report = WgaReport::default();
        assert_eq!(report.outcome(), RunOutcome::Completed);
        report.events.push(RunEvent::BudgetExceeded {
            budget: BudgetKind::FilterTiles,
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
        };
        a.merge(&a.clone());
        assert_eq!(a.raw_seed_hits, 10);
        assert_eq!(a.filter_cells, 800);
        assert_eq!(a.alignments_kept, 4);
    }
}
