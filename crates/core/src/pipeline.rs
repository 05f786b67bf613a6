//! The seed–filter–extend pipeline (Fig. 4, Fig. 6) over one pair.
//!
//! [`run_pair`] runs all three stages over a target/query pair in a
//! plain loop on the calling thread: the one-thread schedule, and the
//! oracle the dataflow executor is compared against. The
//! filtering stage is swappable via [`crate::config`], so the same
//! driver is both Darwin-WGA (D-SOFT → BSW gapped filter → GACT-X) and
//! the LASTZ-like baseline (D-SOFT → ungapped filter → GACT-X),
//! matching the paper's design where only the middle stage changes
//! between the compared systems. [`WgaPipeline`] is `run_pair`
//! behind validated parameters.

use crate::config::WgaParams;
use crate::filter_engine::FilterContext;
use crate::obs::{strand_code, Obs};
use crate::report::{Strand, WgaReport};
use crate::shard::QueryRanges;
use crate::stages::{
    extend_anchors, filter_batch, fold_batches, seed_lane, seed_range, seed_table,
};
use genome::Sequence;
use seed::dsoft::DsoftScratch;
use seed::SeedTable;
use std::sync::Arc;

/// Runs the full pipeline on one target/query pair against a pre-built
/// seed table of `target` (table construction amortises across many
/// query chromosomes). The report is byte-identical whether `obs` is
/// live or [`Obs::off`]: the recorder only *watches* the run.
///
/// A strand goes through one query range at a time — seeded, filtered,
/// and only its survivors kept — with one D-SOFT scratch and one filter
/// engine, so no strand's hit list ever exists and nothing is spawned,
/// locked or shared. The pair owns its handle on `table` and gives it up
/// after its last lookup — the last strand's last range — so a caller
/// that hands over the only handle (the target's last pair) has the
/// table freed before the extension allocates, not under it.
///
/// Parameters are the caller's to validate ([`WgaParams::validate`]).
pub fn run_pair(
    params: &WgaParams,
    table: Arc<SeedTable>,
    target: &Sequence,
    query: &Sequence,
    obs: Obs<'_>,
) -> WgaReport {
    let mut report = WgaReport::default();
    // A budgeted reverse strand is charged for the tiles the forward
    // strand kept, filtered or not, on every schedule.
    let mut tiles_kept = 0u64;
    let mut run_strand = |table: Arc<SeedTable>, query: &Sequence, strand: Strand| {
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, query.len());
        let (lane, kept) = seed_lane(params, &table, query, strand, ranges, tiles_kept, obs);
        tiles_kept += kept.as_ref().map_or(0, |kept| kept.len() as u64);
        // One filter context per strand (the batch's flattened scoring).
        let ctx = FilterContext::new(params, target, query);
        let scode = strand_code(strand);
        let kept = kept.as_deref();
        let (mut scratch, mut engine) = (DsoftScratch::default(), ctx.engine());
        let mut batches = Vec::with_capacity(ranges.count());
        for idx in 0..ranges.count() {
            let (cost, hits) = seed_range(
                params,
                &table,
                query,
                strand,
                ranges,
                idx,
                kept,
                &mut scratch,
                obs,
            );
            batches.push(filter_batch(
                params,
                &mut engine,
                target,
                query,
                &hits,
                cost,
                scode,
                idx,
                obs,
            ));
        }
        drop((scratch, engine, table));
        let anchors = fold_batches(lane, batches, &mut report);
        extend_anchors(params, target, query, strand, anchors, &mut report, obs);
    };
    if params.both_strands {
        run_strand(Arc::clone(&table), query, Strand::Forward);
        run_strand(table, &query.reverse_complement(), Strand::Reverse);
    } else {
        run_strand(table, query, Strand::Forward);
    }
    report
        .alignments
        .sort_by_key(|a| std::cmp::Reverse(a.alignment.score));
    report
}

/// A configured whole-genome-alignment pipeline.
///
/// # Examples
///
/// ```
/// use genome::evolve::{EvolutionParams, SyntheticPair};
/// use rand::SeedableRng;
/// use wga_core::{config::WgaParams, pipeline::WgaPipeline};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let pair = SyntheticPair::generate(20_000, &EvolutionParams::at_distance(0.15), &mut rng);
///
/// let pipeline = WgaPipeline::new(WgaParams::darwin_wga());
/// let report = pipeline.run(&pair.target.sequence, &pair.query.sequence);
/// assert!(report.total_matches() > 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct WgaPipeline {
    params: WgaParams,
}

impl WgaPipeline {
    /// Creates a pipeline with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (see
    /// [`WgaParams::validate`], which returns a typed error instead).
    pub fn new(params: WgaParams) -> WgaPipeline {
        let checked = params.validate();
        assert!(
            checked.is_ok(),
            "{}",
            checked.err().map(|e| e.to_string()).unwrap_or_default()
        );
        WgaPipeline { params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &WgaParams {
        &self.params
    }

    /// Runs the full pipeline on one target/query pair.
    pub fn run(&self, target: &Sequence, query: &Sequence) -> WgaReport {
        self.run_observed(target, query, Obs::off())
    }

    /// [`WgaPipeline::run`] with an observation handle. The report is
    /// byte-identical whether `obs` is live or [`Obs::off`]; the
    /// recorder only *watches* the run. It gets spans: its funnel
    /// counters are folded from finished pair records
    /// ([`Obs::pair_done`]), which only the assembly drivers keep.
    pub fn run_observed(&self, target: &Sequence, query: &Sequence, obs: Obs<'_>) -> WgaReport {
        let table = seed_table(&self.params, target, 0, obs);
        run_pair(&self.params, Arc::new(table), target, query, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WgaParams;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic(distance: f64, len: usize, seed: u64) -> SyntheticPair {
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
    }

    #[test]
    fn darwin_pipeline_aligns_close_pair() {
        let pair = synthetic(0.1, 30_000, 1);
        let report = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        // Ground truth has ~30K orthologous pairs at ~95% identity; the
        // pipeline must recover the bulk of them.
        let truth: usize = pair.orthologous_runs().iter().map(|run| run.2).sum();
        let truth = truth as f64;
        let found = report.total_matches() as f64;
        assert!(found > 0.6 * truth, "found {found} of {truth}");
        // Funnel consistency.
        assert!(report.workload.filter_tiles > 0);
        assert!(report.counters.anchors_passed <= report.workload.filter_tiles);
        assert!(report.counters.alignments_kept <= report.counters.anchors_passed);
    }

    #[test]
    fn alignments_validate_against_sequences() {
        let pair = synthetic(0.25, 20_000, 2);
        let report = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        assert!(!report.alignments.is_empty());
        for wa in &report.alignments {
            wa.alignment
                .validate(&pair.target.sequence, &pair.query.sequence)
                .unwrap();
            assert!(wa.alignment.score >= 4000);
        }
    }

    #[test]
    fn darwin_beats_lastz_baseline_on_distant_pair() {
        // The paper's headline: gapped filtering recovers more matched
        // bases, increasingly so with phylogenetic distance.
        let pair = synthetic(0.55, 40_000, 3);
        let darwin = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        let lastz = WgaPipeline::new(WgaParams::lastz_baseline())
            .run(&pair.target.sequence, &pair.query.sequence);
        assert!(
            darwin.total_matches() > lastz.total_matches(),
            "darwin {} vs lastz {}",
            darwin.total_matches(),
            lastz.total_matches()
        );
    }

    #[test]
    fn unrelated_sequences_produce_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = genome::markov::MarkovModel::genome_like().generate(20_000, &mut rng);
        let b = genome::markov::MarkovModel::genome_like().generate(20_000, &mut rng);
        let report = WgaPipeline::new(WgaParams::darwin_wga()).run(&a, &b);
        assert_eq!(report.alignments.len(), 0);
    }

    #[test]
    fn reverse_strand_is_found_when_enabled() {
        let pair = synthetic(0.1, 15_000, 5);
        let rc_query = pair.query.sequence.reverse_complement();
        let mut params = WgaParams::darwin_wga();
        params.both_strands = true;
        let report = WgaPipeline::new(params).run(&pair.target.sequence, &rc_query);
        let reverse_matches: u64 = report
            .alignments
            .iter()
            .filter(|a| a.strand == Strand::Reverse)
            .map(|a| a.alignment.matches())
            .sum();
        assert!(reverse_matches > 8_000, "{reverse_matches}");

        // Forward-only run on the reverse-complemented query finds ~nothing.
        let fwd_only =
            WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &rc_query);
        assert!(fwd_only.total_matches() < reverse_matches / 4);
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn new_panics_on_degenerate_config() {
        let mut params = WgaParams::darwin_wga();
        params.max_seed_occurrences = 0;
        let _ = WgaPipeline::new(params);
    }

    #[test]
    fn filter_tile_budget_bounds_work_and_degrades() {
        use crate::config::ResourceBudget;
        use crate::report::{BudgetKind, RunEvent};

        let pair = synthetic(0.1, 30_000, 1);
        let unbounded = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        assert!(unbounded.events.is_empty());
        assert!(unbounded.workload.filter_tiles > 40);

        let cap = 40u64;
        let params = WgaParams {
            budget: ResourceBudget {
                max_filter_tiles: Some(cap),
                ..ResourceBudget::default()
            },
            ..WgaParams::darwin_wga()
        };
        let capped = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
        assert_eq!(capped.workload.filter_tiles, cap);
        assert!(!capped.events.is_empty());
        assert!(capped.events.iter().any(|e| matches!(
            e,
            RunEvent::BudgetExceeded {
                budget: BudgetKind::FilterTiles,
                ..
            }
        )));
        // Deterministic: the same capped run twice is identical.
        let params2 = WgaParams {
            budget: ResourceBudget {
                max_filter_tiles: Some(cap),
                ..ResourceBudget::default()
            },
            ..WgaParams::darwin_wga()
        };
        let again = WgaPipeline::new(params2).run(&pair.target.sequence, &pair.query.sequence);
        assert_eq!(capped.total_matches(), again.total_matches());
        assert_eq!(capped.events, again.events);
    }

    #[test]
    fn extension_cell_budget_bounds_cells() {
        use crate::config::ResourceBudget;
        use crate::report::{BudgetKind, RunEvent};

        // A moderately distant pair: turnover fragments the homology into
        // many blocks, so extension work spreads over many anchors and a
        // mid-run budget stop leaves real work undone.
        let pair = synthetic(0.3, 40_000, 3);
        let unbounded = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        let limit = unbounded.workload.extension_cells / 10;
        assert!(limit > 0);
        let params = WgaParams {
            budget: ResourceBudget {
                max_extension_cells: Some(limit),
                ..ResourceBudget::default()
            },
            ..WgaParams::darwin_wga()
        };
        let capped = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
        assert!(capped.workload.extension_cells < unbounded.workload.extension_cells);
        assert!(capped.events.iter().any(|e| matches!(
            e,
            RunEvent::BudgetExceeded {
                budget: BudgetKind::ExtensionCells,
                ..
            }
        )));
    }

    #[test]
    fn absorption_limits_duplicate_alignments() {
        let pair = synthetic(0.1, 20_000, 6);
        let report = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);
        // With one long homologous region, most anchors are absorbed into
        // the first few alignments instead of re-extending.
        assert!(report.counters.anchors_absorbed > 0);
        assert!(report.counters.alignments_kept < report.counters.anchors_passed / 2);
    }

    fn table_for(params: &WgaParams, target: &Sequence) -> Arc<SeedTable> {
        Arc::new(SeedTable::build(
            target,
            &params.seed_pattern,
            params.max_seed_occurrences,
        ))
    }

    /// The pair runs in a plain loop: every span of the pair is recorded
    /// by the calling thread (nothing was spawned to record one
    /// elsewhere), over one `seed` and one `filter.batch` span a range of
    /// each strand: the cuts follow `shard_bases`.
    #[test]
    fn run_pair_spawns_nothing_and_cuts_the_ranges_shard_bases_cut() {
        use crate::obs::{thread_id, SpanName, TraceRecorder, STRAND_FWD, STRAND_REV};

        let pair = synthetic(0.2, 20_000, 8);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let mut params = WgaParams::darwin_wga();
        params.both_strands = true;
        params.shard_bases = 500; // rounds up to four chunks
        let recorder = TraceRecorder::new();
        let report = run_pair(&params, table_for(&params, t), t, q, Obs::new(&recorder));
        assert!(!report.alignments.is_empty());
        let spans = recorder.spans();
        let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), [thread_id()]);
        let ranges_of = |name: SpanName| {
            let mut ranges: Vec<(u8, u64)> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.strand, s.seq))
                .collect();
            ranges.sort_unstable();
            ranges
        };
        let count = q.len().div_ceil(512) as u64;
        let expected: Vec<(u8, u64)> = [STRAND_FWD, STRAND_REV]
            .into_iter()
            .flat_map(|s| (0..count).map(move |i| (s, i)))
            .collect();
        assert_eq!(ranges_of(SpanName::Seed), expected);
        assert_eq!(ranges_of(SpanName::FilterBatch), expected);
    }
}
