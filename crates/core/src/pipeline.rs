//! The seed–filter–extend pipeline (Fig. 4, Fig. 6) over one pair.
//!
//! [`run_pair`] runs all three stages over a target/query pair; it is
//! the one-thread schedule (a plain loop, the oracle every other
//! configuration is compared against) and, at more threads, the
//! barrier schedule: seeding and the filter batches fan out, each stage
//! runs to completion before the next, one thread extends. The
//! filtering and extension stages are swappable via [`crate::config`],
//! so the same driver is both Darwin-WGA (D-SOFT → BSW gapped filter →
//! GACT-X) and the LASTZ-like baseline (D-SOFT → ungapped filter →
//! Y-drop), matching the paper's design where only the middle stage
//! changes between the compared systems. [`WgaPipeline`] is `run_pair`
//! at one thread behind validated parameters.

use crate::config::WgaParams;
use crate::error::WgaResult;
use crate::filter_engine::FilterContext;
use crate::obs::{strand_code, Obs, SpanName, STRAND_NA};
use crate::report::{Strand, WgaReport};
use crate::shard::run_sharded;
use crate::stages::{extend_anchors, filter_batch, fold_batches, seed_lane, timed_seed_table};
use genome::Sequence;
use seed::{SeedHit, SeedTable};
use std::sync::Arc;
use std::time::Instant;

/// Runs the full pipeline on one target/query pair against a pre-built
/// seed table of `target` (table construction amortises across many
/// query chromosomes), with seeding and filtering spread over `threads`
/// workers. The report is identical at any thread count, and
/// byte-identical whether `obs` is live or [`Obs::off`]: the recorder
/// only *watches* the run.
///
/// The pair owns its handle on `table` and gives it up after its last
/// lookup — the last strand's seeding — so a caller that hands over the
/// only handle (the target's last pair) has the table freed before the
/// filter and the extension allocate, not under them.
///
/// At one thread nothing is spawned, locked or shared, and each strand
/// is one filter batch.
///
/// # Panics
///
/// Panics if `threads == 0`; parameters are the caller's to validate
/// ([`WgaParams::validate`]).
pub fn run_pair(
    params: &WgaParams,
    table: Arc<SeedTable>,
    target: &Sequence,
    query: &Sequence,
    threads: usize,
    obs: Obs<'_>,
) -> WgaReport {
    assert!(threads > 0, "need at least one thread");
    let pair_start = Instant::now();
    let mut report = WgaReport::default();
    let mut run_strand = |table: Arc<SeedTable>, query: &Sequence, strand: Strand| {
        let tiles_used = report.workload.filter_tiles;
        let (hits, lane) = seed_lane(params, &table, query, strand, threads, tiles_used, obs);
        drop(table);
        // One filter context per strand (the fast engines' flattened
        // scoring), shared read-only by every batch.
        let ctx_start = Instant::now();
        let ctx = FilterContext::new(params, target, query);
        let ctx_time = ctx_start.elapsed();
        // One thread: the whole strand is one batch (an empty one if
        // nothing seeded). More: ~4 self-scheduled batches per worker,
        // at most 64 hits each, so the worker that drew the expensive
        // tiles does not straggle the pool; batch boundaries stay
        // deterministic, only the batch→worker mapping varies.
        let batches: Vec<&[SeedHit]> = if threads == 1 {
            vec![&hits[..]]
        } else {
            let cut = hits.len().div_ceil(threads * 4).clamp(1, 64);
            hits.chunks(cut).collect()
        };
        let scode = strand_code(strand);
        let filtered = run_sharded(batches.len(), threads, |idx| {
            filter_batch(params, &ctx, target, query, batches[idx], pair_start, scode, idx, obs)
        });
        let anchors = fold_batches(params, lane, ctx_time, filtered, pair_start, &mut report);
        // Extension needs the anchors only; the strand's hit list would
        // otherwise sit under the run's memory high-water.
        drop(batches);
        drop((hits, ctx));
        extend_anchors(params, target, query, strand, anchors, pair_start, &mut report, obs);
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
    /// [`WgaParams::validate`]); use [`WgaPipeline::try_new`] for a typed
    /// error instead.
    pub fn new(params: WgaParams) -> WgaPipeline {
        let checked = params.validate();
        assert!(
            checked.is_ok(),
            "{}",
            checked.err().map(|e| e.to_string()).unwrap_or_default()
        );
        WgaPipeline { params }
    }

    /// Creates a pipeline, rejecting degenerate parameters with a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::WgaError::Config`] when
    /// [`WgaParams::validate`] rejects the parameters.
    pub fn try_new(params: WgaParams) -> WgaResult<WgaPipeline> {
        params.validate()?;
        Ok(WgaPipeline { params })
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
    /// recorder only *watches* the run.
    pub fn run_observed(&self, target: &Sequence, query: &Sequence, obs: Obs<'_>) -> WgaReport {
        let mut buf = obs.buffer();
        let table_timer = buf.start();
        let (table, build_time) = timed_seed_table(&self.params, target);
        buf.finish(table_timer, SpanName::SeedTable, STRAND_NA, 0, 1, target.len() as u64);
        buf.flush();
        let mut report = run_pair(&self.params, Arc::new(table), target, query, 1, obs);
        report.timings.seeding += build_time;
        report
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
        let truth = pair.orthologous_pairs().len() as f64;
        let found = report.total_matches() as f64;
        assert!(found > 0.6 * truth, "found {found} of {truth}");
        // Funnel consistency.
        assert!(report.counters.hits_filtered > 0);
        assert!(report.counters.anchors_passed <= report.counters.hits_filtered);
        assert!(report.counters.alignments_kept <= report.counters.anchors_passed);
        assert_eq!(report.workload.filter_tiles, report.counters.hits_filtered);
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
        let report =
            WgaPipeline::new(params).run(&pair.target.sequence, &rc_query);
        let reverse_matches: u64 = report
            .alignments
            .iter()
            .filter(|a| a.strand == Strand::Reverse)
            .map(|a| a.alignment.matches())
            .sum();
        assert!(reverse_matches > 8_000, "{reverse_matches}");

        // Forward-only run on the reverse-complemented query finds ~nothing.
        let fwd_only = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &rc_query);
        assert!(fwd_only.total_matches() < reverse_matches / 4);
    }

    #[test]
    fn try_new_rejects_degenerate_config() {
        let mut params = WgaParams::darwin_wga();
        params.extension_threshold = -5;
        assert!(WgaPipeline::try_new(params).is_err());
        assert!(WgaPipeline::try_new(WgaParams::darwin_wga()).is_ok());
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
        assert!(!unbounded.is_degraded());
        assert!(unbounded.workload.filter_tiles > 40);

        let cap = 40u64;
        let params = WgaParams::darwin_wga().with_budget(ResourceBudget {
            max_filter_tiles: Some(cap),
            ..ResourceBudget::default()
        });
        let capped = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
        assert_eq!(capped.workload.filter_tiles, cap);
        assert!(capped.is_degraded());
        assert!(capped.events.iter().any(|e| matches!(
            e,
            RunEvent::BudgetExceeded {
                budget: BudgetKind::FilterTiles,
                ..
            }
        )));
        // Deterministic: the same capped run twice is identical.
        let params2 = WgaParams::darwin_wga().with_budget(ResourceBudget {
            max_filter_tiles: Some(cap),
            ..ResourceBudget::default()
        });
        let again = WgaPipeline::new(params2).run(&pair.target.sequence, &pair.query.sequence);
        assert_eq!(capped.total_matches(), again.total_matches());
        assert_eq!(capped.events, again.events);
    }

    #[test]
    fn seed_hit_budget_truncates_per_strand() {
        use crate::config::ResourceBudget;
        use crate::report::{BudgetKind, RunEvent};

        let pair = synthetic(0.1, 30_000, 2);
        let params = WgaParams::darwin_wga().with_budget(ResourceBudget {
            max_seed_hits: Some(25),
            ..ResourceBudget::default()
        });
        let report = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
        assert!(report.counters.hits_filtered <= 25);
        assert!(report.events.iter().any(|e| matches!(
            e,
            RunEvent::BudgetExceeded {
                budget: BudgetKind::SeedHits,
                ..
            }
        )));
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
        let params = WgaParams::darwin_wga().with_budget(ResourceBudget {
            max_extension_cells: Some(limit),
            ..ResourceBudget::default()
        });
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
        Arc::new(SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences))
    }

    #[test]
    fn parallel_is_identical_to_serial() {
        let pair = synthetic(0.2, 40_000, 17);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let params = WgaParams::darwin_wga();
        let serial = WgaPipeline::new(params.clone()).run(t, q);
        let parallel = run_pair(&params, table_for(&params, t), t, q, 4, Obs::off());
        assert_eq!(serial.alignments, parallel.alignments);
        assert_eq!(serial.workload, parallel.workload);
        assert_eq!(serial.counters, parallel.counters);
        assert!(parallel.events.is_empty());
    }

    #[test]
    fn budget_capped_parallel_matches_serial() {
        use crate::config::ResourceBudget;

        let pair = synthetic(0.15, 30_000, 29);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let params = WgaParams::darwin_wga().with_budget(ResourceBudget {
            max_filter_tiles: Some(30),
            ..ResourceBudget::default()
        });
        let serial = WgaPipeline::new(params.clone()).run(t, q);
        let parallel = run_pair(&params, table_for(&params, t), t, q, 3, Obs::off());
        assert_eq!(serial.total_matches(), parallel.total_matches());
        assert_eq!(serial.workload.filter_tiles, parallel.workload.filter_tiles);
        assert_eq!(serial.events, parallel.events);
        assert!(serial.is_degraded());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let s: Sequence = "ACGT".parse().unwrap();
        let params = WgaParams::darwin_wga();
        run_pair(&params, table_for(&params, &s), &s, &s, 0, Obs::off());
    }

    /// The one-thread schedule is a plain loop: every span of the pair is
    /// recorded by the calling thread (nothing was spawned to record one
    /// elsewhere), and each strand is exactly one `filter.batch`. The
    /// same pair at four threads fans both out.
    #[test]
    fn one_thread_schedule_spawns_nothing_and_cuts_one_batch_per_strand() {
        use crate::obs::{thread_id, TraceRecorder};

        let pair = synthetic(0.2, 20_000, 8);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let mut params = WgaParams::darwin_wga();
        params.both_strands = true;
        params.shard_bases = 512;
        let table = table_for(&params, t);
        let filter_batches = |threads: usize| {
            let recorder = TraceRecorder::new();
            let report = run_pair(&params, Arc::clone(&table), t, q, threads, Obs::new(&recorder));
            let spans = recorder.spans();
            let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
            let batches: Vec<(u8, u64)> = spans
                .iter()
                .filter(|s| s.name == SpanName::FilterBatch)
                .map(|s| (s.strand, s.seq))
                .collect();
            (report, tids, batches)
        };
        let (serial, tids, batches) = filter_batches(1);
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), [thread_id()]);
        assert_eq!(batches, [(crate::obs::STRAND_FWD, 0), (crate::obs::STRAND_REV, 0)]);
        let (fanned, tids, batches) = filter_batches(4);
        assert!(tids.len() > 1, "four threads must actually fan out");
        assert!(batches.len() > 2);
        assert_eq!(serial.alignments, fanned.alignments);
    }
}
