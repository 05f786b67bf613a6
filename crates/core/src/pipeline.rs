//! The seed–filter–extend pipeline (Fig. 4, Fig. 6) over one pair.
//!
//! [`run_pair`] runs all three stages over a target/query pair; it is
//! the one-thread schedule (a plain loop, the oracle every other
//! configuration is compared against) and, at more threads, the
//! barrier schedule: a strand's query ranges fan out, each seeded and
//! filtered by the worker that claimed it, and one thread extends once
//! they are all in. The
//! filtering and extension stages are swappable via [`crate::config`],
//! so the same driver is both Darwin-WGA (D-SOFT → BSW gapped filter →
//! GACT-X) and the LASTZ-like baseline (D-SOFT → ungapped filter →
//! Y-drop), matching the paper's design where only the middle stage
//! changes between the compared systems. [`WgaPipeline`] is `run_pair`
//! at one thread behind validated parameters.

use crate::config::WgaParams;
use crate::filter_engine::FilterContext;
use crate::obs::{strand_code, Obs, SpanName, STRAND_NA};
use crate::report::{Strand, WgaReport};
use crate::shard::{run_sharded, QueryRanges};
use crate::stages::{
    extend_anchors, filter_batch, fold_batches, seed_lane, seed_range, timed_seed_table,
};
use genome::Sequence;
use seed::dsoft::DsoftScratch;
use seed::SeedTable;
use std::sync::Arc;
use std::time::Instant;

/// Runs the full pipeline on one target/query pair against a pre-built
/// seed table of `target` (table construction amortises across many
/// query chromosomes), with seeding and filtering spread over `threads`
/// workers. The report is identical at any thread count, and
/// byte-identical whether `obs` is live or [`Obs::off`]: the recorder
/// only *watches* the run.
///
/// A strand goes through one query range at a time — seeded, filtered,
/// and only its survivors kept — so no strand's hit list ever exists;
/// each worker holds one range's hits, one D-SOFT scratch and one filter
/// engine (at one thread nothing is spawned, locked or shared: the same
/// ranges in a plain loop). The pair owns its handle on `table` and
/// gives it up after its last lookup — the last strand's last range —
/// so a caller that hands over the only handle (the target's last pair)
/// has the table freed before the extension allocates, not under it.
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
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, query.len());
        let tiles_used = report.workload.filter_tiles;
        let (mut lane, kept) =
            seed_lane(params, &table, query, strand, ranges, threads, tiles_used, obs);
        // One filter context per strand (the batch's flattened scoring),
        // shared read-only by every worker's engine.
        let ctx_start = Instant::now();
        let ctx = FilterContext::new(params, target, query);
        let ctx_time = ctx_start.elapsed();
        let scode = strand_code(strand);
        let worker = || (DsoftScratch::default(), ctx.engine());
        let filtered = run_sharded(ranges.count(), threads, worker, |(scratch, engine), idx| {
            let kept = kept.as_deref();
            let (cost, hits) = seed_range(params, &table, query, strand, ranges, idx, kept, scratch, obs);
            (cost, filter_batch(params, engine, target, query, &hits, pair_start, scode, idx, obs))
        });
        drop(table);
        let (costs, batches): (Vec<_>, Vec<_>) = filtered.into_iter().unzip();
        costs.into_iter().for_each(|cost| lane.add(cost));
        let anchors = fold_batches(params, lane, ctx_time, batches, pair_start, &mut report);
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
    /// recorder only *watches* the run. It gets spans and histograms: its
    /// funnel counters are folded from finished pair records
    /// ([`Obs::pair_done`]), which only the assembly drivers keep.
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
    fn seed_hit_budget_truncates_per_strand() {
        use crate::config::ResourceBudget;
        use crate::report::{BudgetKind, RunEvent};

        let pair = synthetic(0.1, 30_000, 2);
        let params = WgaParams {
            budget: ResourceBudget {
                max_seed_hits: Some(25),
                ..ResourceBudget::default()
            },
            ..WgaParams::darwin_wga()
        };
        let report = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
        assert!(report.workload.filter_tiles <= 25);
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
        Arc::new(SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences))
    }

    #[test]
    fn parallel_is_identical_to_serial_with_and_without_a_budget() {
        use crate::config::ResourceBudget;

        let pair = synthetic(0.2, 40_000, 17);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        for max_filter_tiles in [None, Some(30)] {
            let budget = ResourceBudget { max_filter_tiles, ..ResourceBudget::default() };
            let params = WgaParams {
                budget,
                ..WgaParams::darwin_wga()
            };
            let serial = WgaPipeline::new(params.clone()).run(t, q);
            let parallel = run_pair(&params, table_for(&params, t), t, q, 4, Obs::off());
            assert_eq!(serial.alignments, parallel.alignments);
            assert_eq!(serial.workload, parallel.workload);
            assert_eq!(serial.counters, parallel.counters);
            assert_eq!(serial.events, parallel.events);
            assert_eq!(!serial.events.is_empty(), max_filter_tiles.is_some());
        }
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
    /// elsewhere). The same pair at four threads fans out — over the
    /// same ranges, one `seed` and one `filter.batch` span each: the cuts
    /// follow `shard_bases`, not the thread count.
    #[test]
    fn one_thread_schedule_spawns_nothing_and_cuts_the_ranges_four_threads_cut() {
        use crate::obs::{thread_id, TraceRecorder, STRAND_FWD, STRAND_REV};

        let pair = synthetic(0.2, 20_000, 8);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let mut params = WgaParams::darwin_wga();
        params.both_strands = true;
        params.shard_bases = 500; // rounds up to four chunks
        let table = table_for(&params, t);
        let traced = |threads: usize| {
            let recorder = TraceRecorder::new();
            let report = run_pair(&params, Arc::clone(&table), t, q, threads, Obs::new(&recorder));
            let spans = recorder.spans();
            let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
            let ranges_of = |name: SpanName| {
                let mut ranges: Vec<(u8, u64)> =
                    spans.iter().filter(|s| s.name == name).map(|s| (s.strand, s.seq)).collect();
                ranges.sort_unstable();
                ranges
            };
            (report, tids, ranges_of(SpanName::Seed), ranges_of(SpanName::FilterBatch))
        };
        let (serial, tids, seeded, filtered) = traced(1);
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), [thread_id()]);
        let count = q.len().div_ceil(512) as u64;
        let expected: Vec<(u8, u64)> =
            [STRAND_FWD, STRAND_REV].into_iter().flat_map(|s| (0..count).map(move |i| (s, i))).collect();
        assert_eq!(seeded, expected);
        assert_eq!(filtered, expected);
        let (fanned, tids, seeded, filtered) = traced(4);
        assert!(tids.len() > 1, "four threads must actually fan out");
        assert_eq!((seeded, filtered), (expected.clone(), expected));
        assert_eq!(serial.alignments, fanned.alignments);
    }
}
