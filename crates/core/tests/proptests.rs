//! Property-based tests of pipeline-level invariants.

use genome::assembly::Assembly;
use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::Sequence;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seed::{dsoft_seeds, SeedTable};
use wga_core::absorb::{merge_into_kept, AbsorptionGrid};
use wga_core::budget::clamp_hit_count;
use wga_core::config::{ResourceBudget, WgaParams};
use wga_core::filter_engine::run_filter;
use wga_core::genome_pipeline::{align_assemblies_observed, AlignOptions, AssemblyReport};
use wga_core::journal::PairRecord;
use wga_core::obs::Obs;
use wga_core::pipeline::WgaPipeline;
use wga_core::report::{RunOutcome, Strand, WgaAlignment};
use wga_core::stages::run_extension;

fn synthetic(distance: f64, len: usize, seed: u64) -> SyntheticPair {
    let mut rng = StdRng::seed_from_u64(seed);
    SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
}

/// The pipeline with every strand's hit list in hand: one D-SOFT walk of
/// the whole strand, the budget clamp on that list, the scalar filter hit
/// by hit, the commit loop. A reference for the tests only — what the
/// schedules, which never hold such a list, must reproduce byte for
/// byte. Also returns each strand's hit count.
fn whole_list_oracle(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
) -> (AssemblyReport, Vec<u64>) {
    let table = SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences);
    let mut report = AssemblyReport::default();
    let (mut events, mut hits_per_strand, mut alignments) = (Vec::new(), Vec::new(), Vec::new());
    let mut strands = vec![(Strand::Forward, query.clone())];
    if params.both_strands {
        strands.push((Strand::Reverse, query.reverse_complement()));
    }
    for (strand, query) in strands {
        let seeding = dsoft_seeds(&table, &query, &params.dsoft);
        report.workload.seeds += seeding.seeds_queried;
        hits_per_strand.push(seeding.hits.len() as u64);
        let clamp = clamp_hit_count(params, seeding.hits.len(), report.workload.filter_tiles);
        events.extend(clamp.event);
        let mut anchors = Vec::new();
        for &hit in &seeding.hits[..clamp.take] {
            report.workload.filter_tiles += 1;
            anchors.extend(run_filter(params, target, &query, hit).anchor);
        }
        anchors.sort_by_key(|a| std::cmp::Reverse(a.filter_score));
        let mut grid = AbsorptionGrid::new();
        let mut kept = Vec::new();
        for anchor in anchors {
            if grid.covers(anchor.target_pos, anchor.query_pos) {
                continue;
            }
            let Some(ext) = run_extension(params, target, &query, anchor) else {
                continue;
            };
            report.workload.extension_tiles += ext.stats.tiles;
            report.workload.extension_cells += ext.stats.cells;
            report.workload.extension_rows += ext.stats.rows;
            if ext.alignment.score >= params.extension_threshold {
                grid.insert_alignment(&ext.alignment);
                merge_into_kept(&mut kept, ext.alignment);
            }
        }
        alignments.extend(
            kept.into_iter()
                .map(|alignment| WgaAlignment { alignment, strand }),
        );
    }
    alignments.sort_by_key(|a| std::cmp::Reverse(a.alignment.score));
    let outcome = if events.is_empty() {
        RunOutcome::Completed
    } else {
        RunOutcome::Degraded { events }
    };
    report.pairs.push(PairRecord {
        target_chrom: "chrT".into(),
        query_chrom: "chrQ".into(),
        outcome,
        workload: report.workload,
        timings: report.timings,
        counters: report.counters,
        alignments,
    });
    (report, hits_per_strand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_hold_on_random_pairs(
        seed in 0u64..10_000,
        distance in 0.05f64..0.9,
    ) {
        let pair = synthetic(distance, 8_000, seed);
        let report = WgaPipeline::new(WgaParams::darwin_wga())
            .run(&pair.target.sequence, &pair.query.sequence);

        // Funnel monotonicity.
        prop_assert!(report.counters.anchors_passed <= report.workload.filter_tiles);
        prop_assert!(
            report.counters.alignments_kept + report.counters.anchors_absorbed
                <= report.counters.anchors_passed
        );
        prop_assert_eq!(report.counters.alignments_kept, report.alignments.len() as u64);

        for wa in &report.alignments {
            // Every alignment is consistent and above the threshold.
            prop_assert!(wa.alignment.validate(&pair.target.sequence, &pair.query.sequence).is_ok());
            prop_assert!(wa.alignment.score >= 4000);
            // Scores are exact.
            prop_assert_eq!(
                wa.alignment.score,
                wa.alignment.rescore(
                    &pair.target.sequence,
                    &pair.query.sequence,
                    &genome::SubstitutionMatrix::darwin_wga(),
                    &genome::GapPenalties::darwin_wga(),
                )
            );
        }

        // Sorted by descending score.
        for w in report.alignments.windows(2) {
            prop_assert!(w[0].alignment.score >= w[1].alignment.score);
        }
    }

    #[test]
    fn baseline_never_finds_more_than_iso_threshold_darwin(
        seed in 0u64..10_000,
    ) {
        // With identical thresholds (He = Hf = 3000 for both), gapped
        // filtering passes a superset of what ungapped filtering passes,
        // so Darwin's anchors must be at least the baseline's.
        let pair = synthetic(0.5, 8_000, seed);
        let darwin = WgaPipeline::new(
            WgaParams::darwin_wga().with_filter_threshold(3000),
        )
        .run(&pair.target.sequence, &pair.query.sequence);
        let lastz = WgaPipeline::new(WgaParams::lastz_baseline())
            .run(&pair.target.sequence, &pair.query.sequence);
        prop_assert!(
            darwin.counters.anchors_passed >= lastz.counters.anchors_passed,
            "darwin {} < lastz {}",
            darwin.counters.anchors_passed,
            lastz.counters.anchors_passed
        );
    }
}

proptest! {
    // Eighteen runs and three oracles a case.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed → filter streaming is invisible: whatever the range size cut
    /// and whichever schedule ran the ranges, budgeted or not, the run is
    /// the whole-list pipeline's, byte for byte.
    #[test]
    fn streamed_ranges_match_the_whole_list_oracle_on_every_schedule(
        seed in 0u64..10_000,
        distance in 0.1f64..0.6,
    ) {
        // Half the query inverted, so both strands carry real homology,
        // and a tandem repeat in both sequences: its copies filter to
        // equal scores, so the order anchors reach the extension's stable
        // sort in — hit order, whatever cut the ranges — decides which
        // of them is extended and which absorbed.
        let pair = synthetic(distance, 5_000, seed);
        let tandem = || pair.target.sequence.subsequence(100..400).iter().collect::<Vec<_>>().repeat(4);
        let mut target = pair.target.sequence.clone();
        target.extend(tandem());
        let forward = &pair.query.sequence;
        let half = forward.len() / 2;
        let mut query = forward.subsequence(0..half);
        query.extend(tandem());
        query.extend(forward.subsequence(half..forward.len()).reverse_complement().iter());
        let target = &target;
        let mut base = WgaParams::darwin_wga();
        base.both_strands = true;
        let (unbudgeted, hits) = whole_list_oracle(&base, target, &query);
        prop_assert!(hits.iter().all(|&n| n >= 2), "{:?} hits a strand", hits);

        let (mut t, mut q) = (Assembly::new("t"), Assembly::new("q"));
        t.push("chrT", target.clone());
        q.push("chrQ", query.clone());
        let budgets = [
            ResourceBudget::default(),
            // The forward strand trips it.
            ResourceBudget { max_filter_tiles: Some(hits[0] / 2), ..ResourceBudget::default() },
            // The forward strand fits; the reverse strand trips it.
            ResourceBudget { max_filter_tiles: Some(hits[0] + hits[1] / 2), ..ResourceBudget::default() },
        ];
        for (which, budget) in budgets.into_iter().enumerate() {
            let params = WgaParams { budget, ..base.clone() };
            let expected = match which {
                0 => unbudgeted.canonical_text(),
                _ => whole_list_oracle(&params, target, &query).0.canonical_text(),
            };
            prop_assert_eq!(expected.contains("\tdegraded("), which > 0, "budget {}", which);
            // One chunk a range, the default, and one range for the strand.
            for shard_bases in [1, base.shard_bases, usize::MAX] {
                let params = WgaParams { shard_bases, ..params.clone() };
                for threads in [1, 2] {
                    let options = AlignOptions { threads, ..AlignOptions::default() };
                    let run = align_assemblies_observed(&params, &t, &q, &options, Obs::off()).expect("run succeeds");
                    prop_assert_eq!(
                        run.canonical_text(), expected.clone(),
                        "budget {} shard_bases {} threads {}", which, shard_bases, threads
                    );
                }
            }
        }
    }
}
