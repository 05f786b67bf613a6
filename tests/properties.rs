//! Cross-kernel property tests: BSW symmetry, BSW vs full Smith-Waterman,
//! CIGAR length round-trips, and intra-pair shard algebra.
//!
//! These pin the algebraic invariants the pipeline silently relies on:
//! the banded filter is symmetric under query/reference swap (the
//! Darwin-WGA matrix is symmetric and gap penalties are strand-agnostic),
//! a banded maximum can never beat the unbanded optimum, every CIGAR
//! a kernel emits consumes exactly the aligned spans it claims, D-SOFT
//! binning over chunk-aligned shards merges to exactly the whole-query
//! result for *any* cut set, and shard scheduling never changes what the
//! pipeline outputs.

use darwin_wga::align::banded::banded_smith_waterman;
use darwin_wga::align::bsw_fast::{BswBatch, BswScratch};
use darwin_wga::align::cigar::{AlignOp, Cigar};
use darwin_wga::align::nw::needleman_wunsch;
use darwin_wga::align::sw::smith_waterman;
use darwin_wga::align::xdrop::xdrop_tile;
use darwin_wga::core::config::WgaParams;
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::obs::Obs;
use darwin_wga::core::pipeline::WgaPipeline;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use darwin_wga::seed::dsoft::{
    dsoft_seeds, dsoft_seeds_range, merge_dsoft_results, DsoftParams, DsoftResult,
};
use darwin_wga::seed::{SeedPattern, SeedTable};
use proptest::prelude::*;

fn dna_strategy(min: usize, max: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u8..4, min..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A base sequence plus a mutated copy (substitutions and indels).
fn related_pair() -> impl Strategy<Value = (Sequence, Sequence)> {
    (dna_strategy(10, 240), any::<u64>()).prop_map(|(s, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Sequence::new();
        for b in s.iter() {
            match rng.gen_range(0..16) {
                0 => {}
                1 => {
                    q.push(Base::from_code(rng.gen_range(0..4)));
                    q.push(b);
                }
                2 => q.push(Base::from_code(rng.gen_range(0..4))),
                _ => q.push(b),
            }
        }
        (s, q)
    })
}

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bsw_is_symmetric_under_sequence_swap((t, q) in related_pair(), band in 1usize..80) {
        // The Table IIa matrix is symmetric and gap penalties apply
        // identically to either sequence, and the band |i-j| <= B is a
        // symmetric region — so swapping target and query transposes the
        // DP matrix without changing its values: the maximum score and
        // the number of banded cells are invariant. (The argmax *cell*
        // may differ under ties: row-major order is not transpose-
        // invariant.)
        let (w, g) = scoring();
        let fwd = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        let rev = banded_smith_waterman(&q.to_bases(), &t.to_bases(), &w, &g, band);
        prop_assert_eq!(fwd.max_score, rev.max_score);
        prop_assert_eq!(fwd.cells, rev.cells);
        // The swapped argmax must attain the same maximum in the
        // transposed matrix; spot-check via the wavefront engine too.
        let (tb, qb) = (t.to_bases(), q.to_bases());
        let wf_rev = BswBatch::new(&w, &g, band).run_tile(&qb, &tb, &mut BswScratch::default());
        prop_assert_eq!(rev, wf_rev);
    }

    #[test]
    fn bsw_never_exceeds_full_smith_waterman((t, q) in related_pair(), band in 1usize..64) {
        // Banding only removes paths, so the banded maximum is a lower
        // bound on the full Gotoh local optimum — for both engines.
        let (w, g) = scoring();
        let full = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        let banded = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        prop_assert!(banded.max_score <= full.best_score,
            "banded {} > full {}", banded.max_score, full.best_score);
        let (tb, qb) = (t.to_bases(), q.to_bases());
        let wf = BswBatch::new(&w, &g, band).run_tile(&tb, &qb, &mut BswScratch::default());
        prop_assert!(wf.max_score <= full.best_score);
        prop_assert_eq!(wf, banded);
    }

    #[test]
    fn sw_cigar_consumes_exactly_the_aligned_spans((t, q) in related_pair()) {
        let (w, g) = scoring();
        if let Some(a) = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g).alignment {
            prop_assert_eq!(a.cigar.target_len(), a.target_span());
            prop_assert_eq!(a.cigar.query_len(), a.query_span());
            prop_assert!(a.validate(&t, &q).is_ok());
        }
    }

    #[test]
    fn nw_cigar_consumes_both_sequences_completely((t, q) in related_pair()) {
        let (w, g) = scoring();
        let r = needleman_wunsch(&t.to_bases(), &q.to_bases(), &w, &g);
        prop_assert_eq!(r.cigar.target_len(), t.len());
        prop_assert_eq!(r.cigar.query_len(), q.len());
    }

    #[test]
    fn xdrop_cigar_consumes_exactly_the_reported_spans((t, q) in related_pair()) {
        let (w, g) = scoring();
        let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430);
        prop_assert_eq!(r.cigar.target_len(), r.max_target);
        prop_assert_eq!(r.cigar.query_len(), r.max_query);
    }

    #[test]
    fn cigar_push_roundtrips_op_counts(ops in prop::collection::vec((0u8..4, 1u32..9), 0..24)) {
        // Building a CIGAR run-by-run preserves exactly the pushed ops
        // (merging adjacent equal ops changes representation, never
        // content): lengths, per-op counts and the op stream round-trip.
        let decode = |c: u8| match c {
            0 => AlignOp::Match,
            1 => AlignOp::Subst,
            2 => AlignOp::Insert,
            _ => AlignOp::Delete,
        };
        let mut cigar = Cigar::new();
        let mut expect_target = 0usize;
        let mut expect_query = 0usize;
        let mut expect_ops: Vec<AlignOp> = Vec::new();
        for &(code, count) in &ops {
            let op = decode(code);
            cigar.push(op, count);
            if op.consumes_target() { expect_target += count as usize; }
            if op.consumes_query() { expect_query += count as usize; }
            expect_ops.extend(std::iter::repeat_n(op, count as usize));
        }
        prop_assert_eq!(cigar.target_len(), expect_target);
        prop_assert_eq!(cigar.query_len(), expect_query);
        prop_assert_eq!(cigar.iter_ops().collect::<Vec<_>>(), expect_ops);
        // Adjacent runs are always merged: no two consecutive runs share
        // an op, so the text form is canonical.
        let runs: Vec<_> = cigar.runs().collect();
        for pair in runs.windows(2) {
            prop_assert!(pair[0].0 != pair[1].0, "unmerged runs in {}", cigar);
        }
        // And a rebuilt copy from the op stream is identical.
        let mut rebuilt = Cigar::new();
        for op in cigar.iter_ops() {
            rebuilt.push(op, 1);
        }
        prop_assert_eq!(rebuilt, cigar);
    }
}

/// A longer related pair for whole-pipeline properties: big enough that
/// a 64-base shard floor yields many shards and most cases survive the
/// filter, small enough that 24 pipeline runs stay fast.
fn pipeline_pair() -> impl Strategy<Value = (Sequence, Sequence)> {
    (dna_strategy(500, 1200), any::<u64>()).prop_map(|(s, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Sequence::new();
        for b in s.iter() {
            match rng.gen_range(0..24) {
                0 => {}
                1 => {
                    q.push(Base::from_code(rng.gen_range(0..4)));
                    q.push(b);
                }
                2 => q.push(Base::from_code(rng.gen_range(0..4))),
                _ => q.push(b),
            }
        }
        (s, q)
    })
}

proptest! {
    // Pipeline-level properties run whole seed-filter-extend passes per
    // case; fewer cases keep the suite inside its time budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dsoft_shard_merge_equals_whole_query(
        (t, q) in pipeline_pair(),
        boundary_bits in any::<u64>(),
        chunk_pow in 4usize..8,
        stride in 1usize..4,
        threshold in 1u32..3,
        cap_repeats in any::<bool>(),
    ) {
        // Concatenated per-shard D-SOFT bins equal whole-pair bins for
        // *random* chunk-aligned shard cuts: every subset of chunk
        // boundaries (from the 64 random bits) is a valid cut set, and
        // the merged hits, counters, and first-hit selections must be
        // indistinguishable from the unsharded walk.
        let chunk = 1usize << chunk_pow;
        let params = DsoftParams {
            chunk_size: chunk,
            bin_size: chunk,
            threshold,
            transitions: false,
            query_stride: stride,
        };
        let max_occ = if cap_repeats { 4 } else { usize::MAX };
        let table = SeedTable::build(&t, &SeedPattern::exact(8), max_occ);
        let whole = dsoft_seeds(&table, &q, &params);
        // Cut set: chunk boundary i is a cut iff bit i is set; the ends
        // are always cuts. Adjacent cuts give empty shards — also legal.
        let mut cuts = vec![0usize];
        for i in 1..q.len().div_ceil(chunk) {
            if boundary_bits >> (i % 64) & 1 == 1 {
                cuts.push(i * chunk);
            }
        }
        cuts.push(q.len());
        let parts: Vec<DsoftResult> = cuts
            .windows(2)
            .map(|w| dsoft_seeds_range(&table, &q, &params, w[0]..w[1]))
            .collect();
        prop_assert_eq!(merge_dsoft_results(parts), whole,
            "cuts={:?} chunk={} stride={}", cuts, chunk, stride);
    }

    #[test]
    fn shard_scheduling_never_changes_pipeline_output(
        (t, q) in pipeline_pair(),
        threads in 2usize..9,
        shard_pow in 6usize..11,
    ) {
        // Tile scheduling order is free: however the dataflow pool
        // interleaves the ranges (thread count and range size both
        // randomised), the committed chain output — alignments,
        // workload, counters — is exactly the serial pipeline's.
        let serial = WgaParams::darwin_wga();
        let sharded = WgaParams { shard_bases: 1 << shard_pow, ..serial.clone() };
        let reference = WgaPipeline::new(serial).run(&t, &q);
        let (mut target, mut query) = (Assembly::new("t"), Assembly::new("q"));
        target.push("t", t);
        query.push("q", q);
        let options = AlignOptions { threads, ..AlignOptions::default() };
        let report = align_assemblies_observed(&sharded, &target, &query, &options, Obs::off()).unwrap();
        let alignments: Vec<_> = report.pairs.into_iter().flat_map(|p| p.alignments).collect();
        prop_assert_eq!(&reference.alignments, &alignments);
        prop_assert_eq!(&reference.workload, &report.workload);
        prop_assert_eq!(reference.counters, report.counters);
    }
}
