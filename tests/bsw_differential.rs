//! Differential-oracle harness: the filter's wavefront batch against the
//! scalar reference.
//!
//! `align::bsw_fast::BswBatch` re-derives the banded DP in anti-diagonal
//! order over reused buffers, in explicit `i16` SIMD lanes (SSE2/AVX2)
//! where a tile's scores fit them, and hands any other tile to
//! `align::banded::banded_smith_waterman` itself. This harness proves the
//! lanes *bit-identical* to that oracle — same `max_score`, same argmax
//! coordinates (including the scalar's row-major tie-break), same cell
//! counts — over thousands of seeded-random tiles, adversarial
//! constructions (including lane-boundary lengths and tiles either side
//! of the lanes' score bound), and whole-pipeline runs, and that both
//! engines pass the exact same set of tiles at the paper's `H_f = 4000`
//! threshold.
//!
//! Every tile runs under Darwin's scoring, whose tiles up to 327 bases a
//! side fit the `i16` lanes on x86-64, and the batch picks its route as
//! it does in production. The dispatch takes the widest `i16` lanes the
//! host has, so a tile that fits them also runs on each width directly
//! (`BswBatch::run_tile_i16`): SSE2's 8 lanes as well as AVX2's 16. A
//! width the host lacks prints one `skipped: no <feature>` line to
//! stderr. Under the same scoring × 400, whose entries and gap penalties
//! pass `i16`, no tile may take the lanes on any host.

use darwin_wga::align::banded::{banded_smith_waterman, tile_around, BandedOutcome};
use darwin_wga::align::bsw_fast::{BswBatch, BswScratch};
use darwin_wga::core::config::{FilterEngineKind, WgaParams};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::obs::Obs;
use darwin_wga::core::pipeline::WgaPipeline;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{Base, GapPenalties, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::sync::OnceLock;

const THRESHOLD: i64 = 4000;

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

/// Darwin's scoring × 400: no tile of it fits the `i16` lanes.
fn wide_scoring() -> (SubstitutionMatrix, GapPenalties) {
    let (w, g) = scoring();
    let score = |a: usize, b: usize| w.score(Base::from_code(a as u8), Base::from_code(b as u8));
    let table = std::array::from_fn(|a| std::array::from_fn(|b| 400 * score(a, b)));
    let gaps = GapPenalties::new(400 * g.open, 400 * g.extend);
    (SubstitutionMatrix::from_table(table), gaps)
}

/// The `i16` lane widths this host runs, by feature name. Each one it
/// lacks is reported once, on a `skipped: no <feature>` line written
/// straight to stderr, past the harness's capture, so a kernel left
/// untested shows in a passing run.
fn i16_widths() -> &'static [&'static str] {
    static WIDTHS: OnceLock<Vec<&'static str>> = OnceLock::new();
    WIDTHS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let host = [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let host = [("sse2", false), ("avx2", false)];
        let mut widths = Vec::new();
        for (feature, present) in host {
            if present {
                widths.push(feature);
            } else {
                let _ = writeln!(std::io::stderr(), "skipped: no {feature}");
            }
        }
        widths
    })
}

/// Runs one tile through the scalar kernel and a fresh batch under
/// Darwin's scoring — and, where the tile takes the `i16` lanes, through
/// each lane width the host has — asserts the full outcomes match, and
/// returns them (so callers can build surviving sets). Under the wide
/// scoring the tile must not take the lanes.
fn check_tile(t: &[Base], q: &[Base], band: usize, scratch: &mut BswScratch) -> BandedOutcome {
    let (n, m) = (t.len(), q.len());
    let (w, g) = wide_scoring();
    assert!(
        !BswBatch::new(&w, &g, band).tile_uses_simd(n, m),
        "a wide-score tile took the i16 lanes: n={n} m={m}"
    );
    let (w, g) = scoring();
    let batch = BswBatch::new(&w, &g, band);
    let simd = batch.tile_uses_simd(n, m);
    let scalar = banded_smith_waterman(t, q, &w, &g, band);
    let fast = batch.run_tile(t, q, scratch);
    assert_eq!(scalar, fast, "simd={simd}: band={band} n={n} m={m}");
    for &feature in i16_widths().iter().filter(|_| simd) {
        let lanes = batch.run_tile_i16(feature, t, q, scratch);
        assert_eq!(
            Some(scalar),
            lanes,
            "{feature} lanes: band={band} n={n} m={m}"
        );
    }
    scalar
}

fn random_bases(rng: &mut StdRng, len: usize, n_fraction_millis: u64) -> Vec<Base> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0u64..1000) < n_fraction_millis {
                Base::N
            } else {
                Base::from_code(rng.gen_range(0u8..4))
            }
        })
        .collect()
}

/// A noisy copy of `t` with substitutions and indels (indel-dense, so
/// optima wander off the main diagonal and stress the band edges).
fn mutate(rng: &mut StdRng, t: &[Base], sub_p: f64, indel_p: f64) -> Vec<Base> {
    let mut out = Vec::with_capacity(t.len() + 8);
    for &b in t {
        if rng.gen_bool(indel_p) {
            if rng.gen_bool(0.5) {
                continue; // deletion
            }
            out.push(Base::from_code(rng.gen_range(0u8..4))); // insertion
        }
        if rng.gen_bool(sub_p) {
            out.push(Base::from_code(rng.gen_range(0u8..4)));
        } else {
            out.push(b);
        }
    }
    out
}

#[test]
fn thousand_seeded_random_tiles_are_identical() {
    let mut scratch = BswScratch::default();
    let bands = [1usize, 2, 3, 8, 32, 64, 513];
    let mut tiles = 0u64;
    // Unrelated random sequences (noise tiles: the filter's common case).
    for seed in 0..250 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(1usize..400);
        let m = rng.gen_range(1usize..400);
        let t = random_bases(&mut rng, n, 20);
        let q = random_bases(&mut rng, m, 20);
        check_tile(&t, &q, bands[seed as usize % bands.len()], &mut scratch);
        tiles += 1;
    }
    // Related tiles: noisy copies with indels at escalating rates, where
    // scores are high and tie-breaks actually matter.
    for seed in 0..500 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let n = rng.gen_range(8usize..380);
        let t = random_bases(&mut rng, n, 5);
        let sub_p = 0.02 + 0.3 * (seed % 7) as f64 / 7.0;
        let indel_p = 0.01 + 0.15 * (seed % 5) as f64 / 5.0;
        let q = mutate(&mut rng, &t, sub_p, indel_p);
        if q.is_empty() {
            continue;
        }
        check_tile(&t, &q, bands[seed as usize % bands.len()], &mut scratch);
        tiles += 1;
    }
    // Evolved genome windows (the pipeline's real tile distribution).
    for (i, milli) in [80u64, 200, 350, 500].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(3000 + i as u64);
        let pair = SyntheticPair::generate(
            14_000,
            &EvolutionParams::at_distance(milli as f64 / 1000.0),
            &mut rng,
        );
        let (t, q) = (
            pair.target.sequence.to_bases(),
            pair.query.sequence.to_bases(),
        );
        for k in 0..80 {
            let pos = 100 + k * 160;
            let (tr, qr) = tile_around(pos, pos, 320, t.len(), q.len());
            check_tile(&t[tr], &q[qr], 32, &mut scratch);
            tiles += 1;
        }
    }
    assert!(tiles >= 1000, "only {tiles} tiles exercised");
}

/// The per-width entry point runs exactly the tiles the dispatch would
/// give the `i16` lanes, on a width the host has and no other.
#[test]
fn each_i16_width_runs_a_fitting_tile_and_only_that() {
    let mut scratch = BswScratch::default();
    let mut rng = StdRng::seed_from_u64(616);
    let t = random_bases(&mut rng, 320, 0);
    let q = mutate(&mut rng, &t, 0.1, 0.02);
    let (w, g) = scoring();
    let batch = BswBatch::new(&w, &g, 32);
    let scalar = banded_smith_waterman(&t, &q, &w, &g, 32);
    let fits = batch.tile_uses_simd(t.len(), q.len());
    for feature in ["sse2", "avx2"] {
        let lanes = batch.run_tile_i16(feature, &t, &q, &mut scratch);
        let expected = (fits && i16_widths().contains(&feature)).then_some(scalar);
        assert_eq!(lanes, expected, "{feature}");
    }
    assert_eq!(batch.run_tile_i16("neon", &t, &q, &mut scratch), None);
    let (w, g) = wide_scoring();
    let wide = BswBatch::new(&w, &g, 32);
    for &feature in i16_widths() {
        let lanes = wide.run_tile_i16(feature, &t, &q, &mut scratch);
        assert_eq!(lanes, None, "{feature} ran a wide-score tile");
    }
}

#[test]
fn adversarial_all_gap_tiles() {
    // Optimal paths forced through long gaps: the query is the target
    // with a large block deleted / the target with a block inserted.
    let mut scratch = BswScratch::default();
    let mut rng = StdRng::seed_from_u64(77);
    for &(block, band) in &[(10usize, 32usize), (40, 32), (31, 32), (33, 32), (64, 80)] {
        let t = random_bases(&mut rng, 320, 0);
        let mut q = t.clone();
        q.drain(140..140 + block);
        check_tile(&t, &q, band, &mut scratch);
        check_tile(&q, &t, band, &mut scratch);
    }
    // Pure gap vs gap: sequences sharing nothing but one base.
    let t = vec![Base::A; 64];
    let q = vec![Base::C; 64];
    check_tile(&t, &q, 8, &mut scratch);
}

#[test]
fn adversarial_homopolymer_ties() {
    // Homopolymers maximise score ties: every diagonal cell of the block
    // reaches the same maximum, so the argmax is decided purely by the
    // scalar's row-major first-improvement rule. Any tie-break slip in
    // the wavefront order shows up here.
    let mut scratch = BswScratch::default();
    for (n, m) in [(60usize, 60usize), (60, 45), (45, 60), (320, 317), (1, 300)] {
        let t = vec![Base::A; n];
        let q = vec![Base::A; m];
        for band in [1, 2, 16, 33, 400] {
            check_tile(&t, &q, band, &mut scratch);
        }
        // Alternating two-state repeats: ties along shifted diagonals too.
        let t: Vec<Base> = (0..n)
            .map(|i| if i % 2 == 0 { Base::A } else { Base::C })
            .collect();
        let q: Vec<Base> = (0..m)
            .map(|i| if i % 2 == 0 { Base::A } else { Base::C })
            .collect();
        for band in [1, 3, 32] {
            check_tile(&t, &q, band, &mut scratch);
        }
    }
}

#[test]
fn adversarial_band_edge_optimum() {
    // The optimum sits exactly on the band boundary |i - j| = band: the
    // query carries a `band`-base prefix insertion, so the best path
    // hugs the edge where out-of-band sentinel reads are adjacent.
    let mut rng = StdRng::seed_from_u64(88);
    let mut scratch = BswScratch::default();
    for band in [1usize, 2, 8, 32] {
        let core = random_bases(&mut rng, 200, 0);
        for shift in [band.saturating_sub(1), band, band + 1] {
            let prefix = random_bases(&mut rng, shift, 0);
            let mut q = prefix;
            q.extend_from_slice(&core);
            check_tile(&core, &q, band, &mut scratch);
            check_tile(&q, &core, band, &mut scratch);
        }
    }
}

#[test]
fn degenerate_inputs_are_identical() {
    let mut scratch = BswScratch::default();
    for (t, q) in [
        (vec![], vec![]),
        (vec![Base::A], vec![]),
        (vec![], vec![Base::T]),
        (vec![Base::G], vec![Base::G]),
        (vec![Base::N; 50], vec![Base::N; 50]),
    ] {
        for band in [1usize, 7, 1000] {
            check_tile(&t, &q, band, &mut scratch);
        }
    }
}

#[test]
fn lane_boundary_adversaries_are_identical() {
    // Tile dimensions chosen to straddle the SIMD lane widths (8 for
    // SSE2, 16 for AVX2): lengths congruent to 0, 1, and lane-1 mod the
    // lane width stress the ragged final vector and the epilogue masking.
    let mut scratch = BswScratch::default();
    let mut rng = StdRng::seed_from_u64(50_505);
    for lane in [8usize, 16] {
        for mult in [1usize, 3, 20] {
            for delta in [0usize, 1, lane - 1] {
                let n = lane * mult + delta;
                for m in [n, n.saturating_sub(1).max(1), n + 1, lane, lane + 1] {
                    let t = random_bases(&mut rng, n, 10);
                    let q = mutate(&mut rng, &t[..m.min(t.len())], 0.1, 0.05);
                    let q = if q.is_empty() { vec![Base::A] } else { q };
                    check_tile(&t, &q, 32, &mut scratch);
                    check_tile(&q, &t, 32, &mut scratch);
                }
            }
        }
    }
    // Saturation boundary: identical homopolymer-free sequences of length
    // L score ~L*match, so lengths around i16::MAX / max_match straddle
    // the `tile_uses_simd` cutoff — both the widest i16 tiles and the
    // first tiles handed to the oracle get exercised, and must agree
    // either way. Random ACGT stays below i16::MAX either side, so
    // `all_c_tiles_either_side_of_the_i16_cutoff` pins the cutoff itself.
    let (w, _) = scoring();
    let max_match = (0u8..4)
        .flat_map(|a| (0u8..4).map(move |b| (a, b)))
        .map(|(a, b)| w.score(Base::from_code(a), Base::from_code(b)))
        .max()
        .unwrap() as i64;
    let cutoff = (i16::MAX as i64 / max_match.max(1)) as usize;
    for len in [cutoff.saturating_sub(1), cutoff, cutoff + 1, cutoff + 17] {
        let t = random_bases(&mut rng, len, 0);
        check_tile(&t, &t, 32, &mut scratch);
        let q = mutate(&mut rng, &t, 0.05, 0.02);
        check_tile(&t, &q, 32, &mut scratch);
    }
    // All-N tiles: every substitution is the N penalty, a uniform
    // negative plane where the empty alignment (score 0 at the origin)
    // must win identically in every engine.
    for (n, m) in [
        (7usize, 7usize),
        (8, 8),
        (9, 16),
        (15, 17),
        (33, 64),
        (129, 127),
    ] {
        let t = vec![Base::N; n];
        let q = vec![Base::N; m];
        check_tile(&t, &q, 32, &mut scratch);
    }
}

#[test]
fn all_c_tiles_either_side_of_the_i16_cutoff() {
    // An all-C tile scores 100 a base down its diagonal: 327 bases score
    // 32 700 and fit the i16 lanes, 328 score 32 800 and must run the
    // oracle. A cutoff one base wider, or a route that gives the lanes a
    // tile past it, saturates the second at i16::MAX.
    let (w, g) = scoring();
    let batch = BswBatch::new(&w, &g, 32);
    let mut scratch = BswScratch::default();
    for (len, score, fits) in [(327usize, 32_700i64, true), (328, 32_800, false)] {
        let t = vec![Base::C; len];
        assert_eq!(check_tile(&t, &t, 32, &mut scratch).max_score, score);
        let lanes = fits && cfg!(target_arch = "x86_64");
        assert_eq!(batch.tile_uses_simd(len, len), lanes, "{len} bases");
    }
}

#[test]
fn surviving_tile_sets_are_identical() {
    // The acceptance property the pipeline actually depends on: both
    // engines pass exactly the same tiles at H_f = 4000.
    let (w, g) = scoring();
    let mut rng = StdRng::seed_from_u64(4242);
    let pair = SyntheticPair::generate(40_000, &EvolutionParams::at_distance(0.35), &mut rng);
    let (t, q) = (
        pair.target.sequence.to_bases(),
        pair.query.sequence.to_bases(),
    );
    let batch = BswBatch::new(&w, &g, 32);
    let mut scratch = BswScratch::default();
    let mut scalar_survivors = Vec::new();
    let mut simd_survivors = Vec::new();
    let mut jitter = StdRng::seed_from_u64(4343);
    for k in 0..240usize {
        let tpos = 160 + k * 160;
        let qpos = tpos.saturating_sub(jitter.gen_range(0usize..48));
        let (tr, qr) = tile_around(tpos, qpos, 320, t.len(), q.len());
        let scalar = banded_smith_waterman(&t[tr.clone()], &q[qr.clone()], &w, &g, 32);
        let simd = batch.run_tile(&t[tr], &q[qr], &mut scratch);
        assert_eq!(scalar, simd, "tile {k}");
        if scalar.max_score >= THRESHOLD {
            scalar_survivors.push(k);
        }
        if simd.max_score >= THRESHOLD {
            simd_survivors.push(k);
        }
    }
    assert_eq!(scalar_survivors, simd_survivors);
    assert!(
        !scalar_survivors.is_empty(),
        "test needs some surviving tiles to be meaningful"
    );
    assert!(
        scalar_survivors.len() < 240,
        "test needs some rejected tiles to be meaningful"
    );
}

#[test]
fn encoded_kernel_matches_base_wrapper() {
    // One batch and scratch carried across tiles of shrinking and growing
    // size agree with a fresh batch and scratch per tile.
    let mut rng = StdRng::seed_from_u64(99);
    let t = random_bases(&mut rng, 300, 30);
    let q = mutate(&mut rng, &t, 0.1, 0.05);
    let (w, g) = scoring();
    let batch = BswBatch::new(&w, &g, 32);
    let mut scratch = BswScratch::default();
    for len in [300, 17, 200, 300] {
        let (t, q) = (&t[..len], &q[..len.min(q.len())]);
        let warm = batch.run_tile(t, q, &mut scratch);
        let fresh = BswBatch::new(&w, &g, 32).run_tile(t, q, &mut BswScratch::default());
        assert_eq!(warm, fresh, "len={len}");
    }
}

#[test]
fn whole_pipeline_identical_across_engines_and_threads() {
    // End-to-end: both engines, serial and parallel at several widths,
    // produce the identical report on the same pair — including with
    // intra-pair sharding forced on via a small shard size.
    let mut rng = StdRng::seed_from_u64(606);
    let pair = SyntheticPair::generate(30_000, &EvolutionParams::at_distance(0.3), &mut rng);
    let (t, q) = (&pair.target.sequence, &pair.query.sequence);
    let scalar_params = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
    let simd_params = WgaParams {
        shard_bases: 512,
        ..WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Simd)
    };
    let serial = |params: &WgaParams| {
        let report = WgaPipeline::new(params.clone()).run(t, q);
        (report.alignments, report.workload, report.counters)
    };
    let (mut target, mut query) = (Assembly::new("t"), Assembly::new("q"));
    target.push("t", t.clone());
    query.push("q", q.clone());
    let run_parallel = |params: &WgaParams, threads| {
        let options = AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        let report =
            align_assemblies_observed(params, &target, &query, &options, Obs::off()).unwrap();
        let alignments = report
            .pairs
            .into_iter()
            .flat_map(|p| p.alignments)
            .collect();
        (alignments, report.workload, report.counters)
    };
    let reference = serial(&scalar_params);
    assert!(
        !reference.0.is_empty(),
        "pipeline must produce alignments for the comparison to bite"
    );
    for (name, report) in [
        ("simd serial", serial(&simd_params)),
        ("scalar 3 threads", run_parallel(&scalar_params, 3)),
        ("simd 3 threads", run_parallel(&simd_params, 3)),
        ("simd 8 threads", run_parallel(&simd_params, 8)),
    ] {
        assert_eq!(reference, report, "{name}");
    }
}
