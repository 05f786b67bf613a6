//! Differential wall for the extension kernel.
//!
//! `align::xdrop` keeps only what traceback reads — two rolling `i32` score
//! rows and a flat pointer arena in a reused scratch. The kernel it
//! replaced kept `i64` V, F and a pointer for every computed cell in fresh
//! per-row `Vec`s; it lives on in `ragged_oracle`, unchanged, as the
//! reference (as scalar BSW is for the filter engines). This harness
//! proves the rewrite returns the **identical `TileResult`** — score,
//! argmax, CIGAR, and the cell/row/traceback-byte counts hwsim's cycle
//! models and `wga profile` consume — in both traceback modes, over
//! random tiles, evolved pairs and adversarial constructions, and pins
//! the extension oracle of ROADMAP item 5: GACT-X never beats full
//! Smith-Waterman and equals it when one unclipped tile holds the optimum.

mod ragged_oracle;

use align::gactx::{extend_alignment, TilingParams};
use align::sw::smith_waterman;
use align::xdrop::{xdrop_tile_scratch, xdrop_tile_with_mode, TileResult, TileScratch};
use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NO_DROP: i64 = i64::MAX / 8;

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

/// Runs oracle and kernel on one window in both traceback modes and
/// asserts the full results match; returns the GACT-X (global-maximum)
/// one. The kernel runs on the caller's scratch, whatever it last held.
fn check_tile(t: &[Base], q: &[Base], y: i64, scratch: &mut TileScratch) -> TileResult {
    let (w, g) = scoring();
    let mut check = |edge: bool| {
        let expected = ragged_oracle::xdrop_tile_with_mode(t, q, &w, &g, y, edge);
        let got = xdrop_tile_scratch(t, q, &w, &g, y, edge, scratch);
        assert_eq!(
            got,
            expected,
            "kernel vs oracle: n={} m={} y={y} edge={edge}\nt={}\nq={}",
            t.len(),
            q.len(),
            text(t),
            text(q)
        );
        got
    };
    check(true);
    check(false)
}

fn text(bases: &[Base]) -> String {
    bases.iter().map(|b| b.to_ascii() as char).collect()
}

fn bases(s: &str) -> Vec<Base> {
    s.parse::<Sequence>().expect("test DNA").to_bases()
}

fn random_bases(rng: &mut StdRng, len: usize, n_per_mille: u64) -> Vec<Base> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0u64..1000) < n_per_mille {
                Base::N
            } else {
                Base::from_code(rng.gen_range(0u8..4))
            }
        })
        .collect()
}

/// A noisy copy of `t` with substitutions and indels.
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

const YS: [i64; 9] = [0, 1, 30, 460, 1000, 2500, 9430, 1 << 40, NO_DROP];

#[test]
fn seeded_random_tiles_are_identical() {
    let scratch = &mut TileScratch::new();
    // Unrelated windows: the drop wall closes within a few rows.
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let (n, m) = (rng.gen_range(0usize..260), rng.gen_range(0usize..260));
        let t = random_bases(&mut rng, n, 20);
        let q = random_bases(&mut rng, m, 20);
        check_tile(&t, &q, YS[seed as usize % YS.len()], scratch);
    }
    // Related windows at escalating noise: long paths, wide bands, ties.
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let n = rng.gen_range(1usize..320);
        let t = random_bases(&mut rng, n, if seed % 5 == 0 { 30 } else { 0 });
        let noise = (seed % 6) as f64;
        let q = mutate(&mut rng, &t, 0.04 * noise, 0.02 * noise);
        let r = check_tile(&t, &q, YS[seed as usize % YS.len()], scratch);
        assert_eq!(r.cigar.target_len(), r.max_target);
        assert_eq!(r.cigar.query_len(), r.max_query);
    }
}

#[test]
fn evolved_pairs_are_identical_at_three_distances() {
    let scratch = &mut TileScratch::new();
    for (k, distance) in [0.15, 0.30, 1.30].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(90 + k as u64);
        let pair =
            SyntheticPair::generate(6_000, &EvolutionParams::at_distance(distance), &mut rng);
        let (t, q) = (
            &pair.target.sequence.to_bases(),
            &pair.query.sequence.to_bases(),
        );
        let anchors = pair.orthologous_pairs();
        assert!(
            anchors.len() > 100,
            "d={distance}: {} orthologous pairs",
            anchors.len()
        );
        // Windows opening on true orthologous positions, as extension
        // tiles do, at sizes from a sliver to the paper's default tile.
        for (a, size) in [64usize, 200, 333, 512, 700, 1920].into_iter().enumerate() {
            let (t0, q0) = anchors[(a * 2 + 1) * anchors.len() / 13];
            let tw = &t[t0..(t0 + size).min(t.len())];
            let qw = &q[q0..(q0 + size).min(q.len())];
            for y in [2000, 9430, NO_DROP] {
                check_tile(tw, qw, y, scratch);
            }
        }
    }
}

#[test]
fn empty_and_one_sided_empty_windows() {
    let scratch = &mut TileScratch::new();
    let s = bases("ACGTTGCAACGT");
    for y in YS {
        let r = check_tile(&[], &[], y, scratch);
        assert_eq!((r.max_score, r.cells, r.rows), (0, 1, 1));
        assert!(r.cigar.is_empty());
        check_tile(&s, &[], y, scratch);
        check_tile(&[], &s, y, scratch);
    }
}

#[test]
fn all_n_windows_never_align() {
    let scratch = &mut TileScratch::new();
    let n = vec![Base::N; 90];
    for y in YS {
        let r = check_tile(&n, &n[..70], y, scratch);
        assert_eq!(r.max_score, 0);
        check_tile(&n, &bases("ACGTACGTAC"), y, scratch);
    }
}

#[test]
fn homopolymers_and_short_repeats_break_ties_identically() {
    // Every diagonal, gap-open and gap-extend candidate ties somewhere in
    // these; the pointer chosen decides the CIGAR.
    let scratch = &mut TileScratch::new();
    for unit in ["A", "C", "AC", "ACG", "AACC"] {
        for (n, m) in [(40, 40), (64, 37), (37, 64), (120, 119), (1, 50), (50, 1)] {
            let t = bases(&unit.repeat(n / unit.len() + 1))[..n].to_vec();
            let q = bases(&unit.repeat(m / unit.len() + 1))[..m].to_vec();
            for y in YS {
                check_tile(&t, &q, y, scratch);
            }
        }
    }
    // Scores where a substitution, a gap-open and a gap-extension cost the
    // same, so `>=` against `>` anywhere in the recurrences shows.
    let w = SubstitutionMatrix::from_table([
        [2, -2, -2, -2],
        [-2, 2, -2, -2],
        [-2, -2, 2, -2],
        [-2, -2, -2, 2],
    ]);
    let g = GapPenalties::new(1, 1);
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..200 {
        let n = rng.gen_range(1usize..60);
        let t = random_bases(&mut rng, n, 0);
        let q = mutate(&mut rng, &t, 0.2, 0.15);
        for (y, edge) in [(6, false), (40, true), (NO_DROP, false), (NO_DROP, true)] {
            let expected = ragged_oracle::xdrop_tile_with_mode(&t, &q, &w, &g, y, edge);
            let got = xdrop_tile_scratch(&t, &q, &w, &g, y, edge, scratch);
            assert_eq!(
                got,
                expected,
                "y={y} edge={edge} t={} q={}",
                text(&t),
                text(&q)
            );
        }
    }
}

#[test]
fn zero_and_tiny_y() {
    // y = 0 keeps only cells equal to the running maximum; the values
    // around the gap charges (30, 430+30) flip which neighbours survive.
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..60 {
        let t = random_bases(&mut rng, 150, 0);
        let q = mutate(&mut rng, &t, 0.08, 0.03);
        for y in [0, 1, 29, 30, 31, 90, 91, 100, 101, 459, 460, 461, 490, 491] {
            check_tile(&t, &q, y, scratch);
        }
    }
}

#[test]
fn unbounded_y_computes_the_full_matrix() {
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..20 {
        let (n, m) = (rng.gen_range(1usize..200), rng.gen_range(1usize..200));
        let t = random_bases(&mut rng, n, 10);
        let q = random_bases(&mut rng, m, 10);
        for y in [NO_DROP, i64::MAX] {
            let r = check_tile(&t, &q, y, scratch);
            assert_eq!(r.cells, ((n + 1) * (m + 1)) as u64);
            assert_eq!((r.rows, r.max_row_width), (m + 1, n + 1));
        }
    }
}

#[test]
fn single_row_and_single_column_tiles() {
    let scratch = &mut TileScratch::new();
    let long = bases("ACGTTGCAACGTGGCATCAGGACTTACG");
    for y in YS {
        for b in Base::DNA.into_iter().chain([Base::N]) {
            check_tile(&long, &[b], y, scratch);
            check_tile(&[b], &long, y, scratch);
            check_tile(&[b], &[b], y, scratch);
        }
    }
}

#[test]
fn long_leading_gaps_are_kept() {
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(8);
    let s = random_bases(&mut rng, 300, 0);
    for skip in [1usize, 3, 40, 120] {
        // Leading deletion (the query lacks the window's first bases) and
        // leading insertion (the target does).
        for y in [9430, NO_DROP] {
            let r = check_tile(&s, &s[skip..], y, scratch);
            assert_eq!(r.cigar.to_string(), format!("{skip}D{}=", 300 - skip));
            let r = check_tile(&s[skip..], &s, y, scratch);
            assert_eq!(r.cigar.to_string(), format!("{skip}I{}=", 300 - skip));
        }
        // Too tight to pay for the gap: both must give up the same way.
        check_tile(&s, &s[skip..], 400, scratch);
        check_tile(&s[skip..], &s, 400, scratch);
    }
}

#[test]
fn maximum_on_the_last_row_and_column() {
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(9);
    let s = random_bases(&mut rng, 200, 0);
    for y in [1000, 9430, NO_DROP] {
        let r = check_tile(&s, &s, y, scratch); // the far corner
        assert_eq!((r.max_target, r.max_query), (200, 200));
        let r = check_tile(&s, &s[..120], y, scratch); // last row
        assert_eq!((r.max_target, r.max_query), (120, 120));
        let r = check_tile(&s[..120], &s, y, scratch); // last column
        assert_eq!((r.max_target, r.max_query), (120, 120));
    }
    // Noisy tails: the best edge cell (GACT) and the global maximum
    // (GACT-X) part ways, and several edge cells tie.
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let t = random_bases(&mut rng, 180, 0);
        let mut q = mutate(&mut rng, &t[..100], 0.05, 0.02);
        q.extend(random_bases(&mut rng, 60, 0));
        for y in [1500, 9430, NO_DROP] {
            check_tile(&t, &q, y, scratch);
            check_tile(&q, &t, y, scratch);
        }
    }
}

#[test]
fn a_small_tile_after_a_large_one_sees_no_stale_state() {
    // The scratch is never cleared between tiles: rows keep the scores,
    // the row buffer and the arena the pointers, of whatever ran before.
    // The sentinel writes alone must fence the small tile's scores off
    // from them, and its rows, shorter than what is lying in the row
    // buffer, must pack only what they wrote: the unrelated pair leaves
    // that buffer full of gap pointers, so a pack that read it by
    // absolute column or past the row's cells turns a diagonal into a
    // gap. (The one byte after a row's last live cell is harmless by
    // construction: it is the row's own pruned cell, or past column n.)
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(10);
    let big_t = random_bases(&mut rng, 900, 0);
    let big_q = mutate(&mut rng, &big_t, 0.1, 0.03);
    let gappy_t = random_bases(&mut rng, 400, 0);
    let gappy_q = random_bases(&mut rng, 380, 0);
    for y in [600, 9430, NO_DROP] {
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let n = rng.gen_range(0usize..90);
            let t = random_bases(&mut rng, n, 0);
            let q = mutate(&mut rng, &t, 0.1, 0.05);
            let fresh = {
                let (w, g) = scoring();
                xdrop_tile_with_mode(&t, &q, &w, &g, y, false)
            };
            check_tile(&big_t, &big_q, NO_DROP, scratch);
            assert_eq!(check_tile(&t, &q, y, scratch), fresh);
            check_tile(&big_t, &big_q, 2000, scratch);
            assert_eq!(check_tile(&t, &q, y, scratch), fresh);
            check_tile(&gappy_t, &gappy_q, NO_DROP, scratch);
            assert_eq!(check_tile(&t, &q, y, scratch), fresh);
        }
    }
}

#[test]
fn nibble_packed_rows_of_every_shape_trace_back_identically() {
    // The arena holds two pointers to a byte with no padding between
    // rows, so a row starts on either half of a byte depending on every
    // row before it. Shapes that put each half to work:
    let scratch = &mut TileScratch::new();
    let mut rng = StdRng::seed_from_u64(11);
    let s = random_bases(&mut rng, 64, 0);

    // Single-cell rows: no target, so every row is its boundary cell and
    // consecutive rows alternate between the low and the high nibble;
    // `y` decides how many there are, an odd or an even number.
    for y in [430 + 30, 430 + 30 * 2, 430 + 30 * 7, 430 + 30 * 8, NO_DROP] {
        let r = check_tile(&[], &s, y, scratch);
        assert_eq!(r.max_row_width, 1);
        assert_eq!(r.traceback_bytes, (r.rows as u64).div_ceil(2));
    }

    // Full rows of 3 to 7 cells under scores that make a long leading
    // insertion cheap: the target is the query's last `n` bases, found
    // nowhere else in it, so the path runs up column 0 through every row
    // — rows that, at an odd width, start on a low and a high nibble in
    // turn.
    let cheap_gaps = (
        SubstitutionMatrix::from_table([
            [100, -100, -100, -100],
            [-100, 100, -100, -100],
            [-100, -100, 100, -100],
            [-100, -100, -100, 100],
        ]),
        GapPenalties::new(1, 1),
    );
    let q = bases(&format!("{}CCGGTT", "A".repeat(58)));
    for n in 2..=6 {
        let t = &q[q.len() - n..];
        for edge in [false, true] {
            let (w, g) = &cheap_gaps;
            let expected = ragged_oracle::xdrop_tile_with_mode(t, &q, w, g, NO_DROP, edge);
            let got = xdrop_tile_scratch(t, &q, w, g, NO_DROP, edge, scratch);
            assert_eq!(got, expected, "n={n} edge={edge}");
            assert_eq!((got.rows, got.max_row_width), (q.len() + 1, n + 1));
            assert_eq!(got.cigar.to_string(), format!("{}I{n}=", q.len() - n));
        }
    }

    // A band sliding down the diagonal: under a tight `y` each row starts
    // one column further right than the last, so odd and even first
    // columns alternate, and shifting the pair by `skip` flips which rows
    // get which. Widths of both parities come with the noise.
    for skip in 0..4 {
        for y in [100, 460, 1000] {
            let r = check_tile(&s[skip..], &s, y, scratch);
            assert!(r.max_row_width < 40, "band {} wide", r.max_row_width);
            let q = mutate(&mut rng, &s, 0.1, 0.05);
            check_tile(&s[skip..], &q, y, scratch);
            check_tile(&q, &s[skip..], y, scratch);
        }
    }

    // The last computed row truncated to nothing: the pair matches, then
    // stops matching, and under a tight `y` a row comes up with no live
    // cell. It stores no pointer and ends the tile (with a target, an
    // early end can only be that).
    let mut q = s[..30].to_vec();
    q.extend(random_bases(&mut rng, 34, 1000));
    for y in [0, 100, 460] {
        let r = check_tile(&s, &q, y, scratch);
        assert!(r.rows > 1 && r.rows <= q.len(), "{} rows", r.rows);
    }
}

fn dna_strategy(min: usize, max: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u8..4, min..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A sequence and a mutated copy, between unrelated flanks so the local
/// optimum starts and ends inside the pair.
fn flanked_related_pair() -> impl Strategy<Value = (Sequence, Sequence)> {
    (
        dna_strategy(30, 160),
        dna_strategy(0, 40),
        dna_strategy(0, 40),
        any::<u64>(),
    )
        .prop_map(|(core, flank_t, flank_q, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let noisy = mutate(&mut rng, &core.to_bases(), 0.1, 0.04);
            let mut t = flank_t.clone();
            t.extend(core.iter());
            t.extend(flank_q.iter());
            let mut q = flank_q;
            q.extend(noisy);
            q.extend(flank_t.iter());
            (t, q)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GACT-X extends a local alignment, so it can never beat the optimal
    /// local alignment — from any anchor, at any tile size, in either
    /// traceback mode.
    #[test]
    fn gactx_never_exceeds_full_smith_waterman(
        (t, q) in flanked_related_pair(),
        anchor in 0usize..200,
        tile in 24usize..256,
        gact in any::<bool>(),
    ) {
        let (w, g) = scoring();
        let optimum = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g).best_score;
        let params = TilingParams {
            tile_size: tile,
            overlap: tile / 4,
            y: if gact { NO_DROP } else { 9430 },
            edge_traceback: gact,
        };
        let (at, aq) = (anchor % (t.len() + 1), anchor % (q.len() + 1));
        if let Some(ext) = extend_alignment(&t, &q, at, aq, &w, &g, &params) {
            prop_assert!(ext.alignment.validate(&t, &q).is_ok());
            prop_assert_eq!(ext.alignment.score, ext.alignment.rescore(&t, &q, &w, &g));
            prop_assert!(ext.alignment.score <= optimum, "{} > {optimum}", ext.alignment.score);
        }
    }

    /// Anchored where the optimal local alignment starts, one tile that
    /// holds both sequences and never drops a cell finds that optimum.
    #[test]
    fn single_unclipped_tile_equals_full_smith_waterman((t, q) in flanked_related_pair()) {
        let (w, g) = scoring();
        let sw = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        if let Some(best) = sw.alignment {
            let params = TilingParams {
                tile_size: t.len().max(q.len()) + 1,
                overlap: 0,
                y: NO_DROP,
                edge_traceback: false,
            };
            let ext = extend_alignment(&t, &q, best.target_start, best.query_start, &w, &g, &params)
                .expect("the optimum is positive");
            prop_assert_eq!(ext.alignment.score, sw.best_score);
            prop_assert!(ext.stats.tiles <= 2); // one each way; the left one finds nothing
        }
    }
}
