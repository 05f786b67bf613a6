//! Differential oracle for the ungapped X-drop extension — and the
//! sensitivity gap it opens (paper Fig. 1 / Fig. 2).
//!
//! [`align::ungapped::ungapped_extend`] is the LASTZ-style gap-free
//! filter Darwin-WGA replaces with banded Smith-Waterman. Two layers:
//!
//! 1. **Differential**: with an effectively unbounded X-drop the
//!    extension must return exactly the maximal-scoring contiguous
//!    diagonal segment covering the seed. A brute-force O(L²) oracle
//!    (`naive_best_covering_segment`) recomputes that maximum with no
//!    prefix-max trick and no early termination; scores must agree on
//!    random, mutated, and evolved exon-island inputs. Finite X-drops
//!    can only lose score, monotonically in the X-drop value, and every
//!    reported segment must re-sum to its reported score.
//! 2. **Sensitivity gap**: on an indel-dense synthetic species pair,
//!    conserved exon islands are matched between the lineages by label
//!    and both filters run at their paper operating points — ungapped
//!    X-drop 910 / threshold 3000 (LASTZ `hsp`) vs banded SW tile 320 /
//!    band 32 / threshold 4000 (Darwin-WGA). Indels fragment the
//!    gap-free runs below the ungapped threshold while the gapped tile
//!    still clears its own, strictly higher, threshold: the gapped
//!    filter must pass strictly more islands, with at least one island
//!    that only it recovers.

use darwin_wga::align::banded::{banded_smith_waterman, tile_around};
use darwin_wga::align::ungapped::{ungapped_extend, UngappedOutcome};
use darwin_wga::genome::annotation::Interval;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{Base, GapPenalties, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Effectively unbounded X-drop: extension only stops at a sequence end.
const HUGE_XDROP: i32 = i32::MAX / 4;

fn random_bases(rng: &mut StdRng, len: usize) -> Vec<Base> {
    (0..len)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect()
}

/// A mutated copy of `src`: per-base substitution and indel noise.
fn mutate(rng: &mut StdRng, src: &[Base], sub_p: f64, indel_p: f64) -> Vec<Base> {
    let mut out = Vec::with_capacity(src.len() + 8);
    for &b in src {
        if rng.gen_bool(indel_p) {
            if rng.gen_bool(0.5) {
                continue; // deletion
            }
            out.push(Base::from_code(rng.gen_range(0..4))); // insertion
        }
        if rng.gen_bool(sub_p) {
            out.push(Base::from_code(rng.gen_range(0..4)));
        } else {
            out.push(b);
        }
    }
    out
}

/// Brute-force oracle: the best score over every contiguous diagonal
/// segment `[a, b)` with `a <= seed_t` and `b >= seed_t + seed_len`,
/// summed cell by cell. Quadratic on purpose — it shares no code or
/// algorithmic idea (prefix maxima, X-drop) with the implementation.
fn naive_best_covering_segment(
    target: &[Base],
    query: &[Base],
    seed_t: usize,
    seed_q: usize,
    seed_len: usize,
    w: &SubstitutionMatrix,
) -> i64 {
    let back = seed_t.min(seed_q);
    let fwd = (target.len() - seed_t).min(query.len() - seed_q);
    assert!(fwd >= seed_len, "seed outside sequences");
    let mut best = i64::MIN;
    for a in 0..=back {
        let (start_t, start_q) = (seed_t - a, seed_q - a);
        let min_len = a + seed_len;
        let max_len = a + fwd;
        let mut sum = 0i64;
        for k in 0..max_len {
            sum += w.score(target[start_t + k], query[start_q + k]) as i64;
            if k + 1 >= min_len && sum > best {
                best = sum;
            }
        }
    }
    best
}

/// Re-sums the reported segment directly from the sequences.
fn segment_score(
    target: &[Base],
    query: &[Base],
    out: &UngappedOutcome,
    w: &SubstitutionMatrix,
) -> i64 {
    (0..out.target_end - out.target_start)
        .map(|k| w.score(target[out.target_start + k], query[out.query_start + k]) as i64)
        .sum()
}

/// Checks the three invariants every extension result must satisfy, and
/// returns its score: the segment covers the seed, the segment re-sums
/// to the reported score, and the score never exceeds the brute-force
/// covering-segment optimum.
#[allow(clippy::too_many_arguments)] // mirrors ungapped_extend's own signature
fn check_extension(
    target: &[Base],
    query: &[Base],
    seed_t: usize,
    seed_q: usize,
    seed_len: usize,
    w: &SubstitutionMatrix,
    xdrop: i32,
    naive: i64,
) -> i64 {
    let (packed_t, packed_q) = (target.to_vec().into(), query.to_vec().into());
    let out = ungapped_extend(&packed_t, &packed_q, seed_t, seed_q, seed_len, w, xdrop);
    assert!(
        out.target_start <= seed_t && out.target_end >= seed_t + seed_len,
        "segment [{}, {}) does not cover seed at {} (len {})",
        out.target_start,
        out.target_end,
        seed_t,
        seed_len
    );
    assert_eq!(
        out.query_start,
        seed_q - (seed_t - out.target_start),
        "segment left the seed diagonal"
    );
    assert_eq!(
        segment_score(target, query, &out, w),
        out.score,
        "reported segment does not re-sum to the reported score"
    );
    assert!(
        out.score <= naive,
        "xdrop {xdrop}: score {} beats the brute-force optimum {naive}",
        out.score
    );
    out.score
}

#[test]
fn unbounded_xdrop_equals_naive_on_random_and_mutated_pairs() {
    let w = SubstitutionMatrix::darwin_wga();
    for trial in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(4000 + trial);
        let len = 40 + (trial as usize * 7) % 360;
        let t = random_bases(&mut rng, len);
        let q = if trial % 2 == 0 {
            mutate(&mut rng, &t, 0.15, 0.08) // homolog: indel-dense copy
        } else {
            random_bases(&mut rng, len + 13) // unrelated noise
        };
        for frac in 0..4usize {
            let seed_t = (len * frac / 4).min(t.len() - 1);
            let seed_q = seed_t.min(q.len() - 1);
            let room = (t.len() - seed_t).min(q.len() - seed_q);
            let seed_len = room.min(11);
            if seed_len == 0 {
                continue;
            }
            let naive = naive_best_covering_segment(&t, &q, seed_t, seed_q, seed_len, &w);
            let got = check_extension(&t, &q, seed_t, seed_q, seed_len, &w, HUGE_XDROP, naive);
            assert_eq!(
                got, naive,
                "trial {trial} seed {seed_t}: unbounded X-drop must find the optimum"
            );
        }
    }
}

#[test]
fn finite_xdrop_is_bounded_by_naive_and_monotone() {
    let w = SubstitutionMatrix::darwin_wga();
    for trial in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(6000 + trial);
        let len = 60 + (trial as usize * 11) % 300;
        let t = random_bases(&mut rng, len);
        let q = mutate(&mut rng, &t, 0.2, 0.1);
        let seed_t = len / 3;
        let seed_q = seed_t.min(q.len().saturating_sub(9));
        let seed_len = 8.min((t.len() - seed_t).min(q.len() - seed_q));
        if seed_len == 0 {
            continue;
        }
        let naive = naive_best_covering_segment(&t, &q, seed_t, seed_q, seed_len, &w);
        // A larger X-drop scans a superset of diagonal cells, so the
        // prefix maximum — hence the score — is monotone in the X-drop,
        // and the unbounded limit is exactly the naive optimum.
        let mut prev = i64::MIN;
        for xdrop in [0, 50, 250, 910, HUGE_XDROP] {
            let score = check_extension(&t, &q, seed_t, seed_q, seed_len, &w, xdrop, naive);
            assert!(
                score >= prev,
                "trial {trial}: score fell from {prev} to {score} as X-drop grew to {xdrop}"
            );
            prev = score;
        }
        assert_eq!(
            prev, naive,
            "trial {trial}: unbounded X-drop != naive optimum"
        );
    }
}

#[test]
fn unbounded_xdrop_equals_naive_on_evolved_exon_islands() {
    let w = SubstitutionMatrix::darwin_wga();
    let mut rng = StdRng::seed_from_u64(777);
    // Distance 0.5 with the default conserved_indel_factor keeps islands
    // recognisable but indel-dense — the regime the paper targets.
    let pair = SyntheticPair::generate(12_000, &EvolutionParams::at_distance(0.5), &mut rng);
    let orth: Vec<(usize, usize)> = (pair.orthologous_runs().into_iter())
        .flat_map(|(t, q, len)| (0..len).map(move |i| (t + i, q + i)))
        .collect();
    let t = &pair.target.sequence.to_bases();
    let q = &pair.query.sequence.to_bases();

    // Window the comparison to ±600 around each anchor so the quadratic
    // oracle stays cheap; both sides see the identical windowed input.
    const HALF: usize = 600;
    let mut checked = 0usize;
    for iv in &pair.target.conserved {
        let lo = orth.partition_point(|&(tp, _)| tp < iv.start);
        let Some(&(tp, qp)) = orth.get(lo).filter(|&&(tp, _)| tp < iv.end) else {
            continue;
        };
        let back = tp.min(qp).min(HALF);
        let (t0, q0) = (tp - back, qp - back);
        let tw = &t[t0..(tp + HALF).min(t.len())];
        let qw = &q[q0..(qp + HALF).min(q.len())];
        let (seed_t, seed_q) = (tp - t0, qp - q0);
        let seed_len = 19.min((tw.len() - seed_t).min(qw.len() - seed_q));
        if seed_len == 0 {
            continue;
        }
        let naive = naive_best_covering_segment(tw, qw, seed_t, seed_q, seed_len, &w);
        let got = check_extension(tw, qw, seed_t, seed_q, seed_len, &w, HUGE_XDROP, naive);
        assert_eq!(got, naive, "island {:?} at target {}", iv.label, tp);
        checked += 1;
    }
    assert!(
        checked >= 8,
        "only {checked} islands had orthologous anchors"
    );
}

#[test]
fn gapped_filter_recovers_islands_the_ungapped_filter_drops() {
    // Paper operating points: LASTZ ungapped hsp (X-drop 910, threshold
    // 3000) vs the Darwin-WGA banded SW filter (tile 320, band 32,
    // threshold 4000). On a distant, indel-dense pair the gap-free runs
    // inside conserved islands fragment below the ungapped threshold
    // while the banded tile — which absorbs the indels — still clears a
    // *higher* threshold. This is Fig. 1's sensitivity argument in test
    // form.
    let w = SubstitutionMatrix::darwin_wga();
    let gaps = GapPenalties::darwin_wga();
    let mut rng = StdRng::seed_from_u64(20_260_805);
    let pair = SyntheticPair::generate(30_000, &EvolutionParams::at_distance(0.45), &mut rng);
    let orth: Vec<(usize, usize)> = (pair.orthologous_runs().into_iter())
        .flat_map(|(t, q, len)| (0..len).map(move |i| (t + i, q + i)))
        .collect();
    let t = &pair.target.sequence.to_bases();
    let q = &pair.query.sequence.to_bases();

    // Match conserved islands across the lineages by their ancestral
    // label ("exon_N"); islands deleted in either lineage drop out.
    let query_islands: HashMap<&str, &Interval> = pair
        .query
        .conserved
        .iter()
        .map(|iv| (iv.label.as_str(), iv))
        .collect();

    let (mut islands, mut gapped_pass, mut ungapped_pass, mut gapped_only) = (0, 0, 0, 0);
    for iv in &pair.target.conserved {
        let Some(qiv) = query_islands.get(iv.label.as_str()) else {
            continue;
        };
        let lo = orth.partition_point(|&(tp, _)| tp < iv.start);
        let anchors: Vec<(usize, usize)> = orth[lo..]
            .iter()
            .take_while(|&&(tp, _)| tp < iv.end)
            .filter(|&&(_, qp)| qp >= qiv.start && qp < qiv.end)
            .copied()
            .collect();
        if anchors.is_empty() {
            continue;
        }
        islands += 1;

        // Ungapped filter: best hsp over a spread of true orthologous
        // anchors — strictly more generous than LASTZ, which has to find
        // them with seeds.
        let step = (anchors.len() / 8).max(1);
        let best_ungapped = anchors
            .iter()
            .step_by(step)
            .map(|&(tp, qp)| {
                ungapped_extend(
                    &pair.target.sequence,
                    &pair.query.sequence,
                    tp,
                    qp,
                    1,
                    &w,
                    910,
                )
                .score
            })
            .max()
            .unwrap();

        // Gapped filter: one banded SW tile at the central anchor.
        let (tp, qp) = anchors[anchors.len() / 2];
        let (tr, qr) = tile_around(tp, qp, 320, t.len(), q.len());
        let gapped = banded_smith_waterman(&t[tr], &q[qr], &w, &gaps, 32).max_score;

        let g = gapped >= 4000;
        let u = best_ungapped >= 3000;
        gapped_pass += g as usize;
        ungapped_pass += u as usize;
        gapped_only += (g && !u) as usize;
    }

    assert!(islands >= 10, "only {islands} matched islands");
    assert!(
        gapped_only >= 1,
        "no island was recovered exclusively by the gapped filter \
         ({gapped_pass}/{islands} gapped vs {ungapped_pass}/{islands} ungapped)"
    );
    assert!(
        gapped_pass > ungapped_pass,
        "gapped filter not more sensitive: {gapped_pass}/{islands} \
         gapped vs {ungapped_pass}/{islands} ungapped"
    );
}
