//! Order-1 Markov sequence generation.
//!
//! Synthetic ancestral genomes are drawn from a first-order Markov chain so
//! they exhibit genome-like 2-base statistics (notably CpG depletion), the
//! same property the paper's shuffled null model preserves.

use crate::alphabet::Base;
use crate::sequence::Sequence;
use rand::{Cursor, Rng};
use std::fmt;

/// A first-order Markov model over `{A, C, G, T}`.
#[derive(Clone, PartialEq)]
pub struct MarkovModel {
    initial: [f64; 4],
    transition: [[f64; 4]; 4],
    /// What a draw is counted against: per row of `transition`, then the
    /// initial distribution at [`INITIAL`], the [`threshold`] of each of
    /// its first three running sums.
    thresholds: [[u64; 3]; 5],
    /// Per bucket of draws (`k >> BUCKET_SHIFT`), the [`successors`] byte
    /// every draw in it has, or [`MIXED`] where a threshold falls inside
    /// the bucket and its draws are counted one by one.
    buckets: [u16; BUCKETS],
}

/// The row of [`MarkovModel::thresholds`] a chain's first base is drawn
/// from.
const INITIAL: usize = 4;

/// Equal spans the 2⁵³ draws are split into for [`MarkovModel::buckets`];
/// a draw's bucket is its top ten bits.
const BUCKETS: usize = 1 << 10;
const BUCKET_SHIFT: u32 = 53 - BUCKETS.trailing_zeros();
/// A bucket whose draws do not all have one successor byte.
const MIXED: u16 = 0x100;

impl MarkovModel {
    /// A model with genome-like composition: ~41% GC (typical for the
    /// invertebrate genomes in Table I) and a depleted CpG dinucleotide
    /// (obs/exp ≈ 0.25), plus mild AA/TT enrichment.
    pub fn genome_like() -> MarkovModel {
        // Stationary-ish base composition: A=0.295, C=0.205, G=0.205, T=0.295.
        let mut transition = [[0.295, 0.205, 0.205, 0.295]; 4];
        let (a, c, g, t) = (0usize, 1usize, 2usize, 3usize);
        // Deplete CpG: move most of C→G mass to C→A and C→T.
        transition[c][g] = 0.05;
        transition[c][a] = 0.335;
        transition[c][t] = 0.36;
        transition[c][c] = 0.255;
        // Mild AA / TT enrichment (poly-A/poly-T tracts are common).
        transition[a][a] = 0.345;
        transition[a][c] = 0.18;
        transition[a][g] = 0.205;
        transition[a][t] = 0.27;
        transition[t][t] = 0.345;
        transition[t][g] = 0.18;
        transition[t][c] = 0.205;
        transition[t][a] = 0.27;
        let initial = [0.295, 0.205, 0.205, 0.295];
        // The rows by state code, then the initial distribution at `INITIAL`.
        let mut rows = [initial; INITIAL + 1];
        rows[..INITIAL].copy_from_slice(&transition);
        let thresholds = rows.map(|row| sum_thresholds(&row));
        MarkovModel {
            initial,
            transition,
            thresholds,
            buckets: buckets(&thresholds),
        }
    }

    /// Probability of starting in each base.
    pub fn initial(&self) -> &[f64; 4] {
        &self.initial
    }

    /// Row-stochastic transition matrix `P(next | current)`.
    pub fn transition(&self) -> &[[f64; 4]; 4] {
        &self.transition
    }

    /// Generates a sequence of `len` bases.
    pub fn generate<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Sequence {
        let mut bases = Vec::with_capacity(len);
        self.generate_into(&mut bases, len, rng);
        Sequence::from_bases(bases)
    }

    /// Appends `len` bases of a fresh chain to `out`: one draw a base, the
    /// first from the initial distribution (none when `len` is 0).
    pub fn generate_into<R: Rng + ?Sized>(&self, out: &mut Vec<Base>, len: usize, rng: &mut R) {
        let start = out.len();
        out.resize(start + len, Base::A);
        self.fill(&mut out[start..], &mut rng.cursor());
    }

    /// Overwrites `out` with a fresh chain of `out.len()` bases, drawn as
    /// [`MarkovModel::generate_into`] draws them. Inlined into every
    /// caller: a call that took `rng`'s address would keep a cursor's
    /// position in memory for the caller's whole loop.
    #[inline(always)]
    pub(crate) fn fill<R: Rng + ?Sized>(&self, out: &mut [Base], rng: &mut R) {
        let Some((first, rest)) = out.split_first_mut() else {
            return;
        };
        let mut state = count(unit(rng), &self.thresholds[INITIAL]);
        *first = Base::from_code(state);
        for base in rest {
            // The draw decides where every state goes before the chain
            // says which state it is in: only the shift depends on the
            // base before.
            state = self.successor_byte(unit(rng)) >> (2 * state) & 0b11;
            *base = Base::from_code(state);
        }
    }

    /// [`successors`] of the draw `k < 2⁵³`, read from its bucket unless
    /// the bucket is mixed: only a bucket one of the twelve thresholds
    /// falls inside is, so at most twelve of the 1 024.
    #[inline]
    fn successor_byte(&self, k: u64) -> u8 {
        match self.buckets[(k >> BUCKET_SHIFT) as usize] {
            MIXED => successors(&self.thresholds, k),
            byte => byte as u8,
        }
    }
}

impl fmt::Debug for MarkovModel {
    /// The model's probabilities; its thresholds and buckets are worked
    /// out from them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MarkovModel")
            .field("initial", &self.initial)
            .field("transition", &self.transition)
            .finish_non_exhaustive()
    }
}

/// The state each state moves to on draw `k`, two bits each, state `s`'s
/// at bits `2s` and `2s + 1`: the same three compares a row as [`count`],
/// made for the four transition rows at once.
#[inline]
fn successors(thresholds: &[[u64; 3]; 5], k: u64) -> u8 {
    let mut packed = 0;
    for (state, row) in thresholds[..INITIAL].iter().enumerate() {
        packed |= count(k, row) << (2 * state);
    }
    packed
}

/// Every bucket's successor byte, or [`MIXED`]. Each two-bit field counts
/// thresholds at or below the draw, so it never decreases as the draw
/// grows: equal at a bucket's first and last draw, the byte is that value
/// at every draw between.
fn buckets(thresholds: &[[u64; 3]; 5]) -> [u16; BUCKETS] {
    let mut buckets = [MIXED; BUCKETS];
    for (bucket, entry) in (0u64..).zip(&mut buckets) {
        let first = successors(thresholds, bucket << BUCKET_SHIFT);
        let last = successors(thresholds, ((bucket + 1) << BUCKET_SHIFT) - 1);
        if first == last {
            *entry = u16::from(first);
        }
    }
    buckets
}

/// The first index whose running sum exceeds the draw `k` (3 if none
/// does), counted instead of searched: the sums never decrease, so the
/// draw is at or above exactly the ones before that index.
#[inline]
fn count(k: u64, row: &[u64; 3]) -> u8 {
    u8::from(k >= row[0]) + u8::from(k >= row[1]) + u8::from(k >= row[2])
}

impl Default for MarkovModel {
    fn default() -> Self {
        MarkovModel::genome_like()
    }
}

/// A row's [`threshold`]s: its running sums added as the float search
/// added them, `0 + p₀`, `+ p₁`, `+ p₂`, so each compares as that sum did.
fn sum_thresholds(row: &[f64; 4]) -> [u64; 3] {
    let c0 = 0.0 + row[0];
    let c1 = c0 + row[1];
    let c2 = c1 + row[2];
    [c0, c1, c2].map(threshold)
}

/// The 53 bits a `Standard` `f64` draw is made of, from the same word:
/// `rng.gen::<f64>()` is `unit(rng) · 2⁻⁵³`.
#[inline]
pub(crate) fn unit<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// The [`unit`]s of the cursor's next `N` draws, without taking them, if
/// its generator holds them already.
#[inline]
pub(crate) fn peek_units<R: Rng + ?Sized, const N: usize>(rng: &Cursor<'_, R>) -> Option<[u64; N]> {
    rng.peek_u64s().map(|words| words.map(|word| word >> 11))
}

/// `⌈p · 2⁵³⌉`, what a [`unit`] draw `k` is compared with in place of
/// `p`: `k · 2⁻⁵³ < p ⇔ k < threshold(p)`, and `k · 2⁻⁵³ >= p ⇔
/// k >= threshold(p)` unless `p` is NaN. Exact: scaling by 2⁵³ rounds
/// nothing, and for an integer `k`, `k < x ⇔ k < ⌈x⌉`. The saturating cast makes `p ≤ 0`
/// and NaN 0, which no draw is below, and `p ≥ 1` 2⁵³, which every draw
/// is below: a threshold is never above 2⁵³ (see [`fires`]).
pub(crate) fn threshold(p: f64) -> u64 {
    ((p * (1u64 << 53) as f64).ceil() as u64).min(1 << 53)
}

/// `k − threshold` with the sign bit set exactly when the roll fires
/// (`k < threshold`): both are at most 2⁵³, so the difference is
/// negative exactly then. Arithmetic where a compare would do, so that
/// outcomes can be combined by `&` and shifts and a compiler has no `bool`
/// to branch on.
#[inline]
pub(crate) fn fires(k: u64, threshold: u64) -> u64 {
    k.wrapping_sub(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = MarkovModel::genome_like();
        assert_eq!(m.generate(0, &mut rng).len(), 0);
        assert_eq!(m.generate(1, &mut rng).len(), 1);
        assert_eq!(m.generate(1000, &mut rng).len(), 1000);
    }

    #[test]
    fn genome_like_depletes_cpg() {
        let mut rng = StdRng::seed_from_u64(2);
        let bases = MarkovModel::genome_like()
            .generate(200_000, &mut rng)
            .to_bases();
        let n = bases.len() as f64;
        let freq = |b: Base| bases.iter().filter(|&&x| x == b).count() as f64 / n;
        let cpg = bases
            .windows(2)
            .filter(|w| *w == [Base::C, Base::G])
            .count() as f64;
        let obs_exp = cpg / ((n - 1.0) * freq(Base::C) * freq(Base::G));
        assert!(obs_exp < 0.5, "CpG obs/exp {obs_exp} not depleted");
        let gc = freq(Base::C) + freq(Base::G);
        assert!((0.35..0.47).contains(&gc), "GC content {gc}");
    }

    /// The `f64` a [`unit`] draw `k` stands for, exactly (`k < 2^53`).
    fn as_draw(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn a_threshold_decides_every_draw_as_the_float_compare_does() {
        let ulps = |x: f64, by: i64| f64::from_bits(x.to_bits().wrapping_add_signed(by));
        let mut ps = vec![
            0.0,
            -0.0,
            f64::from_bits(1), // the least subnormal
            as_draw(1),
            0.1,
            2.0 / 3.0,
            0.65,
            1.0 - as_draw(1),
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for j in [1, 2, 3, 5, 1000, 1 << 20, (1 << 52) + 1, (1 << 53) - 1] {
            ps.extend([-1, 0, 1].map(|by| ulps(as_draw(j), by)));
        }
        for p in ps {
            let t = threshold(p);
            let ks = [0, 1, t.wrapping_sub(1), t, t.wrapping_add(1), (1 << 53) - 1];
            for k in ks.into_iter().filter(|&k| k < 1 << 53) {
                let x = as_draw(k);
                assert_eq!(k < t, x < p, "p {p:e} ({:#x}) k {k} t {t}", p.to_bits());
                if !p.is_nan() {
                    assert_eq!(k >= t, x >= p, "p {p:e} ({:#x}) k {k} t {t}", p.to_bits());
                }
            }
        }
    }

    #[test]
    fn the_successor_byte_is_each_rows_three_compare_count() {
        // At one unit either side of every threshold, and at the first and
        // last draw of every bucket: the byte's field for each state is
        // the count `generate_into` made for that row, by bucket or not.
        let model = MarkovModel::genome_like();
        let at_thresholds = (model.thresholds.iter().flatten()).flat_map(|&t| [t - 1, t, t + 1]);
        let bucket_ends =
            (0..BUCKETS as u64).flat_map(|b| [b << BUCKET_SHIFT, ((b + 1) << BUCKET_SHIFT) - 1]);
        let mut mixed = 0;
        for k in at_thresholds.chain(bucket_ends) {
            let byte = model.successor_byte(k);
            for (state, row) in model.thresholds[..INITIAL].iter().enumerate() {
                let count = row.iter().filter(|&&t| k >= t).count();
                assert_eq!(
                    usize::from(byte >> (2 * state) & 0b11),
                    count,
                    "k {k} state {state}"
                );
            }
            mixed += usize::from(model.buckets[(k >> BUCKET_SHIFT) as usize] == MIXED);
        }
        // Mixed buckets exist, so both ways of reading the byte are tried.
        assert!(mixed > 0);
    }

    #[test]
    fn a_rows_thresholds_count_a_draw_as_its_float_sums_do() {
        let model = MarkovModel::genome_like();
        let rows = model.transition.iter().chain([&model.initial]);
        for (row, thresholds) in rows.zip(&model.thresholds) {
            let sums = [
                0.0 + row[0],
                0.0 + row[0] + row[1],
                0.0 + row[0] + row[1] + row[2],
            ];
            assert_eq!(
                *thresholds,
                sums.map(|sum| (sum * (1u64 << 53) as f64).ceil() as u64)
            );
            for k in thresholds.iter().flat_map(|&t| [t - 1, t, t + 1]) {
                let by_float = sums.iter().filter(|&&sum| as_draw(k) >= sum).count();
                let by_threshold = thresholds.iter().filter(|&&t| k >= t).count();
                assert_eq!(by_threshold, by_float, "row {row:?} k {k}");
            }
        }
    }
}
