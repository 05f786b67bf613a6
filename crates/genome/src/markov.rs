//! Order-1 Markov sequence generation.
//!
//! Synthetic ancestral genomes are drawn from a first-order Markov chain so
//! they exhibit genome-like 2-base statistics (notably CpG depletion), the
//! same property the paper's shuffled null model preserves.

use crate::alphabet::Base;
use crate::sequence::Sequence;
use crate::stats::DinucleotideCounts;
use rand::Rng;

/// A first-order Markov model over `{A, C, G, T}`.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    initial: [f64; 4],
    transition: [[f64; 4]; 4],
}

impl MarkovModel {
    /// A uniform i.i.d. model.
    pub fn uniform() -> MarkovModel {
        MarkovModel {
            initial: [0.25; 4],
            transition: [[0.25; 4]; 4],
        }
    }

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
        MarkovModel {
            initial: [0.295, 0.205, 0.205, 0.295],
            transition,
        }
    }

    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any distribution does not sum to 1 within 1e-6, or contains
    /// a negative probability.
    pub fn from_parts(initial: [f64; 4], transition: [[f64; 4]; 4]) -> MarkovModel {
        validate_distribution(&initial);
        for row in &transition {
            validate_distribution(row);
        }
        MarkovModel { initial, transition }
    }

    /// Fits a model to the dinucleotide counts of an observed sequence.
    /// Rows without observations fall back to uniform.
    pub fn fit(counts: &DinucleotideCounts) -> MarkovModel {
        let transition = counts.transition_probabilities();
        let mut initial = [0.0f64; 4];
        let total: u64 = counts.total();
        if total == 0 {
            return MarkovModel::uniform();
        }
        for (i, init) in initial.iter_mut().enumerate() {
            let row_total: u64 = (0..4)
                .map(|j| counts.count(Base::from_code(i as u8), Base::from_code(j as u8)))
                .sum();
            *init = row_total as f64 / total as f64;
        }
        MarkovModel {
            initial,
            transition,
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
        out.reserve(len);
        let mut dist = &self.initial;
        for _ in 0..len {
            let state = sample(dist, rng);
            out.push(Base::from_code(state as u8));
            dist = &self.transition[state];
        }
    }
}

impl Default for MarkovModel {
    fn default() -> Self {
        MarkovModel::genome_like()
    }
}

fn validate_distribution(dist: &[f64; 4]) {
    let sum: f64 = dist.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "distribution sums to {sum}, expected 1"
    );
    assert!(dist.iter().all(|&p| p >= 0.0), "negative probability");
}

/// The first index whose running sum exceeds the draw (3 if none does),
/// counted instead of searched: the sums never decrease, so the draw is at
/// or above exactly the ones before that index.
#[inline]
fn sample<R: Rng + ?Sized>(dist: &[f64; 4], rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    let c0 = 0.0 + dist[0];
    let c1 = c0 + dist[1];
    let c2 = c1 + dist[2];
    usize::from(x >= c0) + usize::from(x >= c1) + usize::from(x >= c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BaseCounts;
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
        let seq = MarkovModel::genome_like().generate(200_000, &mut rng);
        let d = DinucleotideCounts::from_sequence(&seq);
        let cpg = d.obs_exp_ratio(Base::C, Base::G).unwrap();
        assert!(cpg < 0.5, "CpG obs/exp {cpg} not depleted");
        let gc = seq.gc_content();
        assert!((0.35..0.47).contains(&gc), "GC content {gc}");
    }

    #[test]
    fn uniform_model_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let seq = MarkovModel::uniform().generate(100_000, &mut rng);
        let c = BaseCounts::from_sequence(&seq);
        for &b in &Base::DNA {
            let f = c.frequency(b);
            assert!((0.23..0.27).contains(&f), "{b} frequency {f}");
        }
    }

    #[test]
    fn fit_recovers_transition_structure() {
        let mut rng = StdRng::seed_from_u64(4);
        let seq = MarkovModel::genome_like().generate(300_000, &mut rng);
        let fitted = MarkovModel::fit(&DinucleotideCounts::from_sequence(&seq));
        let orig = MarkovModel::genome_like();
        for i in 0..4 {
            for j in 0..4 {
                let d = (fitted.transition()[i][j] - orig.transition()[i][j]).abs();
                assert!(d < 0.02, "transition[{i}][{j}] off by {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "distribution sums")]
    fn from_parts_validates() {
        MarkovModel::from_parts([0.5, 0.5, 0.5, 0.5], [[0.25; 4]; 4]);
    }
}
