//! Order-1 Markov sequence generation.
//!
//! Synthetic ancestral genomes are drawn from a first-order Markov chain so
//! they exhibit genome-like 2-base statistics (notably CpG depletion), the
//! same property the paper's shuffled null model preserves.

use crate::alphabet::Base;
use crate::sequence::Sequence;
use rand::Rng;

/// A first-order Markov model over `{A, C, G, T}`.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    initial: [f64; 4],
    transition: [[f64; 4]; 4],
}

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
        MarkovModel {
            initial: [0.295, 0.205, 0.205, 0.295],
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
        let bases = MarkovModel::genome_like().generate(200_000, &mut rng).to_bases();
        let n = bases.len() as f64;
        let freq = |b: Base| bases.iter().filter(|&&x| x == b).count() as f64 / n;
        let cpg = bases.windows(2).filter(|w| *w == [Base::C, Base::G]).count() as f64;
        let obs_exp = cpg / ((n - 1.0) * freq(Base::C) * freq(Base::G));
        assert!(obs_exp < 0.5, "CpG obs/exp {obs_exp} not depleted");
        let gc = freq(Base::C) + freq(Base::G);
        assert!((0.35..0.47).contains(&gc), "GC content {gc}");
    }
}
