//! Mash-style bottom-k k-mer sketches for genome-distance estimation.
//!
//! A sketch is the [`SKETCH_SIZE`] smallest hashes over a genome's
//! canonical [`SKETCH_K`]-mers; the proximity of two genomes is the
//! number of hashes their sketches share. Everything is integer-only —
//! no Jaccard ratios, no float distances — because sketch proximity
//! feeds the joblist, and the joblist feeds the canonical many-genome
//! report, which must stay byte-identical everywhere. A shared-hash
//! *count* over deterministic sketches is exactly as rankable as a
//! float distance and never rounds differently across platforms.

use genome::assembly::Assembly;
use std::collections::BTreeSet;

/// Sketch k-mer length. 16 bases fit one `u64` word at 2 bits/base
/// with room to spare and are specific enough that unrelated genomes
/// share almost nothing.
pub const SKETCH_K: usize = 16;

/// Bottom-k sketch size. 1024 hashes resolve genome distance well past
/// the kNN depths the orchestrator uses while costing ~8 KiB a genome.
pub const SKETCH_SIZE: usize = 1024;

/// A genome's bottom-k sketch: the smallest [`SKETCH_SIZE`] distinct
/// k-mer hashes, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    hashes: Vec<u64>,
}

/// SplitMix64 finalizer: a cheap, well-mixed, platform-independent
/// integer hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Sketch {
    /// Sketches every chromosome of an assembly. K-mers containing `N`
    /// are skipped; each k-mer is hashed in canonical orientation
    /// (minimum of forward and reverse-complement encodings) so a
    /// reverse-complemented genome sketches identically.
    pub fn of_assembly(assembly: &Assembly) -> Sketch {
        let mask = (1u64 << (2 * SKETCH_K)) - 1;
        let rc_shift = 2 * (SKETCH_K - 1);
        let mut bottom: BTreeSet<u64> = BTreeSet::new();
        for chrom in assembly.chromosomes() {
            let mut fwd = 0u64;
            let mut rev = 0u64;
            let mut valid = 0usize;
            for base in chrom.sequence.iter() {
                let code = u64::from(base.code());
                if code > 3 {
                    valid = 0;
                    continue;
                }
                fwd = ((fwd << 2) | code) & mask;
                rev = (rev >> 2) | ((3 - code) << rc_shift);
                valid += 1;
                if valid < SKETCH_K {
                    continue;
                }
                let hash = mix64(fwd.min(rev));
                if bottom.len() < SKETCH_SIZE {
                    bottom.insert(hash);
                } else if let Some(&max) = bottom.last() {
                    if hash < max && bottom.insert(hash) {
                        bottom.pop_last();
                    }
                }
            }
        }
        Sketch {
            hashes: bottom.into_iter().collect(),
        }
    }

    /// Number of hashes in the sketch (< [`SKETCH_SIZE`] only for tiny
    /// genomes).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the genome had no valid k-mer at all.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Number of hashes two sketches share — the integer proximity the
    /// kNN graph ranks by. Symmetric; higher means closer.
    pub fn shared_with(&self, other: &Sketch) -> u64 {
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0u64);
        while i < self.hashes.len() && j < other.hashes.len() {
            match self.hashes[i].cmp(&other.hashes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use genome::Sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assembly(name: &str, seq: Sequence) -> Assembly {
        let mut a = Assembly::new(name);
        a.push("chr", seq);
        a
    }

    #[test]
    fn sketch_is_deterministic_and_self_similar() {
        let mut rng = StdRng::seed_from_u64(3);
        let pair = SyntheticPair::generate(8_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let a = assembly("a", pair.target.sequence.clone());
        let s1 = Sketch::of_assembly(&a);
        let s2 = Sketch::of_assembly(&a);
        assert_eq!(s1, s2);
        assert_eq!(s1.shared_with(&s1), s1.len() as u64);
        assert!(!s1.is_empty());
    }

    #[test]
    fn related_genomes_share_more_than_unrelated() {
        let mut rng = StdRng::seed_from_u64(9);
        let near = SyntheticPair::generate(10_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let far = SyntheticPair::generate(10_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let a = Sketch::of_assembly(&assembly("a", near.target.sequence.clone()));
        let b = Sketch::of_assembly(&assembly("b", near.query.sequence.clone()));
        let c = Sketch::of_assembly(&assembly("c", far.target.sequence.clone()));
        assert!(
            a.shared_with(&b) > 4 * a.shared_with(&c),
            "siblings {} vs strangers {}",
            a.shared_with(&b),
            a.shared_with(&c)
        );
    }

    #[test]
    fn reverse_complement_sketches_identically() {
        let mut rng = StdRng::seed_from_u64(5);
        let pair = SyntheticPair::generate(6_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let fwd = assembly("f", pair.target.sequence.clone());
        let rev = assembly("r", pair.target.sequence.reverse_complement());
        assert_eq!(Sketch::of_assembly(&fwd), Sketch::of_assembly(&rev));
    }

    #[test]
    fn n_runs_are_skipped_not_hashed() {
        let clean: Sequence = "ACGTACGTACGTACGTACGT".repeat(4).parse().unwrap();
        let spiked: Sequence = format!("{}N{}", "ACGTACGTACGTACGTACGT".repeat(2), "ACGTACGTACGTACGTACGT".repeat(2))
            .parse()
            .unwrap();
        let s_clean = Sketch::of_assembly(&assembly("c", clean));
        let s_spiked = Sketch::of_assembly(&assembly("s", spiked));
        // Every spiked hash comes from an N-free window, so it must
        // also appear in the clean sketch.
        assert_eq!(
            s_spiked.shared_with(&s_clean),
            s_spiked.len() as u64,
            "N-window k-mers leaked into the sketch"
        );
    }
}
