//! All-vs-all pair planning with optional kNN sparsification.
//!
//! The joblist is the orchestrator's unit of truth: every unordered
//! genome pair `(a, b)` with `a < b`, in index order, each carrying its
//! sketch proximity and a `scheduled` flag. With `knn = None` every
//! pair is scheduled (classic all-vs-all). With `knn = Some(k)` a pair
//! is scheduled when *either* endpoint ranks the other among its `k`
//! nearest neighbours by shared sketch hashes — the symmetric union,
//! so the kNN graph never isolates a genome another genome considers
//! close. Ties rank by genome index, keeping the joblist a pure
//! function of the input genome list.

use super::mash::Sketch;

/// One unordered genome pair in the all-vs-all matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairPlan {
    /// Lower genome index (the pair's target side).
    pub a: usize,
    /// Higher genome index (the pair's query side).
    pub b: usize,
    /// False when kNN sparsification pruned the pair.
    pub scheduled: bool,
    /// Sketch hashes the two genomes share (higher = closer).
    pub shared: u64,
}

/// Builds the joblist over `sketches.len()` genomes. Pairs are emitted
/// in `(a, b)` lexicographic order — the canonical order every report
/// and resume walk uses.
pub fn build_joblist(sketches: &[Sketch], knn: Option<usize>) -> Vec<PairPlan> {
    let n = sketches.len();
    let mut shared = vec![0u64; n * n];
    for a in 0..n {
        for b in (a + 1)..n {
            let s = sketches[a].shared_with(&sketches[b]);
            shared[a * n + b] = s;
            shared[b * n + a] = s;
        }
    }

    // Directed selection: keeps[a*n + b] == true when b is among a's k
    // nearest. A pair survives when either direction selects it.
    let mut keeps = vec![false; n * n];
    if let Some(k) = knn {
        for a in 0..n {
            let mut others: Vec<usize> = (0..n).filter(|&b| b != a).collect();
            others.sort_by_key(|&b| (std::cmp::Reverse(shared[a * n + b]), b));
            for &b in others.iter().take(k) {
                keeps[a * n + b] = true;
            }
        }
    }

    let mut plans = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            plans.push(PairPlan {
                a,
                b,
                scheduled: knn.is_none() || keeps[a * n + b] || keeps[b * n + a],
                shared: shared[a * n + b],
            });
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::assembly::Assembly;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sketches_two_clusters() -> Vec<Sketch> {
        // Genomes 0,1 descend from one ancestor; 2,3 from another.
        let mut rng = StdRng::seed_from_u64(21);
        let c1 = SyntheticPair::generate(8_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let c2 = SyntheticPair::generate(8_000, &EvolutionParams::at_distance(0.1), &mut rng);
        [
            c1.target.sequence.clone(),
            c1.query.sequence.clone(),
            c2.target.sequence.clone(),
            c2.query.sequence.clone(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, seq)| {
            let mut a = Assembly::new(format!("g{i}"));
            a.push("chr", seq);
            Sketch::of_assembly(&a)
        })
        .collect()
    }

    #[test]
    fn all_pairs_without_knn() {
        let sketches = sketches_two_clusters();
        let plans = build_joblist(&sketches, None);
        assert_eq!(plans.len(), 6);
        assert!(plans.iter().all(|p| p.scheduled));
        // Canonical (a, b) order.
        let order: Vec<(usize, usize)> = plans.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn knn_keeps_cluster_mates_drops_cross_cluster() {
        let sketches = sketches_two_clusters();
        let plans = build_joblist(&sketches, Some(1));
        let scheduled: Vec<(usize, usize)> = plans
            .iter()
            .filter(|p| p.scheduled)
            .map(|p| (p.a, p.b))
            .collect();
        assert!(
            scheduled.contains(&(0, 1)),
            "cluster A mates kept: {scheduled:?}"
        );
        assert!(
            scheduled.contains(&(2, 3)),
            "cluster B mates kept: {scheduled:?}"
        );
        assert!(
            !scheduled.contains(&(0, 2)) && !scheduled.contains(&(1, 3)),
            "cross-cluster pairs pruned: {scheduled:?}"
        );
    }

    #[test]
    fn knn_union_is_symmetric() {
        let sketches = sketches_two_clusters();
        // With k >= n-1 every pair is somebody's neighbour.
        let plans = build_joblist(&sketches, Some(3));
        assert!(plans.iter().all(|p| p.scheduled));
    }
}
