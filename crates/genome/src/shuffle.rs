//! Dinucleotide-preserving sequence shuffling (Altschul–Erickson, 1985).
//!
//! The paper's noise analysis (§V-E) builds a "random" target genome by
//! shuffling the 2-mers of ce11 so 2-base statistics are preserved while
//! destroying any evolutionary signal, then treats every alignment found
//! against it as a false positive. [`shuffle_dinucleotides`] is the exact
//! counterpart of the `fasta-shuffle-letters` utility used there.

use crate::alphabet::Base;
use crate::sequence::Sequence;
use rand::seq::SliceRandom;
use rand::Rng;

/// Shuffles `seq` uniformly among sequences with identical dinucleotide
/// counts (and identical first and last base).
///
/// Runs of `N` split the sequence into independently shuffled segments; the
/// `N`s stay in place, mirroring how real genome shufflers treat assembly
/// gaps.
///
/// # Examples
///
/// ```
/// use genome::{shuffle::shuffle_dinucleotides, Sequence};
/// use rand::SeedableRng;
///
/// let s: Sequence = "ACGTACGTTGCATGCA".parse()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let shuffled = shuffle_dinucleotides(&s, &mut rng);
/// assert_eq!(shuffled.len(), s.len());
/// assert_eq!(shuffled.get(0), s.get(0));
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn shuffle_dinucleotides<R: Rng + ?Sized>(seq: &Sequence, rng: &mut R) -> Sequence {
    let mut out = Sequence::with_capacity(seq.len());
    let bases = &seq.to_bases()[..];
    let mut i = 0;
    while i < bases.len() {
        if bases[i] == Base::N {
            out.push(Base::N);
            i += 1;
            continue;
        }
        let start = i;
        while i < bases.len() && bases[i] != Base::N {
            i += 1;
        }
        shuffle_segment(&bases[start..i], rng, &mut out);
    }
    out
}

/// Altschul–Erickson shuffle of one unambiguous segment, appended to `out`.
fn shuffle_segment<R: Rng + ?Sized>(segment: &[Base], rng: &mut R, out: &mut Sequence) {
    if segment.len() <= 2 {
        out.extend(segment.iter().copied());
        return;
    }
    let first = segment[0].code2() as usize;
    let last = segment[segment.len() - 1].code2() as usize;

    // Multigraph: edges[v] = successors of base v, in original order.
    let mut edges: [Vec<usize>; 4] = Default::default();
    for w in segment.windows(2) {
        edges[w[0].code2() as usize].push(w[1].code2() as usize);
    }

    // Pick, for every vertex except `last` that has outgoing edges, a random
    // "final" edge such that the final edges form a tree oriented toward
    // `last`. With 4 vertices, rejection sampling converges immediately.
    let final_edge: [Option<usize>; 4] = loop {
        let mut candidate: [Option<usize>; 4] = [None; 4];
        for v in 0..4 {
            if v != last && !edges[v].is_empty() {
                candidate[v] = Some(edges[v][rng.gen_range(0..edges[v].len())]);
            }
        }
        if tree_reaches_last(&candidate, last, &edges) {
            break candidate;
        }
    };

    // Shuffle the remaining edges of each vertex and append the final edge.
    let mut ordered: [Vec<usize>; 4] = Default::default();
    for v in 0..4 {
        let mut rest = edges[v].clone();
        if let Some(fin) = final_edge[v] {
            // remove one instance of the chosen final edge
            if let Some(pos) = rest.iter().position(|&e| e == fin) {
                rest.swap_remove(pos);
            }
        }
        rest.shuffle(rng);
        if let Some(fin) = final_edge[v] {
            rest.push(fin);
        }
        ordered[v] = rest;
    }

    // Walk the Eulerian path from `first`.
    let mut next_idx = [0usize; 4];
    let mut v = first;
    out.push(Base::from_code(first as u8));
    loop {
        let idx = next_idx[v];
        if idx >= ordered[v].len() {
            break;
        }
        next_idx[v] += 1;
        v = ordered[v][idx];
        out.push(Base::from_code(v as u8));
    }
}

/// Checks that following the candidate final edges from every vertex with
/// outgoing edges reaches `last` (i.e. they form a spanning tree toward it).
fn tree_reaches_last(candidate: &[Option<usize>; 4], last: usize, edges: &[Vec<usize>; 4]) -> bool {
    for (v, out_edges) in edges.iter().enumerate() {
        if v == last || out_edges.is_empty() {
            continue;
        }
        let mut cur = v;
        let mut steps = 0;
        while cur != last {
            match candidate[cur] {
                Some(next) => cur = next,
                None => return false,
            }
            steps += 1;
            if steps > 4 {
                return false; // cycle
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adjacent pairs without an `N`, sorted: equal exactly when the
    /// dinucleotide counts are.
    fn dinucleotides(s: &Sequence) -> Vec<[Base; 2]> {
        let bases = s.to_bases();
        let mut pairs: Vec<[Base; 2]> = bases
            .windows(2)
            .filter(|w| !w.contains(&Base::N))
            .map(|w| [w[0], w[1]])
            .collect();
        pairs.sort();
        pairs
    }

    fn assert_preserves_dinucleotides(input: &str, seed: u64) {
        let s: Sequence = input.parse().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let shuffled = shuffle_dinucleotides(&s, &mut rng);
        assert_eq!(shuffled.len(), s.len());
        assert_eq!(
            dinucleotides(&s),
            dinucleotides(&shuffled),
            "dinucleotide counts changed for {input}"
        );
    }

    #[test]
    fn preserves_dinucleotide_counts() {
        assert_preserves_dinucleotides("ACGTACGTTGCATGCAACCGGTT", 1);
        assert_preserves_dinucleotides("AAAAAAACCCCCGGGGGTTTTT", 2);
        assert_preserves_dinucleotides("ACACACACACACAC", 3);
        assert_preserves_dinucleotides("GATTACAGATTACAGATTACA", 4);
    }

    #[test]
    fn preserves_endpoints() {
        let s: Sequence = "CAGTGACCTGATCGATCGTAG".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let shuffled = shuffle_dinucleotides(&s, &mut rng);
        assert_eq!(shuffled.get(0), s.get(0));
        assert_eq!(shuffled.iter().next_back(), s.iter().next_back());
    }

    #[test]
    fn n_runs_stay_in_place() {
        let s: Sequence = "ACGTACGTNNNNTGCATGCA".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let shuffled = shuffle_dinucleotides(&s, &mut rng);
        for i in 8..12 {
            assert_eq!(shuffled.get(i), Some(Base::N));
        }
        assert_eq!(dinucleotides(&s), dinucleotides(&shuffled));
    }

    #[test]
    fn short_sequences_unchanged() {
        for input in ["", "A", "AC"] {
            let s: Sequence = input.parse().unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            assert_eq!(shuffle_dinucleotides(&s, &mut rng), s);
        }
    }

    #[test]
    fn actually_shuffles_long_sequences() {
        // A long random-ish sequence should essentially never map to itself.
        let s: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGGATCGGATTACACCGTAGCTAGCATCG"
            .parse()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut changed = false;
        for _ in 0..5 {
            if shuffle_dinucleotides(&s, &mut rng) != s {
                changed = true;
            }
        }
        assert!(changed);
    }
}
