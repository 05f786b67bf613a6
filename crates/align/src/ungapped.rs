//! X-drop ungapped extension — the LASTZ filtering stage Darwin-WGA
//! replaces.
//!
//! A seed hit is extended along its diagonal in both directions; extension
//! stops once the running score falls more than `xdrop` below the best
//! score seen (Zhang et al. 2000). No indels are permitted, which is why
//! this filter loses sensitivity on distant species (Fig. 2): the paper's
//! whole premise is that gap-free conserved blocks get shorter than the
//! 30-match threshold as lineages diverge.

use genome::{Base, Sequence, SubstitutionMatrix};

/// Result of ungapped X-drop extension of one seed hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UngappedOutcome {
    /// Best (maximal) ungapped segment score across the extension.
    pub score: i64,
    /// Target start of the best-scoring segment (inclusive).
    pub target_start: usize,
    /// Target end of the best-scoring segment (exclusive).
    pub target_end: usize,
    /// Query start of the best-scoring segment (inclusive).
    pub query_start: usize,
    /// Target coordinate of the maximum-score prefix end (the anchor
    /// passed to the extension stage on success).
    pub anchor_target: usize,
    /// Query coordinate of the anchor.
    pub anchor_query: usize,
    /// Diagonal cells evaluated (workload accounting).
    pub cells: u64,
}

/// Extends the seed hit starting at `(seed_t, seed_q)` of length
/// `seed_len` along its diagonal in both directions with X-drop
/// termination.
///
/// The returned segment is the maximal-scoring contiguous run covering the
/// seed. Passing a hit to the next stage when `score >= threshold` mirrors
/// LASTZ's `hsp` filter with its default score threshold of 3000.
///
/// # Panics
///
/// Panics if the seed lies outside either sequence.
///
/// # Examples
///
/// ```
/// use genome::{Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "TTTTACGTACGTACGTTTTT".parse()?;
/// let q: Sequence = "GGGGACGTACGTACGTGGGG".parse()?;
/// let out = align::ungapped::ungapped_extend(
///     &t, &q, 8, 8, 4,
///     &SubstitutionMatrix::darwin_wga(), 500,
/// );
/// assert_eq!(out.target_start, 4);
/// assert_eq!(out.target_end, 16);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn ungapped_extend(
    target: &Sequence,
    query: &Sequence,
    seed_t: usize,
    seed_q: usize,
    seed_len: usize,
    w: &SubstitutionMatrix,
    xdrop: i32,
) -> UngappedOutcome {
    assert!(
        seed_t + seed_len <= target.len() && seed_q + seed_len <= query.len(),
        "seed outside sequences"
    );
    let mut cells = seed_len as u64;
    let diagonal = |t: usize, q: usize| target.iter().skip(t).zip(query.iter().skip(q));

    // Score of the seed region itself.
    let seed_score: i64 = diagonal(seed_t, seed_q)
        .take(seed_len)
        .map(|(a, b)| w.score(a, b) as i64)
        .sum();
    // Right from the end of the seed, left from its start.
    let right = diagonal(seed_t + seed_len, seed_q + seed_len);
    let (right_best, right_best_len) = walk_diagonal(right, w, xdrop, &mut cells);
    let left = target.iter().take(seed_t).rev().zip(query.iter().take(seed_q).rev());
    let (left_best, left_best_len) = walk_diagonal(left, w, xdrop, &mut cells);

    let score = seed_score + left_best + right_best;
    let target_start = seed_t - left_best_len;
    let target_end = seed_t + seed_len + right_best_len;
    let query_start = seed_q - left_best_len;
    UngappedOutcome {
        score,
        target_start,
        target_end,
        query_start,
        // The anchor is the last position of the maximal-scoring segment —
        // the position LASTZ hands to its gapped extension stage.
        anchor_target: target_start + (target_end - target_start).saturating_sub(1),
        anchor_query: query_start + (target_end - target_start).saturating_sub(1),
        cells,
    }
}

/// Extends over `pairs`, the diagonal's bases in walking order, until
/// the running score falls more than `xdrop` below its best: that best
/// and how many pairs reach it.
fn walk_diagonal(
    pairs: impl Iterator<Item = (Base, Base)>,
    w: &SubstitutionMatrix,
    xdrop: i32,
    cells: &mut u64,
) -> (i64, usize) {
    let (mut run, mut best, mut best_len) = (0i64, 0i64, 0usize);
    for (len, (a, b)) in pairs.enumerate() {
        run += w.score(a, b) as i64;
        *cells += 1;
        if run > best {
            best = run;
            best_len = len + 1;
        }
        if run < best - xdrop as i64 {
            break;
        }
    }
    (best, best_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(t: &str, q: &str, st: usize, sq: usize, len: usize, xdrop: i32) -> UngappedOutcome {
        let t: Sequence = t.parse().unwrap();
        let q: Sequence = q.parse().unwrap();
        ungapped_extend(
            &t,
            &q,
            st,
            sq,
            len,
            &SubstitutionMatrix::darwin_wga(),
            xdrop,
        )
    }

    #[test]
    fn extends_across_perfect_match() {
        let out = run("ACGTACGTACGT", "ACGTACGTACGT", 4, 4, 4, 500);
        assert_eq!(out.target_start, 0);
        assert_eq!(out.target_end, 12);
        assert_eq!(out.score, 3 * (91 + 100 + 100 + 91));
    }

    #[test]
    fn stops_at_mismatch_wall() {
        let out = run("ACGTACGTCCCCCCCC", "ACGTACGTGGGGGGGG", 0, 0, 4, 150);
        assert_eq!(out.target_end, 8);
        assert_eq!(out.score, 2 * (91 + 100 + 100 + 91));
    }

    #[test]
    fn crosses_isolated_mismatch_when_xdrop_allows() {
        // One mismatch (A vs C, -90) inside a long match run.
        let t = "ACGTACGTAACGTACGT";
        let q = "ACGTACGTCACGTACGT";
        let lenient = run(t, q, 0, 0, 4, 500);
        assert_eq!(lenient.target_end, 17);
        let strict = run(t, q, 0, 0, 4, 50);
        assert_eq!(strict.target_end, 8);
        assert!(lenient.score > strict.score);
    }

    #[test]
    fn an_indel_breaks_ungapped_extension() {
        // Query has 1 inserted base at position 8: diagonals shift, the
        // right half no longer matches on this diagonal.
        let t = "ACGTACGTACGTACGTACGT";
        let q = "ACGTACGTTACGTACGTACG";
        let out = run(t, q, 0, 0, 4, 200);
        assert!(out.target_end <= 10, "extended through an indel");
    }

    #[test]
    fn boundary_seed_at_origin() {
        let out = run("ACGT", "ACGT", 0, 0, 4, 100);
        assert_eq!(out.target_start, 0);
        assert_eq!(out.target_end, 4);
    }

    #[test]
    #[should_panic(expected = "seed outside")]
    fn rejects_out_of_range_seed() {
        run("ACGT", "ACGT", 3, 3, 4, 100);
    }
}
