//! Full (unbanded) Smith-Waterman with affine gaps — the reference local
//! aligner (Gotoh 1982).
//!
//! This is the "foundational algorithm in WGA" (§II) and serves as the
//! exact oracle against which the banded filter and GACT-X are property-
//! tested. Quadratic time and memory: use only on tile-sized inputs.

use crate::alignment::Alignment;
use crate::cigar::{AlignOp, Cigar};
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i32 = i32::MIN / 4;

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalResult {
    /// The best-scoring local alignment, if any cell scored above zero.
    pub alignment: Option<Alignment>,
    /// The maximum cell score (0 when no positive cell exists).
    pub best_score: i64,
    /// DP cells computed (workload accounting).
    pub cells: u64,
}

/// Smith-Waterman local alignment of `target` (columns) vs `query` (rows).
///
/// Returns the single best local alignment with coordinates relative to the
/// given slices.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "AAACGTACGTAAA".parse()?;
/// let q: Sequence = "CGTACGT".parse()?;
/// let r = align::sw::smith_waterman(
///     &t.to_bases(),
///     &q.to_bases(),
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
/// );
/// let a = r.alignment.unwrap();
/// assert_eq!(a.matches(), 7);
/// assert_eq!(a.target_start, 3);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn smith_waterman(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
) -> LocalResult {
    let (n, m) = (target.len(), query.len());
    if n == 0 || m == 0 {
        return LocalResult {
            alignment: None,
            best_score: 0,
            cells: 0,
        };
    }
    let cols = n + 1;
    // v/e/f matrices, row-major (m+1) x (n+1).
    let mut v = vec![0i32; (m + 1) * cols];
    let mut e = vec![NEG_INF; (m + 1) * cols]; // gap in target (insert)
    let mut f = vec![NEG_INF; (m + 1) * cols]; // gap in query (delete)

    // Pointers: 0 = stop, 1 = diag, 2 = from E (insert), 3 = from F (delete).
    let mut ptr = vec![0u8; (m + 1) * cols];
    let mut e_open = vec![false; (m + 1) * cols];
    let mut f_open = vec![false; (m + 1) * cols];

    let (mut best, mut best_i, mut best_j) = (0i32, 0usize, 0usize);
    for i in 1..=m {
        for j in 1..=n {
            let idx = i * cols + j;
            let up = (i - 1) * cols + j;
            let left = i * cols + (j - 1);
            let diag = (i - 1) * cols + (j - 1);

            let e_from_open = v[left] - gaps.open - gaps.extend;
            let e_from_ext = e[left] - gaps.extend;
            if e_from_open >= e_from_ext {
                e[idx] = e_from_open;
                e_open[idx] = true;
            } else {
                e[idx] = e_from_ext;
            }

            let f_from_open = v[up] - gaps.open - gaps.extend;
            let f_from_ext = f[up] - gaps.extend;
            if f_from_open >= f_from_ext {
                f[idx] = f_from_open;
                f_open[idx] = true;
            } else {
                f[idx] = f_from_ext;
            }

            let sub = v[diag] + w.score(target[j - 1], query[i - 1]);
            let mut val = 0i32;
            let mut p = 0u8;
            if sub > val {
                val = sub;
                p = 1;
            }
            if e[idx] > val {
                val = e[idx];
                p = 2;
            }
            if f[idx] > val {
                val = f[idx];
                p = 3;
            }
            v[idx] = val;
            ptr[idx] = p;
            if val > best {
                best = val;
                best_i = i;
                best_j = j;
            }
        }
    }

    let cells = (n as u64) * (m as u64);
    if best <= 0 {
        return LocalResult {
            alignment: None,
            best_score: 0,
            cells,
        };
    }

    // Traceback from (best_i, best_j) to the first stop cell.
    let mut ops_rev: Vec<AlignOp> = Vec::new();
    let (mut i, mut j) = (best_i, best_j);
    // state: 0 = in V, 2 = in E, 3 = in F
    let mut state = 0u8;
    loop {
        let idx = i * cols + j;
        match state {
            0 => match ptr[idx] {
                0 => break,
                1 => {
                    let op = if target[j - 1] == query[i - 1] && target[j - 1] != Base::N {
                        AlignOp::Match
                    } else {
                        AlignOp::Subst
                    };
                    ops_rev.push(op);
                    i -= 1;
                    j -= 1;
                }
                2 => state = 2,
                3 => state = 3,
                _ => unreachable!(), // lint: allow(panics): the fill writes pointers 0 to 3 only
            },
            2 => {
                ops_rev.push(AlignOp::Delete); // consumes target (column)
                let was_open = e_open[idx];
                j -= 1;
                if was_open {
                    state = 0;
                }
            }
            3 => {
                ops_rev.push(AlignOp::Insert); // consumes query (row)
                let was_open = f_open[idx];
                i -= 1;
                if was_open {
                    state = 0;
                }
            }
            _ => unreachable!(), // lint: allow(panics): `state` is only ever set to 0, 2 or 3
        }
    }

    let mut cigar = Cigar::new();
    for op in ops_rev.into_iter().rev() {
        cigar.push(op, 1);
    }
    let alignment = Alignment::new(j, i, cigar, best as i64);
    debug_assert_eq!(alignment.target_end, best_j);
    debug_assert_eq!(alignment.query_end, best_i);
    LocalResult {
        alignment: Some(alignment),
        best_score: best as i64,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Sequence;

    fn run(t: &str, q: &str) -> LocalResult {
        let t: Sequence = t.parse().unwrap();
        let q: Sequence = q.parse().unwrap();
        smith_waterman(
            &t.to_bases(),
            &q.to_bases(),
            &SubstitutionMatrix::darwin_wga(),
            &GapPenalties::darwin_wga(),
        )
    }

    #[test]
    fn identical_sequences_align_fully() {
        let r = run("ACGTACGT", "ACGTACGT");
        let a = r.alignment.unwrap();
        assert_eq!(a.matches(), 8);
        assert_eq!(a.target_start, 0);
        assert_eq!(a.target_end, 8);
        assert_eq!(r.best_score, 91 + 100 + 100 + 91 + 91 + 100 + 100 + 91);
    }

    #[test]
    fn finds_embedded_match() {
        let r = run("TTTTTTACGTACGTTTTTTT", "CCCCACGTACGTCCCC");
        let a = r.alignment.unwrap();
        assert_eq!(a.matches(), 8);
        assert_eq!(a.target_start, 6);
        assert_eq!(a.query_start, 4);
    }

    #[test]
    fn alignment_with_gap() {
        // Query missing 2 bases in the middle; long match arms make the
        // gapped alignment beat the two separate arms.
        let t = "ACGTACGTACGTCCACGTACGTACGT";
        let q = "ACGTACGTACGTACGTACGTACGT";
        let r = run(t, q);
        let a = r.alignment.unwrap();
        assert_eq!(a.cigar.count(crate::cigar::AlignOp::Delete), 2);
        assert_eq!(a.matches(), 24);
        a.validate(&t.parse().unwrap(), &q.parse().unwrap())
            .unwrap();
    }

    #[test]
    fn no_alignment_between_unrelated() {
        let r = run("AAAAAAAA", "CCCCCCCC");
        // A vs C scores -90 everywhere; nothing positive.
        assert!(r.alignment.is_none());
        assert_eq!(r.best_score, 0);
    }

    #[test]
    fn empty_inputs() {
        let r = run("", "ACGT");
        assert!(r.alignment.is_none());
        assert_eq!(r.cells, 0);
    }

    #[test]
    fn score_equals_rescore() {
        let t: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGGATCG".parse().unwrap();
        let q: Sequence = "ACGGTCAGTTTCGATTGCAGTCTGCTAGCTAGG".parse().unwrap();
        let w = SubstitutionMatrix::darwin_wga();
        let g = GapPenalties::darwin_wga();
        let r = smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g);
        let a = r.alignment.unwrap();
        a.validate(&t, &q).unwrap();
        assert_eq!(a.score, a.rescore(&t, &q, &w, &g));
    }
}
