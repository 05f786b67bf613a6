//! Full (unbanded) Needleman-Wunsch with affine gaps — the reference
//! global aligner.
//!
//! GACT-X scores tiles with Needleman-Wunsch rather than Smith-Waterman so
//! scores may go negative (§III-D); this module is the exact full-matrix
//! version used as an oracle for the tiled algorithms.

use crate::cigar::{AlignOp, Cigar};
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i32 = i32::MIN / 4;

/// Result of a global alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalResult {
    /// Score of the optimal global alignment.
    pub score: i64,
    /// The alignment operations covering both sequences entirely.
    pub cigar: Cigar,
    /// DP cells computed.
    pub cells: u64,
}

/// Needleman-Wunsch global alignment of the full `target` (columns) vs
/// `query` (rows) slices.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "ACGTACGT".parse()?;
/// let q: Sequence = "ACGACGT".parse()?;
/// let r = align::nw::needleman_wunsch(
///     &t.to_bases(),
///     &q.to_bases(),
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
/// );
/// assert_eq!(r.cigar.target_len(), 8);
/// assert_eq!(r.cigar.query_len(), 7);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn needleman_wunsch(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
) -> GlobalResult {
    let (n, m) = (target.len(), query.len());
    let cols = n + 1;
    let mut v = vec![NEG_INF; (m + 1) * cols];
    let mut e = vec![NEG_INF; (m + 1) * cols];
    let mut f = vec![NEG_INF; (m + 1) * cols];
    let mut ptr = vec![0u8; (m + 1) * cols]; // 0 stop, 1 diag, 2 E, 3 F
    let mut e_open = vec![false; (m + 1) * cols];
    let mut f_open = vec![false; (m + 1) * cols];

    v[0] = 0;
    for j in 1..=n {
        e[j] = -(gaps.open + gaps.extend * j as i32);
        v[j] = e[j];
        ptr[j] = 2;
        e_open[j] = j == 1;
    }
    for i in 1..=m {
        let idx = i * cols;
        f[idx] = -(gaps.open + gaps.extend * i as i32);
        v[idx] = f[idx];
        ptr[idx] = 3;
        f_open[idx] = i == 1;
    }

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
            let mut val = sub;
            let mut p = 1u8;
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
        }
    }

    // Traceback from (m, n) to (0, 0).
    let mut ops_rev: Vec<AlignOp> = Vec::new();
    let (mut i, mut j) = (m, n);
    let mut state = 0u8;
    while i > 0 || j > 0 {
        let idx = i * cols + j;
        match state {
            0 => match ptr[idx] {
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
                _ => unreachable!("hit stop pointer before origin"), // lint: allow(panics): every cell but the origin, where the walk stops, holds pointer 1, 2 or 3
            },
            2 => {
                ops_rev.push(AlignOp::Delete);
                let was_open = e_open[idx];
                j -= 1;
                if was_open {
                    state = 0;
                }
            }
            3 => {
                ops_rev.push(AlignOp::Insert);
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
    GlobalResult {
        score: v[m * cols + n] as i64,
        cigar,
        cells: (n as u64) * (m as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Sequence;

    fn run(t: &str, q: &str) -> GlobalResult {
        let t: Sequence = t.parse().unwrap();
        let q: Sequence = q.parse().unwrap();
        needleman_wunsch(
            &t.to_bases(),
            &q.to_bases(),
            &SubstitutionMatrix::darwin_wga(),
            &GapPenalties::darwin_wga(),
        )
    }

    #[test]
    fn identical_sequences() {
        let r = run("ACGT", "ACGT");
        assert_eq!(r.cigar.to_string(), "4=");
        assert_eq!(r.score, 91 + 100 + 100 + 91);
    }

    #[test]
    fn single_deletion() {
        let r = run("ACGTA", "ACTA");
        assert_eq!(r.cigar.target_len(), 5);
        assert_eq!(r.cigar.query_len(), 4);
        assert_eq!(r.cigar.count(AlignOp::Delete), 1);
    }

    #[test]
    fn empty_query_is_all_deletions() {
        let r = run("ACGT", "");
        assert_eq!(r.cigar.to_string(), "4D");
        assert_eq!(r.score, -(430 + 30 * 4) as i64);
    }

    #[test]
    fn empty_target_is_all_insertions() {
        let r = run("", "ACGT");
        assert_eq!(r.cigar.to_string(), "4I");
        assert_eq!(r.score, -(430 + 30 * 4) as i64);
    }

    #[test]
    fn both_empty() {
        let r = run("", "");
        assert!(r.cigar.is_empty());
        assert_eq!(r.score, 0);
    }

    #[test]
    fn score_equals_rescore() {
        let t: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCT".parse().unwrap();
        let q: Sequence = "ACGGTCATTCGATTAGCAGTCAGCTTAGCT".parse().unwrap();
        let w = SubstitutionMatrix::darwin_wga();
        let g = GapPenalties::darwin_wga();
        let r = needleman_wunsch(&t.to_bases(), &q.to_bases(), &w, &g);
        let a = crate::alignment::Alignment::new(0, 0, r.cigar.clone(), r.score);
        a.validate(&t, &q).unwrap();
        assert_eq!(r.score, a.rescore(&t, &q, &w, &g));
    }

    #[test]
    fn prefers_one_long_gap_over_two_short() {
        // Affine penalties should merge gaps when possible.
        let r = run("AAAACCCCAAAA", "AAAAAAAA");
        assert_eq!(r.cigar.to_string(), "4=4D4=");
    }
}
