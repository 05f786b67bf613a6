//! Alignment scoring: substitution matrices and affine gap penalties.
//!
//! The constructors reproduce the paper's Table IIa exactly (the LASTZ
//! default scoring set): the HOXD70-derived substitution matrix with
//! `gap open = 430`, `gap extend = 30` (penalties stored positive and
//! subtracted by the DP recurrences, matching equations 1–3 of §IV).

use crate::alphabet::Base;

/// A 5×5 substitution score matrix over `{A, C, G, T, N}`.
///
/// Scores involving `N` default to a strongly negative value so ambiguous
/// bases never seed or extend matches.
///
/// # Examples
///
/// ```
/// use genome::{Base, scoring::SubstitutionMatrix};
///
/// let w = SubstitutionMatrix::darwin_wga();
/// assert_eq!(w.score(Base::A, Base::A), 91);
/// assert_eq!(w.score(Base::A, Base::G), -25); // transitions are cheap
/// assert_eq!(w.score(Base::A, Base::T), -100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstitutionMatrix {
    scores: [[i32; 5]; 5],
}

impl SubstitutionMatrix {
    /// Score assigned to any pair involving `N`.
    pub const N_SCORE: i32 = -1000;

    /// The Darwin-WGA / LASTZ default matrix (paper Table IIa).
    pub fn darwin_wga() -> SubstitutionMatrix {
        let table: [[i32; 4]; 4] = [
            //        A     C     G     T
            /* A */ [91, -90, -25, -100],
            /* C */ [-90, 100, -100, -25],
            /* G */ [-25, -100, 100, -90],
            /* T */ [-100, -25, -90, 91],
        ];
        SubstitutionMatrix::from_table(table)
    }

    /// Builds from an explicit 4×4 table (row = first base, column = second,
    /// in `A C G T` order); `N` rows/columns get [`Self::N_SCORE`].
    pub fn from_table(table: [[i32; 4]; 4]) -> SubstitutionMatrix {
        let mut scores = [[Self::N_SCORE; 5]; 5];
        for i in 0..4 {
            scores[i][..4].copy_from_slice(&table[i]);
        }
        SubstitutionMatrix { scores }
    }

    /// The score of aligning `a` against `b`.
    #[inline]
    pub fn score(&self, a: Base, b: Base) -> i32 {
        self.scores[a.code() as usize][b.code() as usize]
    }

    /// The largest score in the matrix (the best match).
    pub fn max_score(&self) -> i32 {
        let mut best = i32::MIN;
        for i in 0..4 {
            for j in 0..4 {
                best = best.max(self.scores[i][j]);
            }
        }
        best
    }
}

impl Default for SubstitutionMatrix {
    fn default() -> Self {
        SubstitutionMatrix::darwin_wga()
    }
}

/// Affine gap penalties, stored as positive magnitudes.
///
/// Opening a gap of length `L` costs `open + L * extend` in total (the
/// "open" charge applies to the first gapped base in addition to its
/// extension charge, matching LASTZ and equations 1–2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// Gap-open penalty (positive).
    pub open: i32,
    /// Per-base gap-extension penalty (positive).
    pub extend: i32,
}

impl GapPenalties {
    /// The Darwin-WGA / LASTZ defaults (Table IIa): open 430, extend 30.
    pub fn darwin_wga() -> GapPenalties {
        GapPenalties {
            open: 430,
            extend: 30,
        }
    }

    /// Creates penalties from positive magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative.
    pub fn new(open: i32, extend: i32) -> GapPenalties {
        assert!(open >= 0 && extend >= 0, "gap penalties must be positive");
        GapPenalties { open, extend }
    }

    /// Total cost of a gap of `len` bases.
    pub fn cost(&self, len: usize) -> i64 {
        if len == 0 {
            0
        } else {
            self.open as i64 + self.extend as i64 * len as i64
        }
    }
}

impl Default for GapPenalties {
    fn default() -> Self {
        GapPenalties::darwin_wga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darwin_wga_matrix_matches_table_2a() {
        let w = SubstitutionMatrix::darwin_wga();
        assert_eq!(w.score(Base::A, Base::A), 91);
        assert_eq!(w.score(Base::C, Base::C), 100);
        assert_eq!(w.score(Base::G, Base::G), 100);
        assert_eq!(w.score(Base::T, Base::T), 91);
        assert_eq!(w.score(Base::A, Base::C), -90);
        assert_eq!(w.score(Base::C, Base::A), -90);
        assert_eq!(w.score(Base::A, Base::G), -25);
        assert_eq!(w.score(Base::G, Base::T), -90);
        assert_eq!(w.score(Base::C, Base::G), -100);
        assert_eq!(w.score(Base::T, Base::A), -100);
        assert_eq!(w.max_score(), 100);
    }

    #[test]
    fn matrix_is_symmetric() {
        let w = SubstitutionMatrix::darwin_wga();
        for &a in &Base::DNA {
            for &b in &Base::DNA {
                assert_eq!(w.score(a, b), w.score(b, a));
            }
        }
    }

    #[test]
    fn transitions_score_higher_than_transversions() {
        let w = SubstitutionMatrix::darwin_wga();
        for &a in &Base::DNA {
            for &b in &Base::DNA {
                if a.is_transition(b) {
                    for &c in &Base::DNA {
                        if a.is_transversion(c) {
                            assert!(w.score(a, b) > w.score(a, c));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn n_never_scores_positively() {
        let w = SubstitutionMatrix::darwin_wga();
        for &b in &[Base::A, Base::C, Base::G, Base::T, Base::N] {
            assert_eq!(w.score(Base::N, b), SubstitutionMatrix::N_SCORE);
            assert_eq!(w.score(b, Base::N), SubstitutionMatrix::N_SCORE);
        }
    }

    #[test]
    fn gap_cost() {
        let g = GapPenalties::darwin_wga();
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(1), 460);
        assert_eq!(g.cost(10), 430 + 300);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn gap_penalties_validate() {
        GapPenalties::new(-1, 30);
    }
}
