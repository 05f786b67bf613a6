//! The BLOSUM62 substitution matrix (Henikoff & Henikoff 1992) —
//! the scoring scheme TBLASTX uses in amino-acid space.

use crate::amino::AminoAcid;

/// Amino-acid substitution scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteinMatrix {
    scores: Vec<i32>, // COUNT × COUNT, row-major
}

/// Score for any pairing involving a stop codon.
const STOP_SCORE: i32 = -8;
/// Score for any pairing involving an unknown residue.
const X_SCORE: i32 = -1;

impl ProteinMatrix {
    /// The standard BLOSUM62 matrix, extended with stop (−8 against
    /// everything) and X (−1 against everything) rows.
    pub fn blosum62() -> ProteinMatrix {
        use AminoAcid::*;
        // Upper-triangular listing in the order
        // A R N D C Q E G H I L K M F P S T W Y V (as in the NCBI matrix).
        const ORDER: [AminoAcid; 20] = [
            A, R, N, D, C, Q, E, G, H, I, L, K, M, F, P, S, T, W, Y, V,
        ];
        #[rustfmt::skip]
        const UPPER: [[i32; 20]; 20] = [
            /*A*/ [4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0],
            /*R*/ [0, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3],
            /*N*/ [0, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3],
            /*D*/ [0, 0, 0, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3],
            /*C*/ [0, 0, 0, 0, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1],
            /*Q*/ [0, 0, 0, 0, 0, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2],
            /*E*/ [0, 0, 0, 0, 0, 0, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2],
            /*G*/ [0, 0, 0, 0, 0, 0, 0, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3],
            /*H*/ [0, 0, 0, 0, 0, 0, 0, 0, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3],
            /*I*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3],
            /*L*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1],
            /*K*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5,-1,-3,-1, 0,-1,-3,-2,-2],
            /*M*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0,-2,-1,-1,-1,-1, 1],
            /*F*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6,-4,-2,-2, 1, 3,-1],
            /*P*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7,-1,-1,-4,-3,-2],
            /*S*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1,-3,-2,-2],
            /*T*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5,-2,-2, 0],
            /*W*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,11, 2,-3],
            /*Y*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7,-1],
            /*V*/ [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        ];
        let mut scores = vec![0i32; AminoAcid::COUNT * AminoAcid::COUNT];
        for i in 0..AminoAcid::COUNT {
            for j in 0..AminoAcid::COUNT {
                scores[i * AminoAcid::COUNT + j] = X_SCORE;
            }
        }
        for i in 0..20 {
            for j in 0..20 {
                let v = if i <= j { UPPER[i][j] } else { UPPER[j][i] };
                let (a, b) = (ORDER[i].index(), ORDER[j].index());
                scores[a * AminoAcid::COUNT + b] = v;
            }
        }
        let stop = AminoAcid::Stop.index();
        for k in 0..AminoAcid::COUNT {
            scores[stop * AminoAcid::COUNT + k] = STOP_SCORE;
            scores[k * AminoAcid::COUNT + stop] = STOP_SCORE;
        }
        ProteinMatrix { scores }
    }

    /// The score of aligning `a` against `b`.
    #[inline]
    pub fn score(&self, a: AminoAcid, b: AminoAcid) -> i32 {
        self.scores[a.index() * AminoAcid::COUNT + b.index()]
    }
}

impl Default for ProteinMatrix {
    fn default() -> Self {
        ProteinMatrix::blosum62()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AminoAcid::*;

    #[test]
    fn spot_check_blosum62() {
        let m = ProteinMatrix::blosum62();
        assert_eq!(m.score(A, A), 4);
        assert_eq!(m.score(W, W), 11);
        assert_eq!(m.score(C, C), 9);
        assert_eq!(m.score(A, R), -1);
        assert_eq!(m.score(I, V), 3);
        assert_eq!(m.score(W, Y), 2);
        assert_eq!(m.score(G, I), -4);
        assert_eq!(m.score(E, Q), 2);
    }

    #[test]
    fn matrix_is_symmetric() {
        let m = ProteinMatrix::blosum62();
        let all = [
            A, R, N, D, C, Q, E, G, H, I, L, K, M, F, P, S, T, W, Y, V, Stop, X,
        ];
        for &a in &all {
            for &b in &all {
                assert_eq!(m.score(a, b), m.score(b, a), "{a}/{b}");
            }
        }
    }

    #[test]
    fn stop_and_x_are_penalised() {
        let m = ProteinMatrix::blosum62();
        assert_eq!(m.score(Stop, A), -8);
        assert_eq!(m.score(Stop, Stop), -8);
        assert_eq!(m.score(X, A), -1);
        assert_eq!(m.score(X, X), -1);
    }

    #[test]
    fn diagonal_dominates_rows() {
        // Every residue's self-score is its row maximum.
        let m = ProteinMatrix::blosum62();
        let all = [
            A, R, N, D, C, Q, E, G, H, I, L, K, M, F, P, S, T, W, Y, V,
        ];
        for &a in &all {
            for &b in &all {
                assert!(m.score(a, a) >= m.score(a, b));
            }
        }
    }
}
