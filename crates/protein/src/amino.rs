//! Amino acids and the standard genetic code.

use genome::{Base, Sequence};
use std::fmt;

/// The twenty proteinogenic amino acids, the stop signal, and the
/// unknown residue `X` (produced when a codon contains an `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum AminoAcid {
    A = 0,
    R = 1,
    N = 2,
    D = 3,
    C = 4,
    Q = 5,
    E = 6,
    G = 7,
    H = 8,
    I = 9,
    L = 10,
    K = 11,
    M = 12,
    F = 13,
    P = 14,
    S = 15,
    T = 16,
    W = 17,
    Y = 18,
    V = 19,
    /// Translation stop.
    Stop = 20,
    /// Unknown residue (ambiguous codon).
    X = 21,
}

impl AminoAcid {
    /// Number of distinct symbols (array-sizing constant).
    pub const COUNT: usize = 22;

    /// The residue's index (stable, used by scoring matrices).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// One-letter IUPAC code (`*` for stop).
    pub fn to_char(self) -> char {
        match self {
            AminoAcid::A => 'A',
            AminoAcid::R => 'R',
            AminoAcid::N => 'N',
            AminoAcid::D => 'D',
            AminoAcid::C => 'C',
            AminoAcid::Q => 'Q',
            AminoAcid::E => 'E',
            AminoAcid::G => 'G',
            AminoAcid::H => 'H',
            AminoAcid::I => 'I',
            AminoAcid::L => 'L',
            AminoAcid::K => 'K',
            AminoAcid::M => 'M',
            AminoAcid::F => 'F',
            AminoAcid::P => 'P',
            AminoAcid::S => 'S',
            AminoAcid::T => 'T',
            AminoAcid::W => 'W',
            AminoAcid::Y => 'Y',
            AminoAcid::V => 'V',
            AminoAcid::Stop => '*',
            AminoAcid::X => 'X',
        }
    }
}

impl fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Translates one codon under the standard genetic code.
///
/// Codons containing `N` translate to [`AminoAcid::X`].
pub fn translate_codon(c1: Base, c2: Base, c3: Base) -> AminoAcid {
    use AminoAcid::*;
    if c1 == Base::N || c2 == Base::N || c3 == Base::N {
        return X;
    }
    // Index by 2-bit codes in (c1, c2, c3) order: table ordered T, C, A, G
    // is traditional; we order A=0, C=1, G=2, T=3 per our base codes.
    const TABLE: [AminoAcid; 64] = {
        // Rows: c1 in A,C,G,T; within: c2 in A,C,G,T; within: c3 in A,C,G,T.
        [
            // c1 = A
            K, N, K, N, // AA?
            T, T, T, T, // AC?
            R, S, R, S, // AG?
            I, I, M, I, // AT?
            // c1 = C
            Q, H, Q, H, // CA?
            P, P, P, P, // CC?
            R, R, R, R, // CG?
            L, L, L, L, // CT?
            // c1 = G
            E, D, E, D, // GA?
            A, A, A, A, // GC?
            G, G, G, G, // GG?
            V, V, V, V, // GT?
            // c1 = T
            Stop, Y, Stop, Y, // TA?
            S, S, S, S, // TC?
            Stop, C, W, C, // TG?
            L, F, L, F, // TT?
        ]
    };
    let idx = (c1.code2() as usize) * 16 + (c2.code2() as usize) * 4 + (c3.code2() as usize);
    TABLE[idx]
}

/// A reading frame of a DNA sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Frame offset within the strand (0, 1 or 2).
    pub offset: u8,
    /// Whether the frame reads the reverse complement.
    pub reverse: bool,
}

impl Frame {
    /// All six reading frames.
    pub fn all() -> [Frame; 6] {
        [
            Frame { offset: 0, reverse: false },
            Frame { offset: 1, reverse: false },
            Frame { offset: 2, reverse: false },
            Frame { offset: 0, reverse: true },
            Frame { offset: 1, reverse: true },
            Frame { offset: 2, reverse: true },
        ]
    }

    /// The three forward frames.
    pub fn forward() -> [Frame; 3] {
        [
            Frame { offset: 0, reverse: false },
            Frame { offset: 1, reverse: false },
            Frame { offset: 2, reverse: false },
        ]
    }
}

/// A translated frame: the peptide plus the mapping back to DNA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedFrame {
    /// The frame translated.
    pub frame: Frame,
    /// The peptide (may contain stops — TBLASTX does not split at stops,
    /// it just scores through them heavily negatively).
    pub peptide: Vec<AminoAcid>,
    /// DNA length of the source (for coordinate mapping).
    pub dna_len: usize,
}

impl TranslatedFrame {
    /// DNA start coordinate (forward-strand) of peptide position `i`.
    pub fn dna_position(&self, peptide_pos: usize) -> usize {
        let codon_start = self.frame.offset as usize + 3 * peptide_pos;
        if self.frame.reverse {
            // Codon occupies [len - codon_start - 3, len - codon_start).
            self.dna_len - codon_start - 3
        } else {
            codon_start
        }
    }
}

/// Translates `seq` in the given frame.
pub fn translate(seq: &Sequence, frame: Frame) -> TranslatedFrame {
    let source = if frame.reverse { seq.reverse_complement().to_bases() } else { seq.to_bases() };
    let codons = source.get(frame.offset as usize..).unwrap_or_default().chunks_exact(3);
    let peptide = codons.map(|c| translate_codon(c[0], c[1], c[2])).collect();
    TranslatedFrame {
        frame,
        peptide,
        dna_len: seq.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Sequence {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_codons() {
        use AminoAcid::*;
        assert_eq!(translate_codon(Base::A, Base::T, Base::G), M); // start
        assert_eq!(translate_codon(Base::T, Base::A, Base::A), Stop);
        assert_eq!(translate_codon(Base::T, Base::A, Base::G), Stop);
        assert_eq!(translate_codon(Base::T, Base::G, Base::A), Stop);
        assert_eq!(translate_codon(Base::T, Base::G, Base::G), W);
        assert_eq!(translate_codon(Base::G, Base::C, Base::A), A);
        assert_eq!(translate_codon(Base::A, Base::A, Base::A), K);
        assert_eq!(translate_codon(Base::T, Base::T, Base::T), F);
        assert_eq!(translate_codon(Base::C, Base::G, Base::C), R);
    }

    #[test]
    fn n_translates_to_x() {
        assert_eq!(translate_codon(Base::A, Base::N, Base::G), AminoAcid::X);
    }

    #[test]
    fn translate_frames() {
        // ATG GCA TAA → M A *
        let s = seq("ATGGCATAA");
        let f0 = translate(&s, Frame { offset: 0, reverse: false });
        let text: String = f0.peptide.iter().map(|a| a.to_char()).collect();
        assert_eq!(text, "MA*");
        // Frame 1 drops the first base: TGG CAT AA → W H
        let f1 = translate(&s, Frame { offset: 1, reverse: false });
        let text: String = f1.peptide.iter().map(|a| a.to_char()).collect();
        assert_eq!(text, "WH");
    }

    #[test]
    fn reverse_frame_translates_reverse_complement() {
        // revcomp(ATGGCATAA) = TTATGCCAT → TTA TGC CAT = L C H
        let s = seq("ATGGCATAA");
        let fr = translate(&s, Frame { offset: 0, reverse: true });
        let text: String = fr.peptide.iter().map(|a| a.to_char()).collect();
        assert_eq!(text, "LCH");
    }

    #[test]
    fn dna_position_mapping_forward() {
        let s = seq("ATGGCATAA");
        let f1 = translate(&s, Frame { offset: 1, reverse: false });
        assert_eq!(f1.dna_position(0), 1);
        assert_eq!(f1.dna_position(1), 4);
    }

    #[test]
    fn dna_position_mapping_reverse() {
        let s = seq("ATGGCATAA"); // len 9
        let fr = translate(&s, Frame { offset: 0, reverse: true });
        // Peptide pos 0 reads revcomp[0..3] = forward [6..9).
        assert_eq!(fr.dna_position(0), 6);
        assert_eq!(fr.dna_position(2), 0);
    }

    #[test]
    fn every_codon_translates() {
        let mut counts = [0usize; AminoAcid::COUNT];
        for c1 in Base::DNA {
            for c2 in Base::DNA {
                for c3 in Base::DNA {
                    counts[translate_codon(c1, c2, c3).index()] += 1;
                }
            }
        }
        // 64 codons total; 3 stops; every standard amino acid represented.
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert_eq!(counts[AminoAcid::Stop.index()], 3);
        assert_eq!(counts[AminoAcid::X.index()], 0);
        for (aa, &n) in counts.iter().enumerate().take(20) {
            assert!(n > 0, "amino {aa} missing");
        }
        // Degeneracy sanity: Leucine and Arginine have six codons each.
        assert_eq!(counts[AminoAcid::L.index()], 6);
        assert_eq!(counts[AminoAcid::R.index()], 6);
        assert_eq!(counts[AminoAcid::M.index()], 1);
        assert_eq!(counts[AminoAcid::W.index()], 1);
    }
}
