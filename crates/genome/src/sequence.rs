//! Owned DNA sequences and borrowed views.

use crate::alphabet::{Base, ParseBaseError};
use std::fmt;
use std::ops::{Index, Range};

/// An owned DNA sequence over the extended alphabet.
///
/// Internally one byte per base (the 3-bit hardware code, zero-extended).
/// Construction validates input, so a `Sequence` always contains valid
/// bases.
///
/// # Examples
///
/// ```
/// use genome::{Base, Sequence};
///
/// let seq: Sequence = "ACGTN".parse()?;
/// assert_eq!(seq.len(), 5);
/// assert_eq!(seq[0], Base::A);
/// assert_eq!(seq.reverse_complement().to_string(), "NACGT");
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence {
    bases: Vec<Base>,
}

impl Sequence {
    /// Creates an empty sequence.
    pub fn new() -> Sequence {
        Sequence { bases: Vec::new() }
    }

    /// Creates an empty sequence with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Sequence {
        Sequence {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Builds a sequence from raw bases.
    pub fn from_bases(bases: Vec<Base>) -> Sequence {
        Sequence { bases }
    }

    /// Parses ASCII bytes into a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] on the first byte that is not a letter
    /// (IUPAC ambiguity letters are accepted and map to `N`).
    pub fn from_ascii(bytes: &[u8]) -> Result<Sequence, ParseBaseError> {
        let mut bases = Vec::with_capacity(bytes.len());
        for &byte in bytes {
            bases.push(Base::try_from(byte)?);
        }
        Ok(Sequence { bases })
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// The bases as their hardware codes (`A=0..T=3, N=4`), one byte
    /// each: the same memory as [`Sequence::as_slice`], not a copy, so a
    /// kernel that works on codes reads a tile window of it directly.
    pub fn codes(&self) -> &[u8] {
        Base::codes_of(&self.bases)
    }

    /// Returns the base at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<Base> {
        self.bases.get(index).copied()
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Asks for room for `additional` more bases in one allocation. A
    /// hint: if the allocator cannot give it (a size taken from a file's
    /// length can be anything), the sequence simply grows as it is pushed.
    pub fn reserve_hint(&mut self, additional: usize) {
        let _ = self.bases.try_reserve_exact(additional);
    }

    /// Gives back the capacity growth left beyond the bases held.
    pub fn shrink_to_fit(&mut self) {
        self.bases.shrink_to_fit();
    }

    /// Borrowed view of `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> &[Base] {
        &self.bases[range]
    }

    /// An owned sub-sequence of `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subsequence(&self, range: Range<usize>) -> Sequence {
        Sequence {
            bases: self.bases[range].to_vec(),
        }
    }

    /// The reverse complement of this sequence.
    pub fn reverse_complement(&self) -> Sequence {
        Sequence {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Iterator over bases.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Base> + ExactSizeIterator + '_ {
        self.bases.iter().copied()
    }

    /// Fraction of bases that are `G` or `C` (ambiguous bases excluded from
    /// the denominator). Returns 0.0 for sequences with no unambiguous bases.
    // lint: allow(determinism): stats display only — never feeds canonical output; one IEEE-exact division
    pub fn gc_content(&self) -> f64 {
        let mut gc = 0usize;
        let mut total = 0usize;
        for &b in &self.bases {
            match b {
                Base::G | Base::C => {
                    gc += 1;
                    total += 1;
                }
                Base::A | Base::T => total += 1,
                Base::N => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            gc as f64 / total as f64
        }
    }

    /// Packs the sequence into 3-bit codes, little-end first, for
    /// byte-oriented storage (matches the BRAM encoding in §IV).
    ///
    /// Returns `(packed_bytes, len)`; unpack with [`Sequence::from_packed3`].
    pub fn to_packed3(&self) -> (Vec<u8>, usize) {
        let mut out = Vec::with_capacity((self.len() * 3).div_ceil(8));
        let mut acc: u32 = 0;
        let mut nbits = 0u32;
        for &b in &self.bases {
            acc |= (b.code() as u32) << nbits;
            nbits += 3;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xff) as u8);
        }
        (out, self.len())
    }

    /// Unpacks a sequence previously produced by [`Sequence::to_packed3`].
    pub fn from_packed3(packed: &[u8], len: usize) -> Sequence {
        let mut bases = Vec::with_capacity(len);
        let mut acc: u32 = 0;
        let mut nbits = 0u32;
        let mut iter = packed.iter();
        for _ in 0..len {
            while nbits < 3 {
                acc |= (*iter.next().unwrap_or(&0) as u32) << nbits;
                nbits += 8;
            }
            bases.push(Base::from_code((acc & 0b111) as u8));
            acc >>= 3;
            nbits -= 3;
        }
        Sequence { bases }
    }
}

impl Index<usize> for Sequence {
    type Output = Base;

    fn index(&self, index: usize) -> &Base {
        &self.bases[index]
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bases {
            write!(f, "{}", b)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Sequence {
    type Err = ParseBaseError;

    fn from_str(s: &str) -> Result<Sequence, ParseBaseError> {
        Sequence::from_ascii(s.as_bytes())
    }
}

impl FromIterator<Base> for Sequence {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Sequence {
        Sequence {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Base> for Sequence {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl AsRef<[Base]> for Sequence {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

impl From<Vec<Base>> for Sequence {
    fn from(bases: Vec<Base>) -> Sequence {
        Sequence { bases }
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = Base;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Base>>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.iter().copied()
    }
}

impl IntoIterator for Sequence {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s: Sequence = "ACGTNACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTNACGT");
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn parse_rejects_non_letters() {
        assert!("ACG-T".parse::<Sequence>().is_err());
    }

    #[test]
    fn reverse_complement_double_is_identity() {
        let s: Sequence = "ACGTTGCANNA".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn reverse_complement_simple() {
        let s: Sequence = "AACG".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "CGTT");
    }

    #[test]
    fn subsequence_and_slice_agree() {
        let s: Sequence = "ACGTACGT".parse().unwrap();
        assert_eq!(s.subsequence(2..6).as_slice(), s.slice(2..6));
        assert_eq!(s.subsequence(2..6).to_string(), "GTAC");
    }

    #[test]
    fn codes_are_the_bases_in_place() {
        let s: Sequence = "ACGTNNTGCA".parse().unwrap();
        let expected: Vec<u8> = s.iter().map(Base::code).collect();
        assert_eq!(s.codes(), expected);
        assert_eq!(s.codes().as_ptr(), s.as_slice().as_ptr().cast::<u8>());
        assert_eq!(&s.codes()[3..6], [3, 4, 4]);
        assert!(Sequence::new().codes().is_empty());
    }

    #[test]
    fn gc_content_ignores_n() {
        let s: Sequence = "GCGCNNNN".parse().unwrap();
        assert!((s.gc_content() - 1.0).abs() < 1e-12);
        let t: Sequence = "ATGCNN".parse().unwrap();
        assert!((t.gc_content() - 0.5).abs() < 1e-12);
        let all_n: Sequence = "NNN".parse().unwrap();
        assert_eq!(all_n.gc_content(), 0.0);
    }

    #[test]
    fn packed3_round_trip() {
        let s: Sequence = "ACGTNACGTTGCAACGTN".parse().unwrap();
        let (packed, len) = s.to_packed3();
        assert!(packed.len() <= (len * 3).div_ceil(8));
        assert_eq!(Sequence::from_packed3(&packed, len), s);
    }

    #[test]
    fn packed3_empty() {
        let s = Sequence::new();
        let (packed, len) = s.to_packed3();
        assert_eq!(len, 0);
        assert!(packed.is_empty());
        assert_eq!(Sequence::from_packed3(&packed, 0), s);
    }

    #[test]
    fn collect_from_iterator() {
        let s: Sequence = [Base::A, Base::C].into_iter().collect();
        assert_eq!(s.to_string(), "AC");
        let mut t = Sequence::new();
        t.extend([Base::G, Base::T]);
        assert_eq!(t.to_string(), "GT");
    }
}
