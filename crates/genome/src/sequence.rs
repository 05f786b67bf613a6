//! Owned DNA sequences, stored at the paper's three bits a base.

use crate::alphabet::{Base, ParseBaseError};
use std::fmt;
use std::ops::Range;

/// Bases in one word of the code plane.
const CODES_PER_WORD: usize = 32;
/// Bases in one word of the `N` plane.
const NS_PER_WORD: usize = 64;

/// The four bases a byte of the code plane holds, first base highest.
const UNPACK: [[Base; 4]; 256] = {
    let mut table = [[Base::A; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 4 {
            table[byte][k] = Base::DNA[(byte >> (6 - 2 * k)) & 0b11];
            k += 1;
        }
        byte += 1;
    }
    table
};

/// One plane of `BITS` a base built from the bases' codes, `field`
/// picking each base's bits out of eight codes read as a little-endian
/// word: eight bases a step, each step's fields [`gather`]ed into place,
/// a short last word of the plane moved up to the top.
fn pack<const BITS: u32>(codes: &[u8], field: impl Fn(u64) -> u64) -> Vec<u64> {
    let eight = |group: [u8; 8]| gather::<BITS>(field(u64::from_le_bytes(group)));
    let word = |bases: &[u8]| {
        let (groups, rest) = bases.as_chunks::<8>();
        let mut word = groups
            .iter()
            .fold(0, |word, &group| word << (8 * BITS) | eight(group));
        let mut filled = 8 * groups.len();
        if !rest.is_empty() {
            // Zero past the end, as the planes are.
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            word = word << (8 * BITS) | eight(last);
            filled += 8;
        }
        word << (64 - BITS as usize * filled)
    };
    codes.chunks(64 / BITS as usize).map(word).collect()
}

/// The `BITS`-bit fields at the bottom of each byte of `word` (one bit
/// or two; the rest of each byte zero), gathered into `8 · BITS` bits with
/// the first byte's field highest: byte `i`'s at bit `BITS · (7 − i)`.
/// Each step halves the count of fields, joining neighbours pairwise.
#[inline]
fn gather<const BITS: u32>(word: u64) -> u64 {
    // Last byte first, so the first byte's field ends up highest.
    let mut word = word.swap_bytes();
    // Fields `lane` bits apart and `width / 2` wide become fields twice
    // as far apart and `width` wide, each the upper of a pair shifted
    // down onto the lower: bits 8 apart, then 16, then 32.
    for (lane, every) in [
        (8, 0x0001_0001_0001_0001),
        (16, 0x0000_0001_0000_0001),
        (32, 1),
    ] {
        let width = BITS * lane / 4;
        word = (word | word >> (lane - width / 2)) & (every * ((1 << width) - 1));
    }
    word
}

/// The four letters a byte of the code plane holds, first base first.
const LETTERS: [[u8; 4]; 256] = {
    let mut table = [[0; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 4 {
            table[byte][k] = Base::DNA[(byte >> (6 - 2 * k)) & 0b11].to_ascii();
            k += 1;
        }
        byte += 1;
    }
    table
};

/// An owned DNA sequence over the extended alphabet.
///
/// Two bit planes and a length, 3/8 of a byte a base whatever the
/// bases are (§IV's 3-bit code, split): a 2-bit code per base, 32 to a
/// `u64`, and one `N` bit per base, 64 to a `u64`, each word filled from
/// its highest bits down so that consecutive bases read left to right.
/// The form is canonical — the code under an `N` is zero, and so is the
/// padding past the last base — so two sequences of equal bases are
/// equal, and hash alike, word for word. Construction validates input,
/// so a `Sequence` always contains valid bases.
///
/// Nothing borrows the bases as a slice: a kernel asks for the window it
/// is about to read ([`Sequence::window`]) and gets it unpacked into its
/// own scratch.
///
/// # Examples
///
/// ```
/// use genome::{Base, Sequence};
///
/// let seq: Sequence = "ACGTN".parse()?;
/// assert_eq!(seq.len(), 5);
/// assert_eq!(seq.get(0), Some(Base::A));
/// assert_eq!(seq.reverse_complement().to_string(), "NACGT");
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence {
    codes: Vec<u64>,
    ns: Vec<u64>,
    len: usize,
}

impl Sequence {
    /// Creates an empty sequence.
    pub fn new() -> Sequence {
        Sequence::default()
    }

    /// Creates an empty sequence with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Sequence {
        let mut sequence = Sequence::new();
        sequence.reserve_hint(capacity);
        sequence
    }

    /// Builds a sequence from raw bases.
    pub fn from_bases(bases: Vec<Base>) -> Sequence {
        Sequence::from_slice(&bases)
    }

    /// [`Sequence::from_bases`] of borrowed bases.
    pub(crate) fn from_slice(bases: &[Base]) -> Sequence {
        let codes = Base::codes_of(bases);
        Sequence {
            // A=0 … T=3 are their own 2-bit codes (and `N`'s is zero); N=4
            // is the bit above.
            codes: pack::<2>(codes, |word| word & 0x0303_0303_0303_0303),
            ns: pack::<1>(codes, |word| word >> 2 & 0x0101_0101_0101_0101),
            len: bases.len(),
        }
    }

    /// Parses ASCII bytes into a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] on the first byte that is not a letter
    /// (IUPAC ambiguity letters are accepted and map to `N`).
    pub fn from_ascii(bytes: &[u8]) -> Result<Sequence, ParseBaseError> {
        let mut sequence = Sequence::with_capacity(bytes.len());
        for &byte in bytes {
            sequence.push(Base::try_from(byte)?);
        }
        Ok(sequence)
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the base at `index`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Base> {
        (index < self.len).then(|| self.base(index))
    }

    /// The base at `index < len`.
    #[inline]
    fn base(&self, index: usize) -> Base {
        let code = self.codes[index / CODES_PER_WORD] >> (62 - 2 * (index % CODES_PER_WORD));
        let n = self.ns[index / NS_PER_WORD] >> (63 - index % NS_PER_WORD);
        Base::from_code((code & 0b11 | (n & 1) << 2) as u8)
    }

    /// Appends one base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let (at, code) = (self.len, u64::from(base.code()));
        if at % CODES_PER_WORD == 0 {
            self.codes.push(0);
        }
        if at % NS_PER_WORD == 0 {
            self.ns.push(0);
        }
        // A=0 … T=3 are their own 2-bit codes; N=4 is the bit above.
        self.codes[at / CODES_PER_WORD] |= (code & 0b11) << (62 - 2 * (at % CODES_PER_WORD));
        self.ns[at / NS_PER_WORD] |= (code >> 2) << (63 - at % NS_PER_WORD);
        self.len += 1;
    }

    /// Asks for room for `additional` more bases in one allocation a
    /// plane. A hint: if the allocator cannot give it (a size taken from
    /// a file's length can be anything), the sequence simply grows as it
    /// is pushed.
    pub fn reserve_hint(&mut self, additional: usize) {
        let total = self.len.saturating_add(additional);
        let _ = self
            .codes
            .try_reserve_exact(total.div_ceil(CODES_PER_WORD) - self.codes.len());
        let _ = self
            .ns
            .try_reserve_exact(total.div_ceil(NS_PER_WORD) - self.ns.len());
    }

    /// Gives back the capacity growth left beyond the bases held.
    pub fn shrink_to_fit(&mut self) {
        self.codes.shrink_to_fit();
        self.ns.shrink_to_fit();
    }

    /// The 32 bases from `pos` on as the planes hold them: their codes
    /// two bits each, the base at `pos` highest, and their `N` bits in the
    /// low half of the second word, the base at `pos` at bit 31. Zero
    /// past the end of the sequence.
    #[inline]
    pub fn packed(&self, pos: usize) -> (u64, u64) {
        // `word[at]` shifted up by `by < 64` bits, filled from `word[at + 1]`.
        let from = |plane: &[u64], at: usize, by: usize| {
            let word = |at: usize| plane.get(at).copied().unwrap_or(0);
            word(at) << by | word(at + 1) >> 1 >> (63 - by)
        };
        let codes = from(
            &self.codes,
            pos / CODES_PER_WORD,
            2 * (pos % CODES_PER_WORD),
        );
        let ns = from(&self.ns, pos / NS_PER_WORD, pos % NS_PER_WORD);
        (codes, ns >> 32)
    }

    /// Unpacks `range` into `out`, one byte a base, and returns it: the
    /// bases in order, or, `reversed`, last first (not complemented) — a
    /// tile window as a kernel walks it. `out` is the caller's scratch;
    /// it is overwritten and grows to the longest window asked of it.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn window<'a>(
        &self,
        range: Range<usize>,
        reversed: bool,
        out: &'a mut Vec<Base>,
    ) -> &'a [Base] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "window {range:?} of {} bases",
            self.len
        );
        out.resize(range.len(), Base::A);
        let mut chunk = [Base::A; CODES_PER_WORD];
        for (index, from) in range.clone().step_by(CODES_PER_WORD).enumerate() {
            let (codes, mut ns) = self.packed(from);
            // Four bases a lookup; the code under an `N` unpacked as `A`.
            for (quad, byte) in chunk.chunks_exact_mut(4).zip(codes.to_be_bytes()) {
                quad.copy_from_slice(&UNPACK[usize::from(byte)]);
            }
            while ns != 0 {
                chunk[31 - ns.trailing_zeros() as usize] = Base::N;
                ns &= ns - 1;
            }
            let count = (range.end - from).min(CODES_PER_WORD);
            let at = index * CODES_PER_WORD;
            if reversed {
                let to = range.len() - at;
                out[to - count..to].copy_from_slice(&chunk[..count]);
                out[to - count..to].reverse();
            } else {
                out[at..at + count].copy_from_slice(&chunk[..count]);
            }
        }
        out
    }

    /// The sequence's uppercase letters, 32 at a time (the last piece
    /// fewer): one code-plane word each, four letters a byte of it from a
    /// table, then its `N` bits, usually none, patched in. What a FASTA
    /// file is written from: no base is unpacked one by one.
    pub(crate) fn letters(&self) -> impl Iterator<Item = ([u8; CODES_PER_WORD], usize)> + '_ {
        self.codes.iter().enumerate().map(|(index, &codes)| {
            let mut letters = [0; CODES_PER_WORD];
            for (four, byte) in letters.chunks_exact_mut(4).zip(codes.to_be_bytes()) {
                four.copy_from_slice(&LETTERS[usize::from(byte)]);
            }
            // This word's 32 `N` bits, the first base's at bit 31.
            let mut ns = self.ns[index / 2] << (CODES_PER_WORD * (index % 2)) >> CODES_PER_WORD;
            while ns != 0 {
                letters[31 - ns.trailing_zeros() as usize] = Base::N.to_ascii();
                ns &= ns - 1;
            }
            let count = (self.len - index * CODES_PER_WORD).min(CODES_PER_WORD);
            (letters, count)
        })
    }

    /// Every base, one byte each.
    pub fn to_bases(&self) -> Vec<Base> {
        let mut bases = Vec::new();
        self.window(0..self.len, false, &mut bases);
        bases
    }

    /// An owned sub-sequence of `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subsequence(&self, range: Range<usize>) -> Sequence {
        assert!(
            range.end <= self.len,
            "subsequence {range:?} of {} bases",
            self.len
        );
        self.iter().skip(range.start).take(range.len()).collect()
    }

    /// The reverse complement of this sequence.
    pub fn reverse_complement(&self) -> Sequence {
        self.iter().rev().map(Base::complement).collect()
    }

    /// Iterator over bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            sequence: self,
            range: 0..self.len,
        }
    }
}

/// Iterator over a [`Sequence`]'s bases; see [`Sequence::iter`]. Skipping
/// (`nth`, and so `skip` and `take`, from either end) costs nothing.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    sequence: &'a Sequence,
    range: Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    #[inline]
    fn next(&mut self) -> Option<Base> {
        self.range.next().map(|index| self.sequence.base(index))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<Base> {
        self.range.nth(n).map(|index| self.sequence.base(index))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Base> {
        self.range
            .next_back()
            .map(|index| self.sequence.base(index))
    }

    #[inline]
    fn nth_back(&mut self, n: usize) -> Option<Base> {
        self.range
            .nth_back(n)
            .map(|index| self.sequence.base(index))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self {
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
        let mut sequence = Sequence::new();
        sequence.extend(iter);
        sequence
    }
}

impl Extend<Base> for Sequence {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve_hint(iter.size_hint().0);
        for base in iter {
            self.push(base);
        }
    }
}

impl From<Vec<Base>> for Sequence {
    fn from(bases: Vec<Base>) -> Sequence {
        Sequence::from_bases(bases)
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = Base;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
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
    fn subsequence_and_window_agree() {
        let s: Sequence = "ACGTACGT".parse().unwrap();
        let mut scratch = Vec::new();
        assert_eq!(
            s.subsequence(2..6).to_bases(),
            s.window(2..6, false, &mut scratch)
        );
        assert_eq!(s.subsequence(2..6).to_string(), "GTAC");
        assert_eq!(
            s.window(2..6, true, &mut scratch),
            [Base::C, Base::A, Base::T, Base::G]
        );
    }

    #[test]
    fn storage_is_three_eighths_of_a_byte_a_base_and_canonical() {
        let s: Sequence = "ACGTN".repeat(40).parse().unwrap();
        assert_eq!((s.codes.len(), s.ns.len()), (7, 4));
        // The code under an `N` and the padding past the end are zero:
        // the derived `Eq` and `Hash` then compare bases.
        assert_eq!(s.codes[0] >> 54, 0b00_01_10_11_00);
        assert_eq!(s.ns[0] >> 59, 0b00001);
        assert_eq!(s.codes[6] << 16, 0);
        assert_eq!(s.ns[3] << 8, 0);
        assert_eq!(s.packed(195), (0b00_01_10_11_00 << 54, 0b00001 << 27));
        assert_eq!(s.packed(200), (0, 0));
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
