//! The extended DNA alphabet `{A, C, G, T, N}` used throughout Darwin-WGA.
//!
//! The hardware stores bases using 3 bits (§IV of the paper), and so does
//! [`crate::Sequence`]: the low two bits of [`Base::code`] in one plane, the
//! `N` bit above them in another. A [`Base`] by itself — one base of a tile
//! window a kernel has had unpacked — is that code in a byte.

use std::fmt;

/// A single nucleotide of the extended DNA alphabet.
///
/// `N` denotes an ambiguous/unknown base; it never matches anything,
/// including another `N`.
///
/// # Examples
///
/// ```
/// use genome::Base;
///
/// let b = Base::from_ascii(b'a').unwrap();
/// assert_eq!(b, Base::A);
/// assert_eq!(b.complement(), Base::T);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
    /// Ambiguous base.
    N = 4,
}

impl Base {
    /// All four unambiguous bases, in code order.
    pub const DNA: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Parses an ASCII byte (case-insensitive). Any IUPAC ambiguity code
    /// other than `A`/`C`/`G`/`T` maps to `N`; bytes that are not letters
    /// return `None`.
    #[inline]
    pub fn from_ascii(byte: u8) -> Option<Base> {
        match byte.to_ascii_uppercase() {
            b'A' => Some(Base::A),
            b'C' => Some(Base::C),
            b'G' => Some(Base::G),
            b'T' => Some(Base::T),
            b'B'..=b'Z' => Some(Base::N),
            _ => None,
        }
    }

    /// The 3-bit hardware code of this base (`A=0, C=1, G=2, T=3, N=4`).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The [`Base::code`]s of `bases`, one byte each, without copying.
    #[inline]
    pub fn codes_of(bases: &[Base]) -> &[u8] {
        // A fieldless `#[repr(u8)]` enum is one initialised byte, its
        // discriminant — what `code()` returns — so the run has the size,
        // alignment and validity of `[u8]` of the same length.
        // SAFETY: layout as above; the cast goes only this way (any `Base`
        // is a valid `u8`, not the reverse) and the borrow is shared, so
        // nothing can write a non-`Base` byte through it.
        unsafe { std::slice::from_raw_parts(bases.as_ptr().cast::<u8>(), bases.len()) }
    }

    /// Reconstructs a base from a 3-bit hardware code.
    ///
    /// Codes `0..=3` map to `A/C/G/T`; everything else maps to `N`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b111 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => Base::N,
        }
    }

    /// The 2-bit code of an unambiguous base.
    ///
    /// # Panics
    ///
    /// Panics if the base is [`Base::N`]; use [`Base::code`] when ambiguous
    /// bases may be present.
    #[inline]
    pub fn code2(self) -> u8 {
        assert!(self != Base::N, "N has no 2-bit code");
        self as u8
    }

    /// The uppercase ASCII letter for this base.
    #[inline]
    pub const fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
            Base::N => b'N',
        }
    }

    /// The Watson–Crick complement (`N` complements to `N`).
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
            Base::N => Base::N,
        }
    }

    /// Whether `self → other` is a *transition* substitution
    /// (`A↔G` or `C↔T`, §III-B of the paper).
    ///
    /// Identical bases and pairs involving `N` are not transitions.
    #[inline]
    pub fn is_transition(self, other: Base) -> bool {
        matches!(
            (self, other),
            (Base::A, Base::G) | (Base::G, Base::A) | (Base::C, Base::T) | (Base::T, Base::C)
        )
    }

    /// Whether `self → other` is a *transversion* (any substitution that is
    /// not a transition; pairs involving `N` are not transversions).
    #[inline]
    pub fn is_transversion(self, other: Base) -> bool {
        self != other && self != Base::N && other != Base::N && !self.is_transition(other)
    }

    /// Whether this is a purine (`A` or `G`).
    #[inline]
    pub const fn is_purine(self) -> bool {
        matches!(self, Base::A | Base::G)
    }

    /// The transition partner of an unambiguous base (`A↔G`, `C↔T`);
    /// `N` maps to itself. A lookup by code, not a `match`, which a
    /// compiler may lower to a jump on the base.
    #[inline]
    pub fn transition_partner(self) -> Base {
        const PARTNER: [Base; 5] = [Base::G, Base::T, Base::A, Base::C, Base::N];
        PARTNER[self as usize]
    }
}

#[allow(clippy::derivable_impls)] // explicit: the default base is the *unknown* base
impl Default for Base {
    fn default() -> Self {
        Base::N
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

impl From<Base> for char {
    fn from(b: Base) -> char {
        b.to_ascii() as char
    }
}

impl TryFrom<u8> for Base {
    type Error = ParseBaseError;

    fn try_from(byte: u8) -> Result<Base, ParseBaseError> {
        Base::from_ascii(byte).ok_or(ParseBaseError { byte })
    }
}

/// Error returned when a byte cannot be interpreted as a DNA base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBaseError {
    byte: u8,
}

impl ParseBaseError {
    /// The offending byte.
    pub fn byte(&self) -> u8 {
        self.byte
    }
}

impl fmt::Display for ParseBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {:#04x} is not a DNA base", self.byte)
    }
}

impl std::error::Error for ParseBaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trip() {
        for &b in &[Base::A, Base::C, Base::G, Base::T, Base::N] {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn code_round_trip() {
        for &b in &[Base::A, Base::C, Base::G, Base::T, Base::N] {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn ambiguity_codes_map_to_n() {
        for byte in [b'R', b'Y', b'S', b'W', b'K', b'M', b'n'] {
            assert_eq!(Base::from_ascii(byte), Some(Base::N));
        }
        assert_eq!(Base::from_ascii(b'1'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
    }

    #[test]
    fn complement_is_involution() {
        for &b in &Base::DNA {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
        assert_eq!(Base::N.complement(), Base::N);
    }

    #[test]
    fn transition_classification() {
        assert!(Base::A.is_transition(Base::G));
        assert!(Base::T.is_transition(Base::C));
        assert!(!Base::A.is_transition(Base::A));
        assert!(!Base::A.is_transition(Base::C));
        assert!(!Base::N.is_transition(Base::A));
        assert!(Base::A.is_transversion(Base::C));
        assert!(Base::A.is_transversion(Base::T));
        assert!(!Base::A.is_transversion(Base::G));
        assert!(!Base::A.is_transversion(Base::A));
        assert!(!Base::N.is_transversion(Base::A));
    }

    #[test]
    fn purines_are_a_and_g() {
        let purines: Vec<_> = Base::DNA.iter().filter(|b| b.is_purine()).collect();
        assert_eq!(purines, [&Base::A, &Base::G]);
    }

    #[test]
    fn transition_partner_is_involution_and_a_transition() {
        for &b in &Base::DNA {
            let p = b.transition_partner();
            assert!(b.is_transition(p));
            assert_eq!(p.transition_partner(), b);
        }
    }

    #[test]
    fn parse_error_reports_byte() {
        let err = Base::try_from(b'-').unwrap_err();
        assert_eq!(err.byte(), b'-');
        assert!(err.to_string().contains("0x2d"));
    }

    #[test]
    fn two_bit_code_panics_on_n() {
        let result = std::panic::catch_unwind(|| Base::N.code2());
        assert!(result.is_err());
    }
}
