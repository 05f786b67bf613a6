//! Spaced seed patterns (§III-B, Fig. 5).
//!
//! A spaced seed samples a window of the genome at its `1` positions; two
//! windows produce a "seed hit" when all sampled bases agree. The default
//! pattern in both LASTZ and Darwin-WGA is the 12-of-19 seed. Optionally a
//! single *transition* substitution (`A↔G`, `C↔T`) is tolerated at any one
//! match position, which multiplies the number of seed words looked up per
//! position by `(m + 1)` — the computation/sensitivity trade-off the paper
//! describes.

use genome::{Base, Sequence};
use std::fmt;
use std::str::FromStr;

/// A spaced seed pattern: a string over `{'1', '0'}` where `1` positions
/// are sampled and `0` positions are don't-cares.
///
/// # Examples
///
/// ```
/// use seed::pattern::SeedPattern;
///
/// let p = SeedPattern::lastz_default();
/// assert_eq!(p.span(), 19);
/// assert_eq!(p.weight(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeedPattern {
    /// Offsets of the `1` positions within the span.
    sampled: Vec<usize>,
    span: usize,
    /// How a word is gathered from [`Sequence::packed`]: one shift and
    /// mask per run of consecutive `1`s. Empty when the pattern is wider
    /// than the 32 bases that holds.
    runs: Vec<Run>,
    /// The packed window's `N` bits at the sampled offsets.
    n_mask: u64,
}

/// Widest pattern whose window [`Sequence::packed`] holds whole.
const PACKED_SPAN_MAX: usize = 32;

/// One run of consecutive `1`s of a pattern: where its bases lie in the
/// packed window and where in the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Run {
    /// How far right of its place in the window the run sits in the word.
    shift: u32,
    /// The run's bits in the word.
    mask: u64,
}

impl SeedPattern {
    /// The default 12-of-19 seed used by LASTZ and Darwin-WGA
    /// (`1110100110010101111`).
    pub fn lastz_default() -> SeedPattern {
        const BITS: &str = "1110100110010101111";
        let ones = BITS.bytes().enumerate().filter(|&(_, b)| b == b'1');
        SeedPattern::new(ones.map(|(i, _)| i).collect(), BITS.len())
    }

    /// The pattern sampling the ascending offsets `sampled` of `span` bases.
    fn new(sampled: Vec<usize>, span: usize) -> SeedPattern {
        let (mut runs, mut n_mask) = (Vec::<Run>::new(), 0);
        if span <= PACKED_SPAN_MAX {
            // The window's first base is its field 31, and the `k`-th
            // sampled offset from the end is field `k` of the word.
            for (field, &off) in sampled.iter().rev().enumerate() {
                n_mask |= 1 << (31 - off);
                let shift = 2 * (31 - off - field) as u32;
                let mask = 0b11 << (2 * field);
                match runs.last_mut() {
                    Some(run) if run.shift == shift => run.mask |= mask,
                    _ => runs.push(Run { shift, mask }),
                }
            }
        }
        SeedPattern {
            sampled,
            span,
            runs,
            n_mask,
        }
    }

    /// A contiguous k-mer seed (all positions sampled).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 31`.
    pub fn exact(k: usize) -> SeedPattern {
        assert!(k > 0 && k <= 31, "k must be in 1..=31");
        SeedPattern::new((0..k).collect(), k)
    }

    /// Window length the pattern covers.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Number of sampled (`1`) positions.
    pub fn weight(&self) -> usize {
        self.sampled.len()
    }

    /// Extracts the seed word from a window starting at `pos`.
    ///
    /// Returns `None` when the window overruns the sequence or any sampled
    /// base is `N` (ambiguous bases never seed).
    ///
    /// The window is read as the sequence stores it — 32 bases of 2-bit
    /// codes in one word, their `N` bits in another — and the word is
    /// gathered with one shift-and-mask per run of `1`s, six for the
    /// 12-of-19 seed. A pattern wider than 32 bases is read base by base.
    #[inline]
    pub fn extract(&self, seq: &Sequence, pos: usize) -> Option<u64> {
        if pos + self.span > seq.len() {
            return None;
        }
        if self.runs.is_empty() {
            return self.extract_wide(seq, pos);
        }
        let (codes, ns) = seq.packed(pos);
        self.gather(codes, ns)
    }

    /// The word of a packed window ([`Sequence::packed`]), `None` when it
    /// samples an `N`.
    #[inline]
    fn gather(&self, codes: u64, ns: u64) -> Option<u64> {
        let gather = |word, run: &Run| word | ((codes >> run.shift) & run.mask);
        (ns & self.n_mask == 0).then(|| self.runs.iter().fold(0, gather))
    }

    /// [`SeedPattern::extract`] for a pattern wider than a packed window.
    fn extract_wide(&self, seq: &Sequence, pos: usize) -> Option<u64> {
        self.sampled
            .iter()
            .try_fold(0u64, |word, &off| match seq.get(pos + off)? {
                Base::N => None,
                base => Some((word << 2) | u64::from(base.code())),
            })
    }

    /// The word of every window of `seq`, in position order: what
    /// [`SeedPattern::extract`] returns at 0, 1, 2, …, without the
    /// positions where it returns `None`.
    pub fn words<'a>(&'a self, seq: &'a Sequence) -> Words<'a> {
        let windows = (seq.len() + 1).saturating_sub(self.span);
        Words {
            pattern: self,
            seq,
            pos: 0,
            windows,
        }
    }

    /// `exact` with the base in its 2-bit field `field` (0 is the last
    /// sampled position, `weight() - 1` the first) replaced by its
    /// transition partner: one of the `weight()` one-transition variants
    /// of a word (Fig. 5b).
    ///
    /// The 2-bit codes put each base two away from its partner
    /// (`A=0 ↔ G=2`, `C=1 ↔ T=3`), so a variant is `exact` with the high
    /// bit of one base flipped.
    #[inline]
    pub fn transition_variant(exact: u64, field: usize) -> u64 {
        exact ^ (0b10 << (2 * field))
    }

    /// Number of distinct seed words a query position produces
    /// (`1` without transitions, `weight() + 1` with).
    pub fn words_per_position(&self, transitions: bool) -> usize {
        if transitions {
            self.weight() + 1
        } else {
            1
        }
    }
}

/// Iterator over `(position, word)` of every window of a sequence that
/// has a word; see [`SeedPattern::words`].
///
/// Taken a word at a time (`next`) it is [`SeedPattern::extract`] at
/// every position. Consumed whole (`fold`, and so `for_each`, as the
/// table build does) the packed window is rolled, not re-read: two
/// packed reads every 32 positions, between them one base a position
/// shifted from the second into the first — two bits into the codes, one
/// into the `N` bits, as the planes hold them.
#[derive(Debug, Clone)]
pub struct Words<'a> {
    pattern: &'a SeedPattern,
    seq: &'a Sequence,
    /// Start of the next window, and one past the last.
    pos: usize,
    windows: usize,
}

impl Words<'_> {
    /// Only the windows starting before `pos`.
    pub fn before(mut self, pos: usize) -> Self {
        self.windows = self.windows.min(pos);
        self
    }
}

impl Iterator for Words<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        while self.pos < self.windows {
            self.pos += 1;
            if let Some(word) = self.pattern.extract(self.seq, self.pos - 1) {
                return Some((self.pos - 1, word));
            }
        }
        None
    }

    #[inline]
    fn fold<B, F: FnMut(B, (usize, u64)) -> B>(mut self, mut acc: B, mut f: F) -> B {
        if self.pattern.runs.is_empty() {
            for item in self.by_ref() {
                acc = f(acc, item);
            }
            return acc;
        }
        for block in (self.pos..self.windows).step_by(32) {
            let ((mut codes, mut ns), (mut next_codes, mut next_ns)) =
                (self.seq.packed(block), self.seq.packed(block + 32));
            for pos in block..self.windows.min(block + 32) {
                if let Some(word) = self.pattern.gather(codes, ns) {
                    acc = f(acc, (pos, word));
                }
                // The `N` bits above bit 31 go stale; the mask has none there.
                (codes, ns) = (codes << 2 | next_codes >> 62, ns << 1 | (next_ns >> 31) & 1);
                (next_codes, next_ns) = (next_codes << 2, next_ns << 1);
            }
        }
        acc
    }
}

impl FromStr for SeedPattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<SeedPattern, ParsePatternError> {
        if s.is_empty() {
            return Err(ParsePatternError::Empty);
        }
        let mut sampled = Vec::new();
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '1' => sampled.push(i),
                '0' => {}
                other => return Err(ParsePatternError::BadChar(other)),
            }
        }
        if sampled.is_empty() {
            return Err(ParsePatternError::NoSampledPositions);
        }
        if sampled.len() > 31 {
            return Err(ParsePatternError::TooHeavy(sampled.len()));
        }
        if !s.starts_with('1') || !s.ends_with('1') {
            return Err(ParsePatternError::UntrimmedEnds);
        }
        Ok(SeedPattern::new(sampled, s.len()))
    }
}

impl fmt::Display for SeedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut chars = vec!['0'; self.span];
        for &off in &self.sampled {
            chars[off] = '1';
        }
        write!(f, "{}", chars.into_iter().collect::<String>())
    }
}

/// Error parsing a seed-pattern string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePatternError {
    /// Empty pattern string.
    Empty,
    /// Character other than `0`/`1`.
    BadChar(char),
    /// No `1` positions at all.
    NoSampledPositions,
    /// More than 31 sampled positions (word would overflow `u64`).
    TooHeavy(usize),
    /// Pattern must start and end with `1`.
    UntrimmedEnds,
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePatternError::Empty => write!(f, "empty seed pattern"),
            ParsePatternError::BadChar(c) => write!(f, "invalid pattern character {c:?}"),
            ParsePatternError::NoSampledPositions => write!(f, "pattern has no '1' positions"),
            ParsePatternError::TooHeavy(n) => write!(f, "pattern weight {n} exceeds 31"),
            ParsePatternError::UntrimmedEnds => {
                write!(f, "pattern must start and end with '1'")
            }
        }
    }
}

impl std::error::Error for ParsePatternError {}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Sequence;

    #[test]
    fn lastz_default_shape() {
        let p = SeedPattern::lastz_default();
        assert_eq!(p.span(), 19);
        assert_eq!(p.weight(), 12);
        assert_eq!(p.to_string(), "1110100110010101111");
    }

    #[test]
    fn parse_round_trip() {
        let p: SeedPattern = "1101".parse().unwrap();
        assert_eq!(p.to_string(), "1101");
        assert_eq!(p.sampled, [0, 1, 3]);
    }

    #[test]
    fn parse_errors() {
        assert_eq!("".parse::<SeedPattern>(), Err(ParsePatternError::Empty));
        assert_eq!(
            "1021".parse::<SeedPattern>(),
            Err(ParsePatternError::BadChar('2'))
        );
        assert_eq!(
            "0110".parse::<SeedPattern>(),
            Err(ParsePatternError::UntrimmedEnds)
        );
        assert_eq!(
            "0".parse::<SeedPattern>(),
            Err(ParsePatternError::NoSampledPositions)
        );
    }

    #[test]
    fn extract_ignores_dont_care_positions() {
        let p: SeedPattern = "101".parse().unwrap();
        let a: Sequence = "ACA".parse().unwrap();
        let b: Sequence = "ATA".parse().unwrap();
        assert_eq!(p.extract(&a, 0), p.extract(&b, 0));
        let c: Sequence = "TCA".parse().unwrap();
        assert_ne!(p.extract(&a, 0), p.extract(&c, 0));
    }

    #[test]
    fn extract_rejects_n_and_overruns() {
        let p = SeedPattern::exact(4);
        let s: Sequence = "ACGTNACGT".parse().unwrap();
        assert_eq!(p.extract(&s, 1), None); // contains N
        assert_eq!(p.extract(&s, 6), None); // overruns
        assert!(p.extract(&s, 0).is_some());
        assert!(p.extract(&s, 5).is_some());
    }

    #[test]
    fn words_gather_one_run_of_ones_at_a_time() {
        let runs = |pattern: &SeedPattern| pattern.runs.len();
        assert_eq!(runs(&SeedPattern::lastz_default()), 6);
        assert_eq!(runs(&SeedPattern::exact(31)), 1);
        assert_eq!(runs(&"10101".parse().unwrap()), 3);
        // Wider than a packed window: no runs, every word base by base.
        assert_eq!(runs(&format!("1{}1", "0".repeat(31)).parse().unwrap()), 0);
    }

    #[test]
    fn transition_variants_flip_each_sampled_base_to_its_partner() {
        let p = SeedPattern::lastz_default();
        let s: Sequence = "ACGTTGCAACGTACGTTGC".parse().unwrap();
        let exact = p.extract(&s, 0).unwrap();
        // The k-th sampled position is field `weight() - 1 - k`.
        for (k, &off) in p.sampled.iter().enumerate() {
            let mut mutated = s.to_bases();
            mutated[off] = mutated[off].transition_partner();
            let variant = SeedPattern::transition_variant(exact, p.weight() - 1 - k);
            assert_eq!(
                variant,
                p.extract(&mutated.into(), 0).unwrap(),
                "variant {k}"
            );
        }
    }

    #[test]
    fn words_per_position() {
        let p = SeedPattern::lastz_default();
        assert_eq!(p.words_per_position(false), 1);
        assert_eq!(p.words_per_position(true), 13);
    }
}
