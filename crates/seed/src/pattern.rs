//! Spaced seed patterns (§III-B, Fig. 5).
//!
//! A spaced seed samples a window of the genome at its `1` positions; two
//! windows produce a "seed hit" when all sampled bases agree. The default
//! pattern in both LASTZ and Darwin-WGA is the 12-of-19 seed. Optionally a
//! single *transition* substitution (`A↔G`, `C↔T`) is tolerated at any one
//! match position, which multiplies the number of seed words looked up per
//! position by `(m + 1)` — the computation/sensitivity trade-off the paper
//! describes.

use genome::Base;
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
}

impl SeedPattern {
    /// The default 12-of-19 seed used by LASTZ and Darwin-WGA
    /// (`1110100110010101111`).
    pub fn lastz_default() -> SeedPattern {
        const BITS: &str = "1110100110010101111";
        SeedPattern {
            sampled: BITS
                .bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'1')
                .map(|(i, _)| i)
                .collect(),
            span: BITS.len(),
        }
    }

    /// A contiguous k-mer seed (all positions sampled).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 31`.
    pub fn exact(k: usize) -> SeedPattern {
        assert!(k > 0 && k <= 31, "k must be in 1..=31");
        SeedPattern {
            sampled: (0..k).collect(),
            span: k,
        }
    }

    /// Window length the pattern covers.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Number of sampled (`1`) positions.
    pub fn weight(&self) -> usize {
        self.sampled.len()
    }

    /// Offsets of the sampled positions.
    pub fn sampled_offsets(&self) -> &[usize] {
        &self.sampled
    }

    /// Extracts the seed word from a window starting at `pos`.
    ///
    /// Returns `None` when the window overruns the sequence or any sampled
    /// base is `N` (ambiguous bases never seed).
    #[inline]
    pub fn extract(&self, seq: &[Base], pos: usize) -> Option<u64> {
        if pos + self.span > seq.len() {
            return None;
        }
        let mut word = 0u64;
        for &off in &self.sampled {
            let b = seq[pos + off];
            if b == Base::N {
                return None;
            }
            word = (word << 2) | b.code2() as u64;
        }
        Some(word)
    }

    /// The word of every window of `seq`, in position order: what
    /// [`SeedPattern::extract`] returns at 0, 1, 2, …, without the
    /// positions where it returns `None`.
    pub fn words<'a>(&'a self, seq: &'a [Base]) -> Words<'a> {
        Words::new(self, seq)
    }

    /// Every one-transition variant of `exact` (Fig. 5b), without
    /// allocating: `weight()` words where one sampled base is replaced by
    /// its transition partner, first sampled position first.
    ///
    /// The 2-bit codes put each base two away from its partner
    /// (`A=0 ↔ G=2`, `C=1 ↔ T=3`), so a variant is `exact` with the high
    /// bit of one base flipped.
    #[inline]
    pub fn transition_variants(&self, exact: u64) -> impl Iterator<Item = u64> {
        // Sampled position k occupies bits [2*(m-1-k), 2*(m-1-k)+1].
        (0..self.weight())
            .rev()
            .map(move |field| SeedPattern::transition_variant(exact, field))
    }

    /// `exact` with the base in its 2-bit field `field` (0 is the last
    /// sampled position, `weight() - 1` the first) replaced by its
    /// transition partner: one word of
    /// [`SeedPattern::transition_variants`], for a caller that counts
    /// the fields down itself.
    #[inline]
    pub fn transition_variant(exact: u64, field: usize) -> u64 {
        exact ^ (0b10 << (2 * field))
    }

    /// Extracts the exact word plus every one-transition variant:
    /// the exact word first, then [`SeedPattern::transition_variants`].
    pub fn extract_with_transitions(&self, seq: &[Base], pos: usize) -> Vec<u64> {
        let Some(exact) = self.extract(seq, pos) else {
            return Vec::new();
        };
        std::iter::once(exact)
            .chain(self.transition_variants(exact))
            .collect()
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

/// Widest pattern whose window rolls through one `u64`, two bits a base.
const ROLLING_SPAN_MAX: usize = 32;

/// One run of consecutive `1`s of a pattern: where its bases lie in the
/// rolling window and where in the word.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// How far right of its place in the window the run sits in the word.
    shift: u32,
    /// The run's bits in the word.
    mask: u64,
}

/// Iterator over `(position, word)` of every window of a sequence that
/// has a word; see [`SeedPattern::words`].
///
/// The window is rolled, not re-read: the last 32 bases sit in a `u64`
/// two bits each (newest lowest) beside one `N` bit each, a base is
/// shifted into both per position, and the word is gathered with one
/// shift-and-mask per run of `1`s — six for the 12-of-19 seed, where
/// [`SeedPattern::extract`] loads twelve bases. A pattern wider than 32
/// bases does not fit the window and is read through `extract`, one
/// position at a time.
#[derive(Debug, Clone)]
pub struct Words<'a> {
    pattern: &'a SeedPattern,
    seq: &'a [Base],
    /// Start of the next window.
    pos: usize,
    /// Empty when the pattern is too wide to roll.
    runs: Vec<Run>,
    /// The window's `N` bits at the sampled offsets.
    n_mask: u64,
    codes: u64,
    ns: u64,
}

impl<'a> Words<'a> {
    fn new(pattern: &'a SeedPattern, seq: &'a [Base]) -> Words<'a> {
        let mut words = Words {
            pattern,
            seq,
            pos: 0,
            runs: Vec::new(),
            n_mask: 0,
            codes: 0,
            ns: 0,
        };
        if pattern.span > ROLLING_SPAN_MAX {
            return words;
        }
        // Sampled offset `off` is `span - 1 - off` bases behind the
        // window's newest, and the `k`-th sampled offset from the end is
        // field `k` of the word.
        for (field, &off) in pattern.sampled.iter().rev().enumerate() {
            let behind = pattern.span - 1 - off;
            words.n_mask |= 1 << behind;
            let shift = 2 * (behind - field) as u32;
            let mask = 0b11 << (2 * field);
            match words.runs.last_mut() {
                Some(run) if run.shift == shift => run.mask |= mask,
                _ => words.runs.push(Run { shift, mask }),
            }
        }
        for &base in seq.iter().take(pattern.span - 1) {
            words.push(base);
        }
        words
    }

    #[inline]
    fn push(&mut self, base: Base) {
        // A=0 … T=3 are their own 2-bit codes; N=4 is the bit above.
        let code = u64::from(base.code());
        self.codes = (self.codes << 2) | (code & 0b11);
        self.ns = (self.ns << 1) | (code >> 2);
    }
}

impl Iterator for Words<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        while let Some(&newest) = self.seq.get(self.pos + self.pattern.span - 1) {
            let pos = self.pos;
            self.pos += 1;
            if self.runs.is_empty() {
                if let Some(word) = self.pattern.extract(self.seq, pos) {
                    return Some((pos, word));
                }
                continue;
            }
            self.push(newest);
            if self.ns & self.n_mask == 0 {
                let codes = self.codes;
                let word = self.runs.iter().fold(0, |word, run| word | ((codes >> run.shift) & run.mask));
                return Some((pos, word));
            }
        }
        None
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
        Ok(SeedPattern {
            sampled,
            span: s.len(),
        })
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
        assert_eq!(p.sampled_offsets(), &[0, 1, 3]);
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
        assert_eq!(p.extract(a.as_slice(), 0), p.extract(b.as_slice(), 0));
        let c: Sequence = "TCA".parse().unwrap();
        assert_ne!(p.extract(a.as_slice(), 0), p.extract(c.as_slice(), 0));
    }

    #[test]
    fn extract_rejects_n_and_overruns() {
        let p = SeedPattern::exact(4);
        let s: Sequence = "ACGTNACGT".parse().unwrap();
        assert_eq!(p.extract(s.as_slice(), 1), None); // contains N
        assert_eq!(p.extract(s.as_slice(), 6), None); // overruns
        assert!(p.extract(s.as_slice(), 0).is_some());
        assert!(p.extract(s.as_slice(), 5).is_some());
    }

    /// Targets that stress the rolled window: random bases with an `N`
    /// first, last, and every 37th base (37 is coprime to every span
    /// here, so an `N` meets each offset of each pattern, sampled or
    /// not), a run of `N` longer than any span, and every length from
    /// empty through a few past the widest span.
    fn rolling_targets() -> Vec<Vec<Base>> {
        let mut state = 7u64;
        let mut random = |len: usize| -> Vec<Base> {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    Base::from_code((state >> 33) as u8 % 4)
                })
                .collect()
        };
        let mut sprinkled = random(400);
        for at in (0..sprinkled.len()).step_by(37).chain([sprinkled.len() - 1]) {
            sprinkled[at] = Base::N;
        }
        let mut gapped = random(150);
        gapped.splice(60..60, vec![Base::N; 45]);
        let mut targets = vec![sprinkled, gapped, vec![Base::N; 50]];
        targets.extend((0..=44).map(&mut random));
        targets
    }

    #[test]
    fn rolled_words_equal_extract_at_every_position() {
        // The last is 40 wide: past 32 bases the window does not roll.
        let wide = "1101000110000010011100101000011000100111";
        let patterns = [
            SeedPattern::lastz_default(),
            SeedPattern::exact(4),
            SeedPattern::exact(31),
            format!("1{}1", "0".repeat(30)).parse().unwrap(),
            format!("1{}1", "0".repeat(31)).parse().unwrap(),
            wide.parse().unwrap(),
        ];
        assert_eq!(patterns.iter().map(SeedPattern::span).collect::<Vec<_>>(), [19, 4, 31, 32, 33, 40]);
        for pattern in &patterns {
            let mut with_n = 0;
            for target in rolling_targets() {
                let expected: Vec<(usize, u64)> = (0..target.len() + 2)
                    .filter_map(|pos| Some((pos, pattern.extract(&target, pos)?)))
                    .collect();
                with_n += usize::from(expected.len() + pattern.span() <= target.len());
                let rolled: Vec<(usize, u64)> = pattern.words(&target).collect();
                assert_eq!(rolled, expected, "{pattern} over {} bases", target.len());
            }
            assert!(with_n >= 2, "{pattern}: an `N` must cost some target a window");
        }
    }

    #[test]
    fn words_gather_one_run_of_ones_at_a_time() {
        let runs = |pattern: &SeedPattern| Words::new(pattern, &[]).runs.len();
        assert_eq!(runs(&SeedPattern::lastz_default()), 6);
        assert_eq!(runs(&SeedPattern::exact(31)), 1);
        assert_eq!(runs(&"10101".parse().unwrap()), 3);
        // Too wide to roll: no runs, every word through `extract`.
        assert_eq!(runs(&format!("1{}1", "0".repeat(31)).parse().unwrap()), 0);
    }

    #[test]
    fn transition_variants_count_and_match() {
        let p = SeedPattern::exact(4);
        let s: Sequence = "ACGT".parse().unwrap();
        let words = p.extract_with_transitions(s.as_slice(), 0);
        assert_eq!(words.len(), 5);
        // The transition variant at position 0 equals the word of "GCGT".
        let g: Sequence = "GCGT".parse().unwrap();
        assert_eq!(words[1], p.extract(g.as_slice(), 0).unwrap());
        // The variant at position 3 equals the word of "ACGC".
        let c: Sequence = "ACGC".parse().unwrap();
        assert_eq!(words[4], p.extract(c.as_slice(), 0).unwrap());
        // All variants are distinct from the exact word.
        for v in &words[1..] {
            assert_ne!(*v, words[0]);
        }
    }

    #[test]
    fn transition_variants_flip_each_sampled_base_to_its_partner() {
        let p = SeedPattern::lastz_default();
        let s: Sequence = "ACGTTGCAACGTACGTTGC".parse().unwrap();
        let exact = p.extract(s.as_slice(), 0).unwrap();
        let variants: Vec<u64> = p.transition_variants(exact).collect();
        assert_eq!(variants.len(), p.weight());
        for (k, &off) in p.sampled_offsets().iter().enumerate() {
            let mut mutated = s.as_slice().to_vec();
            mutated[off] = mutated[off].transition_partner();
            assert_eq!(variants[k], p.extract(&mutated, 0).unwrap(), "variant {k}");
        }
    }

    #[test]
    fn words_per_position() {
        let p = SeedPattern::lastz_default();
        assert_eq!(p.words_per_position(false), 1);
        assert_eq!(p.words_per_position(true), 13);
    }
}
