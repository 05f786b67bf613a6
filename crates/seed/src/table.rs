//! Seed table: a flat sorted index from seed words to target positions.
//!
//! Darwin's D-SOFT reads a *seed position table*: a pointer table indexed
//! by the seed word over one flat array of positions. This is that layout
//! for a word space too large to point into whole (4^12 words for the
//! default seed, 4^31 at the widest): the pointer table — the *directory*
//! — is indexed by the word's top bits, as many as the target has
//! positions for, and beside each position lies a *key*, the word's bits
//! below that prefix, in the narrowest integer that holds them. Entries
//! are sorted by (word, position), so inside a directory bucket the keys
//! ascend and a run of equal keys is one word's position list. The word
//! itself is stored nowhere: the bucket implies its top bits and the key
//! is the rest. When the directory covers the whole word there are no
//! keys, and what is left is the paper's two tables.

use crate::pattern::{SeedPattern, Words};
use genome::Sequence;

/// Longest target a table can index: positions and directory entries are
/// `u32`. Windows starting at or past it are not indexed; callers reject
/// such a target before building (the pipeline does, with a typed error).
pub const MAX_TARGET_LEN: usize = u32::MAX as usize;

/// The directory is indexed by a word's top bits: as many as leave about
/// one window per entry (`⌈log2 windows⌉`: it is sized before the words
/// are read, so a window an `N` spoils still counts), so a 2 k-position
/// chromosome pays 8 KiB for it and no target more entries than twice its
/// windows — but at least these, which keeps a lookup in a tiny table
/// from searching every entry…
const MIN_DIRECTORY_BITS: u32 = 8;
/// …and at most these: 2^16 + 1 `u32`s, 256 KiB, whatever the target. A
/// 100 Mbp target then searches a couple of thousand keys per lookup,
/// while a directory that kept following the target would, on the
/// 50–190 kbp ones, cost more than it saves (DESIGN.md, "Seed index").
const MAX_DIRECTORY_BITS: u32 = 16;

/// A bucket of at most this many entries is sorted by insertion; a
/// longer one is first split on its keys' bits. Either way where it lies.
const INSERTION_SORT_MAX: usize = 24;

/// An index of every seed word in the target genome.
///
/// Built once per target; query positions are then matched by word lookup.
/// Words whose position list exceeds `max_occurrences` are dropped as
/// repeats (the standard masking heuristic — ultra-frequent words come
/// from repetitive DNA and only produce noise).
///
/// # Examples
///
/// ```
/// use seed::{pattern::SeedPattern, table::SeedTable};
/// use genome::Sequence;
///
/// let target: Sequence = "ACGTACGTACGT".parse()?;
/// let pattern = SeedPattern::exact(8);
/// let table = SeedTable::build(&target, &pattern, usize::MAX);
/// let word = pattern.extract(&target, 0).unwrap();
/// assert_eq!(table.lookup(word), &[0, 4]);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeedTable {
    /// Every position whose word survived the repeat cap, sorted by
    /// (word, position).
    positions: Vec<u32>,
    /// Parallel to `positions`: each entry's word below `key_bits`.
    keys: Keys,
    /// Entries `directory[p]..directory[p + 1]` are those whose word's
    /// top bits (`word >> key_bits`) equal `p`.
    directory: Vec<u32>,
    key_bits: u32,
    pattern: SeedPattern,
    positions_indexed: u64,
    dropped_repeats: u64,
    distinct_words: usize,
    position_end: usize,
}

/// One key per kept position, in the narrowest type holding `key_bits`.
#[derive(Debug, Clone)]
pub(crate) enum Keys {
    /// No bits below the directory prefix: a bucket is one word.
    None(Vec<()>),
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// The low bits of a seed word, as stored beside a position.
pub(crate) trait Key: Copy + Ord + Default {
    /// `bits`, which the caller has masked to the table's `key_bits`.
    fn from_bits(bits: u64) -> Self;
    /// The bits [`Key::from_bits`] was given.
    fn bits(self) -> u64;
}

impl Key for () {
    fn from_bits(_: u64) {}
    fn bits(self) -> u64 {
        0
    }
}

macro_rules! impl_key {
    ($($int:ty),*) => {$(
        impl Key for $int {
            #[inline]
            fn from_bits(bits: u64) -> $int {
                bits as $int
            }
            #[inline]
            fn bits(self) -> u64 {
                u64::from(self)
            }
        }
    )*};
}
impl_key!(u8, u16, u32, u64);

/// Evaluates `$body` with `$keys` bound to the key vector inside, once
/// per key width: how a caller picks its monomorphic code before a loop
/// instead of inside it.
macro_rules! with_keys {
    ($table_keys:expr, $keys:ident => $body:expr) => {
        match $table_keys {
            $crate::table::Keys::None($keys) => $body,
            $crate::table::Keys::U8($keys) => $body,
            $crate::table::Keys::U16($keys) => $body,
            $crate::table::Keys::U32($keys) => $body,
            $crate::table::Keys::U64($keys) => $body,
        }
    };
}
pub(crate) use with_keys;

/// A table's arrays with the key width resolved.
pub(crate) struct Buckets<'a, K> {
    keys: &'a [K],
    positions: &'a [u32],
    directory: &'a [u32],
    key_bits: u32,
}

impl<'a, K: Key> Buckets<'a, K> {
    /// Target positions whose window hashes to `word`.
    #[inline]
    pub(crate) fn find(&self, word: u64) -> &'a [u32] {
        // A word wider than the pattern's 2·weight bits is in no table,
        // and its prefix would index past the directory.
        let bucket = usize::try_from(word >> self.key_bits)
            .ok()
            .and_then(|prefix| self.directory.get(prefix..)?.get(..2));
        let Some(&[lo, hi]) = bucket else {
            return &[];
        };
        let (lo, hi) = (lo as usize, hi as usize);
        let key = K::from_bits(word & low_mask(self.key_bits));
        let keys = &self.keys[lo..hi];
        // Most probes miss, and a miss ends here, on a branch that goes
        // one way. A hit lands anywhere in its run and widens to it.
        let Ok(hit) = keys.binary_search(&key) else {
            return &[];
        };
        let same = |other: &&K| **other == key;
        let from = hit - keys[..hit].iter().rev().take_while(same).count();
        let to = hit + keys[hit..].iter().take_while(same).count();
        &self.positions[lo + from..lo + to]
    }
}

/// The bits of a word that its key keeps.
fn low_mask(key_bits: u32) -> u64 {
    (1 << key_bits) - 1
}

impl SeedTable {
    /// Indexes every position of `target`.
    ///
    /// `max_occurrences` caps the per-word position list; words over the
    /// cap are removed entirely.
    ///
    /// The table is built where it will lie, from two reads of the
    /// target ([`SeedPattern::words`] rolls the packed window, so a read
    /// is cheap): the first counts each directory bucket's words, the second
    /// puts every position, beside its key, into its bucket. Then, a
    /// bucket at a time, the bucket is sorted by (key, position) and
    /// squeezed down over the dropped entries before it: the runs of
    /// equal keys no longer than `max_occurrences` stay, the longer ones
    /// go. Nothing but the two arrays and the directory is allocated, so
    /// the build peaks at what an uncapped table keeps: a position and a
    /// key — 5 B for the default seed on a target past 2^15 windows, 6 B
    /// below — per indexed position.
    pub fn build(target: &Sequence, pattern: &SeedPattern, max_occurrences: usize) -> SeedTable {
        let windows = (target.len() + 1).saturating_sub(pattern.span()).min(MAX_TARGET_LEN);

        let word_bits = 2 * pattern.weight() as u32;
        // ⌈log2 windows⌉, inside the directory's limits and the word.
        let directory_bits = windows
            .next_power_of_two()
            .trailing_zeros()
            .clamp(MIN_DIRECTORY_BITS, MAX_DIRECTORY_BITS)
            .min(word_bits);
        let key_bits = word_bits - directory_bits;

        // bounds[p] is where bucket p's stretch of the sorted run starts.
        let mut bounds = vec![0u32; (1usize << directory_bits) + 1];
        indexed_words(pattern, target).for_each(|(_, word)| bounds[(word >> key_bits) as usize + 1] += 1);
        accumulate(&mut bounds);

        match key_bits {
            0 => assemble(pattern, target, max_occurrences, bounds, key_bits, Keys::None),
            1..=8 => assemble(pattern, target, max_occurrences, bounds, key_bits, Keys::U8),
            9..=16 => assemble(pattern, target, max_occurrences, bounds, key_bits, Keys::U16),
            17..=32 => assemble(pattern, target, max_occurrences, bounds, key_bits, Keys::U32),
            _ => assemble(pattern, target, max_occurrences, bounds, key_bits, Keys::U64),
        }
    }

    /// The table's arrays behind `keys`, its key vector.
    pub(crate) fn buckets<'a, K>(&'a self, keys: &'a [K]) -> Buckets<'a, K> {
        Buckets {
            keys,
            positions: &self.positions,
            directory: &self.directory,
            key_bits: self.key_bits,
        }
    }

    pub(crate) fn keys(&self) -> &Keys {
        &self.keys
    }

    /// Target positions whose window hashes to `word`.
    pub fn lookup(&self, word: u64) -> &[u32] {
        with_keys!(&self.keys, keys => self.buckets(keys).find(word))
    }

    /// The pattern this table was built with.
    pub fn pattern(&self) -> &SeedPattern {
        &self.pattern
    }

    /// Number of positions successfully indexed.
    pub fn positions_indexed(&self) -> u64 {
        self.positions_indexed
    }

    /// Number of positions dropped by the repeat cap.
    pub fn dropped_repeats(&self) -> u64 {
        self.dropped_repeats
    }

    /// Number of distinct words present.
    pub fn distinct_words(&self) -> usize {
        self.distinct_words
    }

    /// One past the largest position any [`SeedTable::lookup`] returns
    /// (0 for an empty table).
    pub fn position_end(&self) -> usize {
        self.position_end
    }
}

/// The words a table indexes: every window's, but that a window starting
/// at or past [`MAX_TARGET_LEN`] is not indexed.
fn indexed_words<'a>(pattern: &'a SeedPattern, target: &'a Sequence) -> Words<'a> {
    pattern.words(target).before(MAX_TARGET_LEN)
}

/// Turns per-bucket counts stored at `counts[p + 1]` into boundaries:
/// afterwards bucket `p` is `counts[p]..counts[p + 1]`.
fn accumulate(counts: &mut [u32]) {
    let mut sum = 0u32;
    for count in counts {
        sum += *count;
        *count = sum;
    }
}

/// The rest of [`SeedTable::build`] once the key width `K` is known:
/// scatter, sort and squeeze. `directory[p]` comes in as where bucket `p`
/// starts in the uncapped run, its last entry as the run's length.
fn assemble<K: Key>(
    pattern: &SeedPattern,
    target: &Sequence,
    max_occurrences: usize,
    mut directory: Vec<u32>,
    key_bits: u32,
    wrap: fn(Vec<K>) -> Keys,
) -> SeedTable {
    let mask = low_mask(key_bits);
    let buckets = directory.len() - 1;
    let total = directory[buckets] as usize;
    let mut keys = vec![K::default(); total];
    let mut positions = vec![0u32; total];
    // Each bucket's start doubles as its fill cursor, which leaves
    // directory[p] where bucket p *ends*.
    indexed_words(pattern, target).for_each(|(pos, word)| {
        let slot = &mut directory[(word >> key_bits) as usize];
        keys[*slot as usize] = K::from_bits(word & mask);
        positions[*slot as usize] = pos as u32;
        *slot += 1;
    });

    let (mut start, mut kept) = (0usize, 0usize);
    let (mut dropped_repeats, mut distinct_words, mut position_end) = (0u64, 0usize, 0usize);
    for slot in &mut directory[..buckets] {
        // In the kept run a bucket starts where the ones before it
        // were squeezed to.
        let end = std::mem::replace(slot, kept as u32) as usize;
        sort_bucket(&mut keys[start..end], &mut positions[start..end], key_bits);
        // A run of equal keys is one word: it cannot leave its bucket.
        while start < end {
            let key = keys[start];
            let run = keys[start..end].iter().take_while(|&&next| next == key).count();
            if run > max_occurrences {
                dropped_repeats += run as u64;
            } else {
                // Until something is dropped a run already lies in place.
                if kept != start {
                    keys.copy_within(start..start + run, kept);
                    positions.copy_within(start..start + run, kept);
                }
                kept += run;
                distinct_words += 1;
                position_end = position_end.max(positions[kept - 1] as usize + 1);
            }
            start += run;
        }
    }
    directory[buckets] = kept as u32;
    keys.truncate(kept);
    keys.shrink_to_fit();
    positions.truncate(kept);
    positions.shrink_to_fit();

    SeedTable {
        positions,
        keys: wrap(keys),
        directory,
        key_bits,
        pattern: pattern.clone(),
        positions_indexed: total as u64,
        dropped_repeats,
        distinct_words,
        position_end,
    }
}

/// Sorts one bucket's parallel slices by (key, position) where they lie;
/// the keys agree above their low `bits` bits. The handful of entries a
/// bucket usually holds is sorted by insertion. The bucket a long or a
/// low-complexity target piles up is first split on the highest of those
/// bits, zeros before ones, and each side sorted in turn — the radix
/// twin of quicksort, whose pivots no input can make bad — until a side
/// is a handful or one key, whose positions the standard in-place sort
/// orders. So no input costs more than `n (bits + log n)`, and none
/// borrows memory to sort in.
fn sort_bucket<K: Key>(keys: &mut [K], positions: &mut [u32], bits: u32) {
    let len = keys.len();
    assert_eq!(len, positions.len());
    if len > INSERTION_SORT_MAX {
        let Some(bit) = bits.checked_sub(1) else {
            positions.sort_unstable();
            return;
        };
        let (mut zeros, mut ones) = (0, len);
        while zeros < ones {
            if (keys[zeros].bits() >> bit) & 1 == 0 {
                zeros += 1;
            } else {
                ones -= 1;
                keys.swap(zeros, ones);
                positions.swap(zeros, ones);
            }
        }
        let (keys, one_keys) = keys.split_at_mut(zeros);
        let (positions, one_positions) = positions.split_at_mut(zeros);
        sort_bucket(keys, positions, bit);
        sort_bucket(one_keys, one_positions, bit);
        return;
    }
    for i in 1..len {
        let moving = (keys[i], positions[i]);
        let mut hole = i;
        while hole > 0 && (keys[hole - 1], positions[hole - 1]) > moving {
            keys[hole] = keys[hole - 1];
            positions[hole] = positions[hole - 1];
            hole -= 1;
        }
        (keys[hole], positions[hole]) = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_all_positions() {
        let t: Sequence = "ACGTACGTAC".parse().unwrap();
        let p = SeedPattern::exact(4);
        let table = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!(table.positions_indexed(), 7);
        let word = p.extract(&t, 1).unwrap();
        assert_eq!(table.lookup(word), &[1, 5]);
    }

    #[test]
    fn skips_n_windows() {
        let t: Sequence = "ACGTNACGT".parse().unwrap();
        let p = SeedPattern::exact(4);
        let table = SeedTable::build(&t, &p, usize::MAX);
        // Positions 1..=4 contain the N.
        assert_eq!(table.positions_indexed(), 2);
    }

    #[test]
    fn repeat_cap_drops_frequent_words() {
        let t: Sequence = "AAAAAAAAAAAAAAAA".parse().unwrap();
        let p = SeedPattern::exact(4);
        let capped = SeedTable::build(&t, &p, 4);
        assert_eq!(capped.distinct_words(), 0);
        assert_eq!(capped.dropped_repeats(), 13);
        let uncapped = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!(uncapped.distinct_words(), 1);
    }

    #[test]
    fn lookup_of_absent_word_is_empty() {
        let t: Sequence = "ACGT".parse().unwrap();
        let table = SeedTable::build(&t, &SeedPattern::exact(4), usize::MAX);
        assert!(table.lookup(u64::MAX).is_empty());
    }

    #[test]
    fn lookup_of_a_word_wider_than_the_pattern_is_empty() {
        // The directory covers the whole word, its top 16 bits, and 16 of
        // 62: a prefix past its end must read as absent, not index it.
        let t: Sequence = "ACGTTGCAGGATCCATGCAAGTCTTGACCGTAAGCT".parse().unwrap();
        for p in [
            SeedPattern::exact(4),
            SeedPattern::lastz_default(),
            SeedPattern::exact(31),
        ] {
            let table = SeedTable::build(&t, &p, usize::MAX);
            assert_eq!(table.positions_indexed() as usize, t.len() - p.span() + 1);
            let word = p.extract(&t, 2).unwrap();
            assert_eq!(table.lookup(word), &[2]);
            for wide in [1 << (2 * p.weight()), word | 1 << 62, u64::MAX] {
                assert!(table.lookup(wide).is_empty(), "{p}: {wide:#x}");
            }
        }
    }

    #[test]
    fn bucket_sort_orders_by_key_then_position_at_every_length() {
        // Either side of the insertion/split switch, few distinct keys
        // (long ties on the key) and many, at the narrowest key width and
        // the widest.
        fn check<K: Key + std::fmt::Debug>(len: usize, distinct: u64) {
            let mut state = len as u64 * 31 + distinct;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 20
            };
            let mut pairs: Vec<(K, u32)> = (0..len)
                .map(|_| (K::from_bits(next() % distinct), next() as u32))
                .collect();
            let (mut keys, mut positions): (Vec<K>, Vec<u32>) = pairs.iter().copied().unzip();
            sort_bucket(&mut keys, &mut positions, distinct.next_power_of_two().trailing_zeros());
            pairs.sort_unstable();
            let sorted: Vec<(K, u32)> = keys.into_iter().zip(positions).collect();
            assert_eq!(sorted, pairs, "{len} pairs of {distinct} keys");
        }
        for len in [0usize, 1, 2, 23, 24, 25, 26, 100, 1_000] {
            for distinct in [1u64, 3, 1 << 8] {
                check::<u8>(len, distinct);
            }
            for distinct in [1u64, 3, 1 << 40] {
                check::<u64>(len, distinct);
            }
        }
    }

    #[test]
    fn keys_take_the_narrowest_width_that_holds_the_bits_below_the_directory() {
        let lcg_dna = |len: usize| -> Sequence {
            let mut state = len as u64;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    genome::Base::from_code((state >> 33) as u8 % 4)
                })
                .collect()
        };
        // 100 positions sit behind an 8-bit directory, 300 behind 9 bits,
        // 40 000 behind 16.
        for (pattern, positions, key_bits, key_bytes) in [
            (SeedPattern::exact(4), 100, 0, 0),
            (SeedPattern::exact(5), 300, 1, 1),
            (SeedPattern::exact(8), 100, 8, 1),
            (SeedPattern::exact(9), 300, 9, 2),
            (SeedPattern::exact(12), 100, 16, 2),
            (SeedPattern::exact(13), 300, 17, 4),
            (SeedPattern::exact(20), 100, 32, 4),
            (SeedPattern::exact(21), 300, 33, 8),
            (SeedPattern::exact(31), 100, 54, 8),
            (SeedPattern::lastz_default(), 40_000, 8, 1),
            (SeedPattern::lastz_default(), 30_000, 9, 2),
        ] {
            let target = lcg_dna(positions + pattern.span() - 1);
            let table = SeedTable::build(&target, &pattern, usize::MAX);
            assert_eq!(table.positions.len(), positions, "{pattern}");
            assert_eq!(table.key_bits, key_bits, "{pattern} over {positions} positions");
            let (bytes, keys) = match &table.keys {
                Keys::None(keys) => (0, keys.len()),
                Keys::U8(keys) => (1, keys.len()),
                Keys::U16(keys) => (2, keys.len()),
                Keys::U32(keys) => (4, keys.len()),
                Keys::U64(keys) => (8, keys.len()),
            };
            assert_eq!(bytes, key_bytes, "{pattern} over {positions} positions");
            assert_eq!(keys, positions, "one key a position");
            assert_eq!(table.directory.len(), (1 << (2 * pattern.weight() as u32 - key_bits)) + 1);
        }
    }

    #[test]
    fn a_run_of_equal_keys_is_one_word_wherever_it_lies_in_its_bucket() {
        // One window per `N`-separated 6-mer. A 12-bit word behind an
        // 8-bit directory: the first four bases pick the bucket, the last
        // two are the key.
        let t: Sequence = "AAAATT N CCCCGG N AAAAAA N AAAAAC N CCCCGG N AAAATT N AAAAAA N CCCCGG N GGGGGG"
            .replace(' ', "")
            .parse()
            .unwrap();
        let p = SeedPattern::exact(6);
        let word = |kmer: &str| p.extract(&kmer.parse().unwrap(), 0).unwrap();
        let table = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!((table.key_bits, table.distinct_words()), (4, 5));
        let Keys::U8(keys) = &table.keys else {
            panic!("a 4-bit key is a byte");
        };
        let bucket = |prefix: &str| {
            let prefix = (word(&format!("{prefix}AA")) >> 4) as usize;
            table.directory[prefix] as usize..table.directory[prefix + 1] as usize
        };
        // A run that opens its bucket, one that closes it, one between…
        assert_eq!(keys[bucket("AAAA")], [0b0000, 0b0000, 0b0001, 0b1111, 0b1111]);
        assert_eq!(table.positions[bucket("AAAA")], [14, 42, 21, 0, 35]);
        // …and one that is all of it.
        assert_eq!(keys[bucket("CCCC")], [0b1010, 0b1010, 0b1010]);
        assert_eq!(table.lookup(word("AAAAAA")), &[14, 42]);
        assert_eq!(table.lookup(word("AAAAAC")), &[21]);
        assert_eq!(table.lookup(word("AAAATT")), &[0, 35]);
        assert_eq!(table.lookup(word("CCCCGG")), &[7, 28, 49]);
        assert_eq!(table.lookup(word("GGGGGG")), &[56]);
        // The same key in the bucket next door is another word.
        assert!(table.lookup(word("AAACTT")).is_empty());
        assert!(table.lookup(word("AAAAAG")).is_empty());

        // The cap counts a run, not its bucket: five entries share the
        // AAAA bucket and none of its words has more than two.
        let capped = SeedTable::build(&t, &p, 2);
        assert_eq!((capped.distinct_words(), capped.dropped_repeats()), (4, 3));
        assert!(capped.lookup(word("CCCCGG")).is_empty());
        assert_eq!(capped.lookup(word("AAAATT")), &[0, 35]);
        assert_eq!(capped.lookup(word("GGGGGG")), &[56]);
        assert_eq!(capped.position_end(), 57);
    }

    #[test]
    fn spaced_pattern_matches_despite_dont_care_mismatch() {
        // Pattern 1-0-1: middle base free.
        let p: SeedPattern = "101".parse().unwrap();
        let t: Sequence = "AGA".parse().unwrap();
        let q: Sequence = "ATA".parse().unwrap();
        let table = SeedTable::build(&t, &p, usize::MAX);
        let qword = p.extract(&q, 0).unwrap();
        assert_eq!(table.lookup(qword), &[0]);
    }
}
