//! Seed table: a flat sorted index from seed words to target positions.
//!
//! Darwin's D-SOFT reads a *seed position table*: a pointer table indexed
//! by the seed word over one flat array of 4 B positions. This is that
//! layout for a word space too large to point into whole (4^12 words for
//! the default seed, 4^31 at the widest): the pointer table — the
//! *directory* — is indexed by the word's top bits, about one entry per
//! 8–16 windows of the target, and each indexed window is one integer,
//! `key << pos_bits | position`, where the *key* is the word's bits below
//! that prefix and `pos_bits` the `⌈log2 windows⌉` bits a position needs.
//! The key lives in the top bits of the position's integer, which the
//! position never uses: a `u32` for every word of up to 28 bits. Entries
//! are sorted as plain integers; positions are distinct, so that is the
//! (word, position) order, and inside a directory bucket a run of equal
//! keys is one word's position list. The word itself is stored nowhere:
//! the bucket implies its top bits and the key is the rest.

use crate::pattern::{SeedPattern, Words};
use genome::Sequence;

/// Longest target a table can index: positions and directory entries are
/// `u32`. Windows starting at or past it are not indexed; callers reject
/// such a target before building (the pipeline does, with a typed error).
pub const MAX_TARGET_LEN: usize = u32::MAX as usize;

/// The directory is indexed by a word's top bits: `⌈log2 windows⌉` less
/// these (it is sized before the words are read, so a window an `N`
/// spoils still counts), 8–16 windows a bucket and at most half a byte a
/// window…
const WINDOWS_PER_BUCKET_BITS: u32 = 4;
/// …but at least these, 1 KiB, which keeps a lookup in a tiny table from
/// searching every entry.
const MIN_DIRECTORY_BITS: u32 = 8;

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
/// assert!(table.lookup(word).eq([0, 4]));
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeedTable {
    /// One per position whose word survived the repeat cap: the word's
    /// bits below `key_bits`, shifted above `pos_bits`, or'd with the
    /// position; ascending.
    entries: Entries,
    /// Entries `directory[p]..directory[p + 1]` are those whose word's
    /// top bits (`word >> key_bits`) equal `p`.
    directory: Vec<u32>,
    key_bits: u32,
    pos_bits: u32,
    pattern: SeedPattern,
    positions_indexed: u64,
    dropped_repeats: u64,
    distinct_words: usize,
    position_end: usize,
}

/// A table's entries, in the narrower integer that holds
/// `key_bits + pos_bits`.
#[derive(Debug, Clone)]
pub(crate) enum Entries {
    /// Every word of up to 28 bits, the default seed's 24 among them.
    Narrow(Vec<u32>),
    /// The wider words of the test patterns.
    Wide(Vec<u64>),
}

/// What splits a word and an entry: the directory, and the widths of the
/// key and the position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Directory<'a> {
    bounds: &'a [u32],
    key_bits: u32,
    pos_bits: u32,
}

impl Directory<'_> {
    /// `word`'s run of entries (empty when it has none).
    #[inline]
    pub(crate) fn run<E: Copy + Into<u64>>(self, entries: &[E], word: u64) -> &[E] {
        // A word wider than the pattern's 2·weight bits is in no table,
        // and its prefix would index past the directory.
        let bucket = usize::try_from(word >> self.key_bits)
            .ok()
            .and_then(|prefix| self.bounds.get(prefix..)?.get(..2));
        let Some(&[lo, hi]) = bucket else {
            return &[];
        };
        let Some(bucket) = entries.get(lo as usize..hi as usize) else {
            return &[];
        };
        // An entry with its position bits set names its run; the order
        // is the entries' own. Setting them takes an `or`, where shifting
        // them out takes a shift by a count in `cl` per step of the search
        // (DESIGN.md, "Seed index").
        let mask = self.position_mask();
        let run = (word & low_mask(self.key_bits)) << self.pos_bits | mask;
        let run_of = |entry: &E| (*entry).into() | mask;
        // Most probes miss, and a miss ends here, on a branch that goes
        // one way. A hit lands anywhere in its run and widens to it.
        let Ok(hit) = bucket.binary_search_by(|entry| run_of(entry).cmp(&run)) else {
            return &[];
        };
        let from = hit - bucket[..hit].iter().rev().take_while(|entry| run_of(entry) == run).count();
        let to = hit + bucket[hit..].iter().take_while(|entry| run_of(entry) == run).count();
        &bucket[from..to]
    }

    /// The bits of an entry that are its position.
    #[inline]
    pub(crate) fn position_mask(self) -> u64 {
        low_mask(self.pos_bits)
    }
}

/// The low `bits` bits of a word.
fn low_mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

impl SeedTable {
    /// Indexes every position of `target`.
    ///
    /// `max_occurrences` caps the per-word position list; words over the
    /// cap are removed entirely.
    ///
    /// The table is built where it will lie, from two reads of the
    /// target ([`SeedPattern::words`] rolls the packed window, so a read
    /// is cheap): the first counts each directory bucket's words, the
    /// second puts every window's entry at its bucket's cursor. Then, a
    /// bucket at a time, the bucket is sorted where it lies and squeezed
    /// down over the dropped entries before it: the runs of equal keys no
    /// longer than `max_occurrences` stay, the longer ones go. Nothing but
    /// the entries and the directory is allocated, so the build peaks at
    /// what an uncapped table keeps: 4 B a window for the default seed,
    /// plus at most half a byte a window of directory.
    pub fn build(target: &Sequence, pattern: &SeedPattern, max_occurrences: usize) -> SeedTable {
        let windows = (target.len() + 1).saturating_sub(pattern.span()).min(MAX_TARGET_LEN);

        let word_bits = 2 * pattern.weight() as u32;
        let pos_bits = windows.next_power_of_two().trailing_zeros();
        // ⌈log2 windows⌉ − 4, at least the floor, inside the word — and,
        // for a 62-bit word alone, wide enough that key and position fit
        // 64 bits.
        let directory_bits = pos_bits
            .saturating_sub(WINDOWS_PER_BUCKET_BITS)
            .max(MIN_DIRECTORY_BITS)
            .max((word_bits + pos_bits).saturating_sub(u64::BITS))
            .min(word_bits);
        let key_bits = word_bits - directory_bits;

        // bounds[p] is where bucket p's stretch of the sorted run starts.
        let mut bounds = vec![0u32; (1usize << directory_bits) + 1];
        indexed_words(pattern, target).for_each(|(_, word)| bounds[(word >> key_bits) as usize + 1] += 1);
        accumulate(&mut bounds);

        let widths = (key_bits, pos_bits);
        if key_bits + pos_bits <= u32::BITS {
            assemble(pattern, target, max_occurrences, bounds, widths, |entry| entry as u32, Entries::Narrow)
        } else {
            assemble(pattern, target, max_occurrences, bounds, widths, |entry| entry, Entries::Wide)
        }
    }

    /// The directory and the widths that split a word and an entry.
    pub(crate) fn directory(&self) -> Directory<'_> {
        Directory {
            bounds: &self.directory,
            key_bits: self.key_bits,
            pos_bits: self.pos_bits,
        }
    }

    pub(crate) fn entries(&self) -> &Entries {
        &self.entries
    }

    /// Target positions whose window hashes to `word`, ascending.
    pub fn lookup(&self, word: u64) -> impl ExactSizeIterator<Item = u32> + '_ {
        let directory = self.directory();
        // The run at the table's width; the other is empty.
        let (narrow, wide): (&[u32], &[u64]) = match &self.entries {
            Entries::Narrow(entries) => (directory.run(entries, word), &[]),
            Entries::Wide(entries) => (&[], directory.run(entries, word)),
        };
        (0..narrow.len() + wide.len()).map(move |i| {
            let entry = narrow.get(i).map_or_else(|| wide[i], |&entry| u64::from(entry));
            (entry & directory.position_mask()) as u32
        })
    }

    /// Bytes the table holds on the heap: its entries and its directory,
    /// as allocated.
    pub fn heap_bytes(&self) -> usize {
        let entries = match &self.entries {
            Entries::Narrow(entries) => entries.capacity() * size_of::<u32>(),
            Entries::Wide(entries) => entries.capacity() * size_of::<u64>(),
        };
        entries + self.directory.capacity() * size_of::<u32>()
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

/// The rest of [`SeedTable::build`] once the entry width `E` is known:
/// scatter, sort and squeeze. `directory[p]` comes in as where bucket `p`
/// starts in the uncapped run, its last entry as the run's length;
/// `entry` narrows a `u64` entry to `E`, which holds it.
fn assemble<E: Copy + Ord + Into<u64>>(
    pattern: &SeedPattern,
    target: &Sequence,
    max_occurrences: usize,
    mut directory: Vec<u32>,
    (key_bits, pos_bits): (u32, u32),
    entry: fn(u64) -> E,
    wrap: fn(Vec<E>) -> Entries,
) -> SeedTable {
    let (key_mask, pos_mask) = (low_mask(key_bits), low_mask(pos_bits));
    let buckets = directory.len() - 1;
    let total = directory[buckets] as usize;
    let mut entries = vec![entry(0); total];
    // Each bucket's start doubles as its fill cursor, which leaves
    // directory[p] where bucket p *ends*.
    indexed_words(pattern, target).for_each(|(pos, word)| {
        let slot = &mut directory[(word >> key_bits) as usize];
        entries[*slot as usize] = entry((word & key_mask) << pos_bits | pos as u64);
        *slot += 1;
    });

    let key_of = |entry: E| entry.into() >> pos_bits;
    let (mut start, mut kept) = (0usize, 0usize);
    let (mut dropped_repeats, mut distinct_words, mut position_end) = (0u64, 0usize, 0usize);
    for slot in &mut directory[..buckets] {
        // In the kept run a bucket starts where the ones before it
        // were squeezed to.
        let end = std::mem::replace(slot, kept as u32) as usize;
        entries[start..end].sort_unstable();
        // A run of equal keys is one word: it cannot leave its bucket.
        while start < end {
            let key = key_of(entries[start]);
            let run = entries[start..end].iter().take_while(|&&next| key_of(next) == key).count();
            if run > max_occurrences {
                dropped_repeats += run as u64;
            } else {
                // Until something is dropped a run already lies in place.
                if kept != start {
                    entries.copy_within(start..start + run, kept);
                }
                kept += run;
                distinct_words += 1;
                position_end = position_end.max((entries[kept - 1].into() & pos_mask) as usize + 1);
            }
            start += run;
        }
    }
    directory[buckets] = kept as u32;
    entries.truncate(kept);
    entries.shrink_to_fit();

    SeedTable {
        entries: wrap(entries),
        directory,
        key_bits,
        pos_bits,
        pattern: pattern.clone(),
        positions_indexed: total as u64,
        dropped_repeats,
        distinct_words,
        position_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(table: &SeedTable, word: u64) -> Vec<u32> {
        table.lookup(word).collect()
    }

    #[test]
    fn indexes_all_positions() {
        let t: Sequence = "ACGTACGTAC".parse().unwrap();
        let p = SeedPattern::exact(4);
        let table = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!(table.positions_indexed(), 7);
        let word = p.extract(&t, 1).unwrap();
        assert_eq!(lookup(&table, word), [1, 5]);
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
        assert_eq!(table.lookup(u64::MAX).len(), 0);
    }

    #[test]
    fn lookup_of_a_word_wider_than_the_pattern_is_empty() {
        // The directory covers the whole word, its top 8 bits, and 8 of
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
            assert_eq!(lookup(&table, word), [2]);
            for wide in [1 << (2 * p.weight()), word | 1 << 62, u64::MAX] {
                assert_eq!(table.lookup(wide).len(), 0, "{p}: {wide:#x}");
            }
        }
    }

    #[test]
    fn an_entry_is_a_u32_up_to_28_word_bits_behind_8_to_16_windows_a_bucket() {
        let lcg_dna = |len: usize| -> Sequence {
            let mut state = len as u64;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    genome::Base::from_code((state >> 33) as u8 % 4)
                })
                .collect()
        };
        // (pattern, windows, directory bits, entry bytes): the 8-bit floor
        // up to 4 096 windows, ⌈log2⌉ − 4 past it, the word when it is
        // narrower, and key + position in 32 bits up to a 28-bit word.
        for (pattern, windows, directory_bits, entry_bytes) in [
            (SeedPattern::exact(4), 100, 8, 4),
            (SeedPattern::exact(4), 5_000, 8, 4),
            (SeedPattern::lastz_default(), 60, 8, 4),
            (SeedPattern::lastz_default(), 4_096, 8, 4),
            (SeedPattern::lastz_default(), 4_097, 9, 4),
            (SeedPattern::exact(14), 4_096, 8, 4),
            (SeedPattern::exact(14), 4_097, 9, 4),
            (SeedPattern::exact(15), 1_024, 8, 4),
            (SeedPattern::exact(15), 1_025, 8, 8),
            (SeedPattern::exact(31), 1_024, 8, 8),
            // 62 − 11 key bits and 13 position bits: exactly 64.
            (SeedPattern::exact(31), 5_000, 11, 8),
        ] {
            let target = lcg_dna(windows + pattern.span() - 1);
            let table = SeedTable::build(&target, &pattern, usize::MAX);
            let label = format!("{pattern} over {windows} windows");
            assert_eq!(table.pos_bits, windows.next_power_of_two().trailing_zeros(), "{label}");
            assert_eq!(table.directory.len(), (1 << directory_bits) + 1, "{label}");
            assert_eq!(table.key_bits, 2 * pattern.weight() as u32 - directory_bits, "{label}");
            let (bytes, entries) = match &table.entries {
                Entries::Narrow(entries) => (4, entries.len()),
                Entries::Wide(entries) => (8, entries.len()),
            };
            assert_eq!(bytes, entry_bytes, "{label}");
            assert_eq!(entries, windows, "one entry a window");
            assert_eq!(table.heap_bytes(), entry_bytes * windows + 4 * ((1 << directory_bits) + 1), "{label}");
        }
    }

    #[test]
    fn a_run_of_equal_keys_is_one_word_wherever_it_lies_in_its_bucket() {
        // One window per `N`-separated 6-mer. A 12-bit word behind an
        // 8-bit directory: the first four bases pick the bucket, the last
        // two are the key, above the 6 bits of a position of 57 windows.
        let t: Sequence = "AAAATT N CCCCGG N AAAAAA N AAAAAC N CCCCGG N AAAATT N AAAAAA N CCCCGG N GGGGGG"
            .replace(' ', "")
            .parse()
            .unwrap();
        let p = SeedPattern::exact(6);
        let word = |kmer: &str| p.extract(&kmer.parse().unwrap(), 0).unwrap();
        let table = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!((table.key_bits, table.pos_bits, table.distinct_words()), (4, 6, 5));
        let Entries::Narrow(entries) = &table.entries else {
            panic!("10 bits of entry are a u32");
        };
        let bucket = |prefix: &str| {
            let prefix = (word(&format!("{prefix}AA")) >> 4) as usize;
            let range = table.directory[prefix] as usize..table.directory[prefix + 1] as usize;
            let split = |entry: &u32| (entry >> 6, entry & 0b11_1111);
            entries[range].iter().map(split).unzip::<_, _, Vec<u32>, Vec<u32>>()
        };
        // A run that opens its bucket, one that closes it, one between…
        assert_eq!(bucket("AAAA"), (vec![0b0000, 0b0000, 0b0001, 0b1111, 0b1111], vec![14, 42, 21, 0, 35]));
        // …and one that is all of it.
        assert_eq!(bucket("CCCC"), (vec![0b1010, 0b1010, 0b1010], vec![7, 28, 49]));
        assert_eq!(lookup(&table, word("AAAAAA")), [14, 42]);
        assert_eq!(lookup(&table, word("AAAAAC")), [21]);
        assert_eq!(lookup(&table, word("AAAATT")), [0, 35]);
        assert_eq!(lookup(&table, word("CCCCGG")), [7, 28, 49]);
        assert_eq!(lookup(&table, word("GGGGGG")), [56]);
        // The same key in the bucket next door is another word.
        assert_eq!(table.lookup(word("AAACTT")).len(), 0);
        assert_eq!(table.lookup(word("AAAAAG")).len(), 0);

        // The cap counts a run, not its bucket: five entries share the
        // AAAA bucket and none of its words has more than two.
        let capped = SeedTable::build(&t, &p, 2);
        assert_eq!((capped.distinct_words(), capped.dropped_repeats()), (4, 3));
        assert_eq!(capped.lookup(word("CCCCGG")).len(), 0);
        assert_eq!(lookup(&capped, word("AAAATT")), [0, 35]);
        assert_eq!(lookup(&capped, word("GGGGGG")), [56]);
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
        assert_eq!(lookup(&table, qword), [0]);
    }
}
