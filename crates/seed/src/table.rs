//! Seed table: a flat sorted index from seed words to target positions.
//!
//! Darwin's D-SOFT reads a *seed position table*: a pointer table over
//! one flat array of positions. This is that layout for a word space too
//! large to point into directly (4^12 words for the default seed, 4^31 at
//! the widest): the distinct words that occur, sorted, each with the
//! offset of its run in one `positions` array, and a directory over the
//! words' top bits in front, sized to the target, so a lookup searches a
//! handful of words.

use crate::pattern::SeedPattern;
use genome::Sequence;
use std::ops::Range;

/// Longest target a table can index: positions and offsets are `u32`.
/// Windows starting at or past it are not indexed; callers reject such
/// a target before building (the pipeline does, with a typed error).
pub const MAX_TARGET_LEN: usize = u32::MAX as usize;

/// The directory is indexed by a word's top bits: as many as leave about
/// one indexed position per entry (`⌈log2 positions⌉`), so a 2 k-position
/// chromosome pays 8 KiB for it and no target more entries than twice its
/// positions — but at least these, which keeps a lookup in a tiny table
/// from searching every word…
const MIN_DIRECTORY_BITS: u32 = 8;
/// …and at most these: 2^16 + 1 `u32`s, 256 KiB, whatever the target. A
/// 100 Mbp target then searches a few hundred words per lookup, while a
/// directory that kept following the target would, on the 50–190 kbp
/// ones, cost more than it saves (DESIGN.md, "Seed index").
const MAX_DIRECTORY_BITS: u32 = 16;

/// Marks a window holding an `N` in a shard's word run. No pattern has
/// more than 31 sampled bases, so no word has more than 62 bits.
const NO_WORD: u64 = u64::MAX;

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
/// let word = pattern.extract(target.as_slice(), 0).unwrap();
/// assert_eq!(table.lookup(word), &[0, 4]);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeedTable {
    /// The distinct words that survived the repeat cap, ascending.
    words: Vec<u64>,
    /// `positions[offsets[i]..offsets[i + 1]]` are `words[i]`'s, ascending.
    offsets: Vec<u32>,
    positions: Vec<u32>,
    /// `words[directory[p]..directory[p + 1]]` are the words whose top
    /// bits (`word >> directory_shift`) equal `p`.
    directory: Vec<u32>,
    directory_shift: u32,
    pattern: SeedPattern,
    positions_indexed: u64,
    dropped_repeats: u64,
    position_end: usize,
}

impl SeedTable {
    /// Indexes every position of `target`.
    ///
    /// `max_occurrences` caps the per-word position list; words over the
    /// cap are removed entirely.
    pub fn build(target: &Sequence, pattern: &SeedPattern, max_occurrences: usize) -> SeedTable {
        let whole = SeedTable::build_partial(target, pattern, 0..target.len());
        SeedTable::from_partials(pattern, [whole], max_occurrences)
    }

    /// Indexes one shard of target positions (`range ∩ 0..indexable`).
    ///
    /// Sharded building is *exact*: indexing disjoint ranges covering
    /// `0..target.len()` and merging them with
    /// [`SeedTable::from_partials`] reproduces [`SeedTable::build`]
    /// bit for bit, for any cut points. Each position's seed window may
    /// read past `range.end` into the next shard's bases — ownership of
    /// a *position* is what partitions the work, not the bases it reads.
    pub fn build_partial(
        target: &Sequence,
        pattern: &SeedPattern,
        range: Range<usize>,
    ) -> PartialSeedTable {
        let slice = target.as_slice();
        let indexable = target
            .len()
            .saturating_sub(pattern.span().saturating_sub(1));
        let clamp = |pos: usize| u32::try_from(pos).unwrap_or(u32::MAX);
        let (start, end) = (clamp(range.start), clamp(range.end.min(indexable)));
        let mut indexed = 0u64;
        let words = (start..end)
            .map(|pos| match pattern.extract(slice, pos as usize) {
                Some(word) => {
                    indexed += 1;
                    word
                }
                None => NO_WORD,
            })
            .collect();
        PartialSeedTable {
            start,
            words,
            indexed,
        }
    }

    /// Merges per-shard runs into a whole-target [`SeedTable`].
    ///
    /// One counting sort on the directory prefix scatters every shard's
    /// words, each beside its position, into their bucket, each bucket is
    /// sorted by (word, position), and one pass over the sorted run
    /// squeezes it into the table's arrays where it lies: the distinct
    /// words to the front of `words`, the positions of the words under
    /// the cap to the front of `positions`, only `offsets` allocated anew.
    /// Sorting by position inside a word puts every position list in
    /// ascending order whatever order the shards arrive in — exactly the
    /// serial build's lists. The `max_occurrences` repeat cap is applied
    /// to the merged run, against whole-target counts, so a repeat word
    /// split across shards is still dropped exactly as the serial build
    /// drops it.
    ///
    /// At its peak, while the first shard is scattered, the build holds
    /// the shards' 8 B a window and 12 B per indexed position; sorting a
    /// bucket of more than a couple of dozen entries borrows 4 B for each.
    ///
    /// # Panics
    ///
    /// Panics if the shards hold more than [`MAX_TARGET_LEN`] entries
    /// together, which disjoint shards of one target cannot.
    pub fn from_partials(
        pattern: &SeedPattern,
        parts: impl IntoIterator<Item = PartialSeedTable>,
        max_occurrences: usize,
    ) -> SeedTable {
        let parts: Vec<PartialSeedTable> = parts.into_iter().collect();
        let total: u64 = parts.iter().map(|part| part.indexed).sum();
        assert!(
            total <= MAX_TARGET_LEN as u64,
            "{total} entries overflow u32 offsets"
        );
        let total = total as usize;

        let word_bits = 2 * pattern.weight() as u32;
        // ⌈log2 total⌉, inside the directory's limits and the word.
        let directory_bits = total
            .next_power_of_two()
            .trailing_zeros()
            .clamp(MIN_DIRECTORY_BITS, MAX_DIRECTORY_BITS)
            .min(word_bits);
        let directory_shift = word_bits - directory_bits;
        let bucket = |word: u64| (word >> directory_shift) as usize;

        // bounds[p] is where bucket p's stretch of the sorted run starts.
        let mut bounds = vec![0u32; (1usize << directory_bits) + 1];
        for part in &parts {
            for &word in part.words.iter().filter(|&&word| word != NO_WORD) {
                bounds[bucket(word) + 1] += 1;
            }
        }
        accumulate(&mut bounds);
        // Each bucket's start doubles as its fill cursor, which leaves
        // bounds[p] where bucket p *ends*.
        let mut words = vec![0u64; total];
        let mut positions = vec![0u32; total];
        for part in parts {
            for (word, pos) in part.words.into_iter().zip(part.start..) {
                if word != NO_WORD {
                    let slot = &mut bounds[bucket(word)];
                    words[*slot as usize] = word;
                    positions[*slot as usize] = pos;
                    *slot += 1;
                }
            }
        }
        let mut order = Vec::new();
        let mut start = 0usize;
        for &end in &bounds[..bounds.len() - 1] {
            let end = end as usize;
            sort_pairs(&mut words[start..end], &mut positions[start..end], &mut order);
            start = end;
        }

        // Sized first, so `offsets` carries no growth slack.
        let (mut kept_words, mut dropped_repeats) = (0usize, 0u64);
        for run in words.chunk_by(|a, b| a == b) {
            if run.len() > max_occurrences {
                dropped_repeats += run.len() as u64;
            } else {
                kept_words += 1;
            }
        }
        let mut offsets = Vec::with_capacity(kept_words + 1);
        let mut directory = bounds;
        directory.fill(0);
        let (mut run_start, mut kept_positions, mut position_end) = (0usize, 0usize, 0usize);
        while run_start < total {
            let word = words[run_start];
            let run_end = run_start
                + words[run_start..]
                    .iter()
                    .take_while(|&&next| next == word)
                    .count();
            if run_end - run_start <= max_occurrences {
                directory[bucket(word) + 1] += 1;
                words[offsets.len()] = word;
                offsets.push(kept_positions as u32);
                positions.copy_within(run_start..run_end, kept_positions);
                kept_positions += run_end - run_start;
                position_end = position_end.max(positions[kept_positions - 1] as usize + 1);
            }
            run_start = run_end;
        }
        offsets.push(kept_positions as u32);
        accumulate(&mut directory);
        words.truncate(kept_words);
        words.shrink_to_fit();
        positions.truncate(kept_positions);
        positions.shrink_to_fit();

        SeedTable {
            words,
            offsets,
            positions,
            directory,
            directory_shift,
            pattern: pattern.clone(),
            positions_indexed: total as u64,
            dropped_repeats,
            position_end,
        }
    }

    /// Target positions whose window hashes to `word`.
    pub fn lookup(&self, word: u64) -> &[u32] {
        // A word wider than the pattern's 2·weight bits is in no table,
        // and its prefix would index past the directory.
        let bucket = usize::try_from(word >> self.directory_shift)
            .ok()
            .and_then(|prefix| self.directory.get(prefix..)?.get(..2));
        let Some(&[lo, hi]) = bucket else {
            return &[];
        };
        let (lo, hi) = (lo as usize, hi as usize);
        match self.words[lo..hi].binary_search(&word) {
            Ok(i) => {
                let (from, to) = (self.offsets[lo + i], self.offsets[lo + i + 1]);
                &self.positions[from as usize..to as usize]
            }
            Err(_) => &[],
        }
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
        self.words.len()
    }

    /// One past the largest position any [`SeedTable::lookup`] returns
    /// (0 for an empty table).
    pub fn position_end(&self) -> usize {
        self.position_end
    }
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

/// Sorts the parallel slices `words` and `positions` by (word, position),
/// in place: insertion for the handful of entries a bucket usually holds;
/// for the bucket a low-complexity target piles up, a sort of its indices
/// in `order` (4 B an entry, reused from bucket to bucket) and one move
/// per entry, so no input costs more than `n log n`.
fn sort_pairs(words: &mut [u64], positions: &mut [u32], order: &mut Vec<u32>) {
    let len = words.len();
    assert_eq!(len, positions.len());
    let key = |words: &[u64], positions: &[u32], i: usize| (words[i], positions[i]);
    if len <= 24 {
        for i in 1..len {
            let moving = key(words, positions, i);
            let mut hole = i;
            while hole > 0 && key(words, positions, hole - 1) > moving {
                words[hole] = words[hole - 1];
                positions[hole] = positions[hole - 1];
                hole -= 1;
            }
            (words[hole], positions[hole]) = moving;
        }
        return;
    }
    // `order[k]` is the index of the entry that belongs at `k`; each
    // entry moves home along the cycles of that permutation, and
    // `order[k] == k` marks `k` as placed.
    order.clear();
    order.extend(0..len as u32);
    order.sort_unstable_by_key(|&i| key(words, positions, i as usize));
    for start in 0..len {
        let displaced = key(words, positions, start);
        let mut hole = start;
        loop {
            let from = std::mem::replace(&mut order[hole], hole as u32) as usize;
            if from == start {
                (words[hole], positions[hole]) = displaced;
                break;
            }
            (words[hole], positions[hole]) = key(words, positions, from);
            hole = from;
        }
    }
}

/// One shard of a [`SeedTable`] under construction: the seed word of
/// every window of an ascending range of target positions, in position
/// order, before the sort and the repeat cap.
///
/// Produced by [`SeedTable::build_partial`], consumed by
/// [`SeedTable::from_partials`].
#[derive(Debug)]
pub struct PartialSeedTable {
    /// The target position of `words[0]`; `words[i]` is at `start + i`.
    start: u32,
    /// [`NO_WORD`] where the window holds an `N`.
    words: Vec<u64>,
    /// How many of `words` are words.
    indexed: u64,
}

impl PartialSeedTable {
    /// Number of positions this shard indexed.
    pub fn positions_indexed(&self) -> u64 {
        self.indexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entry = (u64, u32);

    #[test]
    fn indexes_all_positions() {
        let t: Sequence = "ACGTACGTAC".parse().unwrap();
        let p = SeedPattern::exact(4);
        let table = SeedTable::build(&t, &p, usize::MAX);
        assert_eq!(table.positions_indexed(), 7);
        let word = p.extract(t.as_slice(), 1).unwrap();
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
            let word = p.extract(t.as_slice(), 2).unwrap();
            assert_eq!(table.lookup(word), &[2]);
            for wide in [1 << (2 * p.weight()), word | 1 << 62, u64::MAX] {
                assert!(table.lookup(wide).is_empty(), "{p}: {wide:#x}");
            }
        }
    }

    #[test]
    fn pair_sort_orders_by_word_then_position_at_every_length() {
        // Either side of the insertion/heapsort switch, few distinct
        // words (long ties on the word) and many.
        for len in [0usize, 1, 2, 23, 24, 25, 26, 100, 1_000] {
            for distinct in [1u64, 3, 1 << 40] {
                let mut state = len as u64 * 31 + distinct;
                let mut next = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    state >> 20
                };
                let mut pairs: Vec<Entry> =
                    (0..len).map(|_| (next() % distinct, next() as u32)).collect();
                let (mut words, mut positions): (Vec<u64>, Vec<u32>) = pairs.iter().copied().unzip();
                sort_pairs(&mut words, &mut positions, &mut Vec::new());
                pairs.sort_unstable();
                let sorted: Vec<Entry> = words.into_iter().zip(positions).collect();
                assert_eq!(sorted, pairs, "{len} pairs of {distinct} words");
            }
        }
    }

    fn assert_tables_equal(a: &SeedTable, b: &SeedTable, t: &Sequence, p: &SeedPattern) {
        assert_eq!(a.positions_indexed(), b.positions_indexed());
        assert_eq!(a.dropped_repeats(), b.dropped_repeats());
        assert_eq!(a.distinct_words(), b.distinct_words());
        for pos in 0..t.len() {
            if let Some(word) = p.extract(t.as_slice(), pos) {
                assert_eq!(a.lookup(word), b.lookup(word), "word at {pos}");
            }
        }
    }

    #[test]
    fn sharded_build_matches_serial_at_any_cut() {
        let t: Sequence = "ACGTACGTACGGTCAGTCGATTGCAGTCACGTACGT"
            .repeat(6)
            .parse()
            .unwrap();
        let p = SeedPattern::exact(8);
        for max_occ in [usize::MAX, 4] {
            let serial = SeedTable::build(&t, &p, max_occ);
            // Deliberately unaligned cuts, an empty shard, a shard past
            // the last indexable position.
            for cuts in [
                vec![0, 50, 50, 131, t.len()],
                vec![0, 1, t.len() - 2, t.len()],
            ] {
                let parts: Vec<PartialSeedTable> = cuts
                    .windows(2)
                    .map(|w| SeedTable::build_partial(&t, &p, w[0]..w[1]))
                    .collect();
                let merged = SeedTable::from_partials(&p, parts, max_occ);
                assert_tables_equal(&serial, &merged, &t, &p);
            }
        }
    }

    #[test]
    fn repeat_cap_applies_to_whole_target_counts() {
        // Every shard is under the cap on its own; only the merged count
        // crosses it — the cap must act on merged lists.
        let t: Sequence = "AAAAAAAAAAAAAAAA".parse().unwrap();
        let p = SeedPattern::exact(4);
        let parts = [0..6, 6..t.len()]
            .into_iter()
            .map(|r| SeedTable::build_partial(&t, &p, r))
            .collect::<Vec<_>>();
        assert!(parts.iter().all(|part| part.positions_indexed() <= 7));
        let merged = SeedTable::from_partials(&p, parts, 8);
        assert_eq!(merged.distinct_words(), 0);
        assert_eq!(merged.dropped_repeats(), 13);
    }

    #[test]
    fn spaced_pattern_matches_despite_dont_care_mismatch() {
        // Pattern 1-0-1: middle base free.
        let p: SeedPattern = "101".parse().unwrap();
        let t: Sequence = "AGA".parse().unwrap();
        let q: Sequence = "ATA".parse().unwrap();
        let table = SeedTable::build(&t, &p, usize::MAX);
        let qword = p.extract(q.as_slice(), 0).unwrap();
        assert_eq!(table.lookup(qword), &[0]);
    }
}
