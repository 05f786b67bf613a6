//! Seed table: a flat sorted index from seed words to target positions.
//!
//! Darwin's D-SOFT reads a *seed position table*: a pointer table over
//! one flat array of positions. This is that layout for a word space too
//! large to point into directly (4^12 words for the default seed, 4^31 at
//! the widest): the distinct words that occur, sorted, each with the
//! offset of its run in one `positions` array, and a fixed directory over
//! the words' top bits in front so a lookup searches a handful of words.

use crate::pattern::SeedPattern;
use genome::Sequence;
use std::ops::Range;

/// Longest target a table can index: positions and offsets are `u32`.
/// Windows starting at or past it are not indexed; callers reject such
/// a target before building (the pipeline does, with a typed error).
pub const MAX_TARGET_LEN: usize = u32::MAX as usize;

/// The directory is indexed by this many of a word's top bits (all of
/// them for a pattern of weight 8 or less): 2^16 + 1 `u32`s, 256 KiB,
/// which leaves a lookup of the default 24-bit word at most 256 words to
/// search and, on a 100 Mbp target, a few hundred.
const DIRECTORY_BITS: u32 = 16;

/// One indexed window: its seed word and where it starts.
type Entry = (u64, u32);

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
        // Exact unless windows hold an `N`, so the run never regrows.
        let mut entries = Vec::with_capacity(end.saturating_sub(start) as usize);
        for pos in start..end {
            if let Some(word) = pattern.extract(slice, pos as usize) {
                entries.push((word, pos));
            }
        }
        PartialSeedTable { entries }
    }

    /// Merges per-shard runs into a whole-target [`SeedTable`].
    ///
    /// One counting sort on the directory prefix scatters every shard's
    /// entries into their bucket, each bucket is sorted by (word,
    /// position), and one pass over the sorted run emits the three flat
    /// arrays. Sorting by position inside a word puts every position list
    /// in ascending order whatever order the shards arrive in — exactly
    /// the serial build's lists. The `max_occurrences` repeat cap is
    /// applied to the merged run, against whole-target counts, so a
    /// repeat word split across shards is still dropped exactly as the
    /// serial build drops it.
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
        let word_bits = 2 * pattern.weight() as u32;
        let directory_bits = word_bits.min(DIRECTORY_BITS);
        let directory_shift = word_bits - directory_bits;
        let bucket = |word: u64| (word >> directory_shift) as usize;

        let parts: Vec<PartialSeedTable> = parts.into_iter().collect();
        let total: usize = parts.iter().map(|part| part.entries.len()).sum();
        assert!(
            total <= MAX_TARGET_LEN,
            "{total} entries overflow u32 offsets"
        );

        // bounds[p]..bounds[p + 1] is bucket p's stretch of the sorted run.
        let mut bounds = vec![0u32; (1usize << directory_bits) + 1];
        for part in &parts {
            for &(word, _) in &part.entries {
                bounds[bucket(word) + 1] += 1;
            }
        }
        accumulate(&mut bounds);
        let mut sorted: Vec<Entry> = vec![(0, 0); total];
        let mut cursor = bounds.clone();
        for part in parts {
            for entry in part.entries {
                let slot = &mut cursor[bucket(entry.0)];
                sorted[*slot as usize] = entry;
                *slot += 1;
            }
        }
        drop(cursor);
        for bound in bounds.windows(2) {
            sorted[bound[0] as usize..bound[1] as usize].sort_unstable();
        }

        // Sized first, so the resident arrays carry no growth slack.
        let runs = || sorted.chunk_by(|a, b| a.0 == b.0);
        let (mut kept_words, mut kept_positions, mut dropped_repeats) = (0usize, 0usize, 0u64);
        for run in runs() {
            if run.len() > max_occurrences {
                dropped_repeats += run.len() as u64;
            } else {
                kept_words += 1;
                kept_positions += run.len();
            }
        }
        let mut words = Vec::with_capacity(kept_words);
        let mut offsets = Vec::with_capacity(kept_words + 1);
        let mut positions = Vec::with_capacity(kept_positions);
        let mut directory = bounds;
        directory.fill(0);
        let mut position_end = 0usize;
        for run in runs().filter(|run| run.len() <= max_occurrences) {
            let (word, last) = run[run.len() - 1];
            directory[bucket(word) + 1] += 1;
            words.push(word);
            offsets.push(positions.len() as u32);
            positions.extend(run.iter().map(|&(_, pos)| pos));
            position_end = position_end.max(last as usize + 1);
        }
        offsets.push(positions.len() as u32);
        accumulate(&mut directory);

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

/// One shard of a [`SeedTable`] under construction: the (word, position)
/// run of an ascending range of target positions, in position order,
/// before the sort and the repeat cap.
///
/// Produced by [`SeedTable::build_partial`], consumed by
/// [`SeedTable::from_partials`].
#[derive(Debug)]
pub struct PartialSeedTable {
    entries: Vec<Entry>,
}

impl PartialSeedTable {
    /// Number of positions this shard indexed.
    pub fn positions_indexed(&self) -> u64 {
        self.entries.len() as u64
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
