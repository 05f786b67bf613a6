//! The query ranges a strand is seeded and filtered in.
//!
//! The unit of work inside a pair is a *query range* ([`QueryRanges`]):
//! `--shard-size` bases rounded up to whole D-SOFT chunks, so every
//! diagonal band stays inside one range and the cuts depend on the
//! parameters alone — not on the thread count. A range is seeded, its
//! hits are filtered, and only the survivors outlive it: no schedule
//! holds a strand's hit list (DESIGN.md, "Seed → filter streaming"). One
//! thread walks the ranges in a plain loop; the dataflow producer queues
//! each range as a task, and a pool worker seeds and filters it.
//! Survivors are put back in hit order before the extension sees
//! them, so the range size never reaches canonical output.

use std::ops::Range;

/// The chunk-aligned ranges one query strand is seeded and filtered in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryRanges {
    /// Bases per range: `shard_bases` rounded up to whole D-SOFT chunks.
    size: usize,
    /// Query length.
    len: usize,
}

impl QueryRanges {
    pub(crate) fn new(shard_bases: usize, chunk_size: usize, len: usize) -> QueryRanges {
        let chunk = chunk_size.max(1);
        let size = shard_bases.max(1).div_ceil(chunk).saturating_mul(chunk);
        QueryRanges { size, len }
    }

    /// Number of ranges; none for an empty query.
    pub(crate) fn count(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    /// Range `idx`, the last one cut short at the query's end.
    pub(crate) fn get(&self, idx: usize) -> Range<usize> {
        let start = idx.saturating_mul(self.size).min(self.len);
        start..start.saturating_add(self.size).min(self.len)
    }

    /// The range holding query position `pos`.
    pub(crate) fn index_of(&self, pos: usize) -> usize {
        pos / self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ranges_cover_and_align() {
        for (len, shard, chunk) in [
            (100_000, 2048, 128),
            (5_000, 2048, 1),
            (129, 1, 64),
            (0, 2048, 128),
            (4096, 2048, 128),
        ] {
            let ranges = QueryRanges::new(shard, chunk, len);
            let mut expect = 0usize;
            for idx in 0..ranges.count() {
                let r = ranges.get(idx);
                assert_eq!(r.start, expect, "contiguous");
                assert!(r.end > r.start, "non-empty");
                assert_eq!(r.start % chunk, 0, "aligned cut");
                if r.end != len {
                    assert!(r.end - r.start >= shard, "respects floor");
                }
                assert_eq!(ranges.index_of(r.start), idx);
                assert_eq!(ranges.index_of(r.end - 1), idx);
                expect = r.end;
            }
            assert_eq!(expect, len, "covers 0..len");
        }
    }
}
