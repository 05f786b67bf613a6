//! Lock-free log2-bucketed histograms.
//!
//! A [`Log2Histogram`] sorts `u64` samples into power-of-two buckets:
//! bucket 0 holds the value `0`, and bucket `b` (for `b >= 1`) holds
//! values in `[2^(b-1), 2^b - 1]`. That gives 65 buckets covering the
//! full `u64` range with a single `leading_zeros` instruction per
//! sample and one relaxed atomic increment — cheap enough to sit on
//! the per-tile filter path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit position.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-size log2 histogram over `u64` samples.
///
/// All operations use relaxed atomics; concurrent `observe` calls never
/// block and the snapshot is only guaranteed consistent once the
/// writers have quiesced (which is how the recorder uses it: histograms
/// are rendered after the run finishes).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a sample: `0 -> 0`, otherwise `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `count` samples directly to `bucket` — the trace-reader
    /// path (`wga profile` rebuilds histograms from `{"hist":…}` JSONL
    /// lines, which carry bucket indices, not raw samples).
    ///
    /// Out-of-range bucket indices saturate into the top bucket so a
    /// corrupt trace line cannot panic the reader.
    pub fn record_bucket(&self, bucket: usize, count: u64) {
        let idx = bucket.min(LOG2_BUCKETS - 1);
        self.buckets[idx].fetch_add(count, Ordering::Relaxed);
    }

    /// Adds every bucket of `other` into `self`. Relaxed like the rest
    /// of the API: the result is exact once writers have quiesced, and
    /// merging is associative and commutative (it is per-bucket
    /// integer addition).
    pub fn merge(&self, other: &Log2Histogram) {
        for (idx, bucket) in other.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                self.buckets[idx].fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Bucket index holding the sample at permille rank `p`
    /// (0 ..= 1000): the first bucket where the cumulative count
    /// reaches `ceil(total * p / 1000)` (at least 1, so `p = 0` is the
    /// minimum bucket and `p = 1000` the maximum). `None` when the
    /// histogram is empty. Integer-only, so percentile extraction is
    /// deterministic for the drift engine.
    pub fn percentile_bucket(&self, permille: u64) -> Option<usize> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let p = permille.min(1000);
        let rank = (total.saturating_mul(p)).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(idx);
            }
        }
        // Unreachable in practice (seen == total >= rank by the end);
        // report the top bucket rather than panic.
        Some(LOG2_BUCKETS - 1)
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sparse snapshot: `(bucket_index, count)` for every non-empty
    /// bucket, in ascending bucket order.
    pub fn snapshot(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then_some((idx, count))
            })
            .collect()
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Zero gets its own bucket.
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        // Bucket b covers [2^(b-1), 2^b - 1].
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(7), 3);
        assert_eq!(Log2Histogram::bucket_index(8), 4);
        assert_eq!(Log2Histogram::bucket_index(1 << 20), 21);
        assert_eq!(Log2Histogram::bucket_index((1 << 21) - 1), 21);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_index(1 << 63), 64);
    }

    #[test]
    fn buckets_open_at_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        for bucket in 1..LOG2_BUCKETS {
            let lo = 1u64 << (bucket - 1);
            assert_eq!(Log2Histogram::bucket_index(lo), bucket, "bucket {bucket}");
            // One below the lower bound falls in the previous bucket.
            assert_eq!(Log2Histogram::bucket_index(lo - 1), bucket - 1);
        }
    }

    #[test]
    fn observe_and_snapshot() {
        let h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.snapshot(), vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Log2Histogram::new();
        assert_eq!(h.total(), 0);
        assert!(h.snapshot().is_empty());
        for p in [0, 500, 1000] {
            assert_eq!(h.percentile_bucket(p), None);
        }
    }

    #[test]
    fn single_bucket_percentiles_all_land_there() {
        let h = Log2Histogram::new();
        for _ in 0..7 {
            h.observe(100); // bucket 7: [64, 127]
        }
        for p in [0, 1, 250, 500, 900, 999, 1000] {
            assert_eq!(h.percentile_bucket(p), Some(7), "p={p}");
        }
    }

    #[test]
    fn saturating_top_bucket() {
        let h = Log2Histogram::new();
        h.observe(u64::MAX);
        h.observe(1 << 63);
        // Out-of-range trace bucket indices saturate into the top
        // bucket instead of panicking.
        h.record_bucket(LOG2_BUCKETS + 100, 3);
        assert_eq!(h.total(), 5);
        assert_eq!(h.snapshot(), vec![(LOG2_BUCKETS - 1, 5)]);
        assert_eq!(h.percentile_bucket(1000), Some(LOG2_BUCKETS - 1));
    }

    #[test]
    fn merge_is_associative() {
        let observe_all = |h: &Log2Histogram, vs: &[u64]| {
            for &v in vs {
                h.observe(v);
            }
        };
        let (a1, b1, c1) = (Log2Histogram::new(), Log2Histogram::new(), Log2Histogram::new());
        let (a2, b2, c2) = (Log2Histogram::new(), Log2Histogram::new(), Log2Histogram::new());
        for h in [&a1, &a2] {
            observe_all(h, &[0, 1, 5, 5, 1024]);
        }
        for h in [&b1, &b2] {
            observe_all(h, &[2, 2, 9000, u64::MAX]);
        }
        for h in [&c1, &c2] {
            observe_all(h, &[7]);
        }
        // (a ∪ b) ∪ c ...
        a1.merge(&b1);
        a1.merge(&c1);
        // ... equals a ∪ (b ∪ c).
        b2.merge(&c2);
        a2.merge(&b2);
        assert_eq!(a1.snapshot(), a2.snapshot());
        assert_eq!(a1.total(), 10);
    }

    #[test]
    fn percentile_extraction_orders_buckets() {
        let h = Log2Histogram::new();
        // 90 small samples, 10 large: p50 small, p95+ large.
        for _ in 0..90 {
            h.observe(3); // bucket 2
        }
        for _ in 0..10 {
            h.observe(5000); // bucket 13
        }
        assert_eq!(h.percentile_bucket(0), Some(2));
        assert_eq!(h.percentile_bucket(500), Some(2));
        assert_eq!(h.percentile_bucket(900), Some(2));
        assert_eq!(h.percentile_bucket(901), Some(13));
        assert_eq!(h.percentile_bucket(1000), Some(13));
    }

    #[test]
    fn merge_from_trace_buckets_matches_direct_observation() {
        let direct = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 1024] {
            direct.observe(v);
        }
        let rebuilt = Log2Histogram::new();
        for (bucket, count) in direct.snapshot() {
            rebuilt.record_bucket(bucket, count);
        }
        assert_eq!(rebuilt.snapshot(), direct.snapshot());
    }
}
