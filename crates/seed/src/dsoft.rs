//! D-SOFT seeding as modified for Darwin-WGA (§III-B, Fig. 4a).
//!
//! The query is split into chunks of `c` bases; target positions are
//! grouped into bins of `b` bases. A (chunk, bin) pair identifies one
//! *diagonal band*. Seed hits are counted per band, and a band whose hit
//! count reaches the threshold `h` contributes **at most one** seed hit to
//! the filtering stage — this de-duplication of nearby hits is what keeps
//! the (enormous) seeding output tractable for the filter.
//!
//! Memory follows one chunk, not the query: a band is keyed by its chunk,
//! and query positions are walked in ascending order, so when the walk
//! leaves a chunk every band of it has its final count and first hit.
//! The walk keeps one hit counter per target bin and clears the touched
//! ones at each chunk's end — the bin-count memory and non-zero-bin list
//! of Darwin's D-SOFT unit — instead of a map of every band of the query.

use crate::hit::SeedHit;
use crate::pattern::SeedPattern;
use crate::table::{Entries, SeedTable};
use genome::Sequence;
use std::ops::Range;

/// D-SOFT parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsoftParams {
    /// Query chunk size `c` (bases).
    pub chunk_size: usize,
    /// Target bin size `b` (bases).
    pub bin_size: usize,
    /// Minimum seed hits per diagonal band `h`.
    pub threshold: u32,
    /// Whether to look up one-transition seed variants as well.
    pub transitions: bool,
    /// Stride between sampled query positions (1 = every position).
    pub query_stride: usize,
}

impl DsoftParams {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes, stride or threshold.
    pub fn validate(&self) {
        assert!(self.chunk_size > 0, "chunk size must be positive");
        assert!(self.bin_size > 0, "bin size must be positive");
        assert!(self.threshold > 0, "threshold must be positive");
        assert!(self.query_stride > 0, "stride must be positive");
    }
}

impl Default for DsoftParams {
    fn default() -> Self {
        DsoftParams {
            chunk_size: 128,
            bin_size: 128,
            threshold: 1,
            transitions: true,
            query_stride: 1,
        }
    }
}

/// Output of D-SOFT seeding, with workload counters for Table V.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DsoftResult {
    /// One representative seed hit per qualifying diagonal band.
    pub hits: Vec<SeedHit>,
    /// Seed words looked up (the paper's "Seeds" workload column).
    pub seeds_queried: u64,
    /// Raw (pre-banding) seed hits found.
    pub raw_hits: u64,
    /// Number of diagonal bands that received at least one hit.
    pub bands_touched: u64,
}

/// What a D-SOFT walk holds besides its output — Darwin's bin-count
/// memory and non-zero-bin list — owned by the caller so that a run of
/// walks (a strand's query ranges, one after another on one worker)
/// allocates and zeroes it once, not once per range.
///
/// Every bin counter is zero whenever a walk is not inside a chunk, so
/// one scratch serves any sequence of walks, over any tables.
#[derive(Debug, Default)]
pub struct DsoftScratch {
    /// Seed hits of the current chunk per target bin.
    bin_counts: Vec<u32>,
    /// The first hit of every bin the current chunk has touched: which
    /// counters to read and clear when the chunk ends.
    first_hits: Vec<SeedHit>,
}

/// Runs D-SOFT seeding of `query` against an indexed target.
///
/// Returns at most one hit per (chunk, target-bin) diagonal band — the
/// *first* hit the band received, which sits closest to the band's
/// upstream edge and therefore centres the filter tile best.
///
/// # Examples
///
/// ```
/// use genome::Sequence;
/// use seed::{dsoft::{dsoft_seeds, DsoftParams}, pattern::SeedPattern, table::SeedTable};
///
/// let t: Sequence = "TTTTTTTTACGTACGTACGTACGTTTTTTTTT".parse()?;
/// let q: Sequence = "GGGGACGTACGTACGTACGTGGGG".parse()?;
/// let pattern = SeedPattern::exact(12);
/// let table = SeedTable::build(&t, &pattern, 64);
/// let result = dsoft_seeds(&table, &q, &DsoftParams::default());
/// assert!(!result.hits.is_empty());
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn dsoft_seeds(table: &SeedTable, query: &Sequence, params: &DsoftParams) -> DsoftResult {
    dsoft_seeds_range(table, query, params, 0..query.len())
}

/// Runs D-SOFT seeding over one shard of query positions.
///
/// Identical to [`dsoft_seeds`] restricted to sampled query positions in
/// `qrange` (the stride phase is global: the first sampled position is
/// the smallest multiple of `query_stride` at or after `qrange.start`,
/// exactly the positions the whole-query walk would visit there).
///
/// Sharding is *exact* — [`merge_dsoft_results`] over any partition of
/// `0..query.len()` reproduces the whole-query [`DsoftResult`] byte for
/// byte — **provided every cut is a multiple of `params.chunk_size`**.
/// Chunk-aligned cuts keep each (chunk, bin) diagonal band confined to
/// one shard, so per-shard band counts, threshold filtering and
/// first-hit selection all match the global walk. A cut inside a chunk
/// would split that chunk's bands across shards and double-count them.
pub fn dsoft_seeds_range(
    table: &SeedTable,
    query: &Sequence,
    params: &DsoftParams,
    qrange: Range<usize>,
) -> DsoftResult {
    dsoft_seeds_range_in(table, query, params, qrange, &mut DsoftScratch::default())
}

/// [`dsoft_seeds_range`] over a caller-owned [`DsoftScratch`]: the form a
/// driver walking many ranges uses, one scratch per worker.
pub fn dsoft_seeds_range_in(
    table: &SeedTable,
    query: &Sequence,
    params: &DsoftParams,
    qrange: Range<usize>,
    scratch: &mut DsoftScratch,
) -> DsoftResult {
    params.validate();
    // The entry width is settled here, once: inside `walk` a lookup is
    // straight-line code, not a dispatch per word.
    match table.entries() {
        Entries::Narrow(entries) => walk(table, entries, query, params, qrange, scratch),
        Entries::Wide(entries) => walk(table, entries, query, params, qrange, scratch),
    }
}

/// [`dsoft_seeds_range`] over a table whose entry width is known:
/// `entries` are `table`'s.
fn walk<E: Copy + Into<u64>>(
    table: &SeedTable,
    entries: &[E],
    query: &Sequence,
    params: &DsoftParams,
    qrange: Range<usize>,
    scratch: &mut DsoftScratch,
) -> DsoftResult {
    let directory = table.directory();
    let position_mask = directory.position_mask();
    let pattern: &SeedPattern = table.pattern();
    let mut result = DsoftResult::default();
    // Query positions ascend, so a chunk's diagonal bands are complete
    // when the walk leaves the chunk. Only the current chunk's bands are
    // held, as Darwin's D-SOFT holds them: a hit count per target bin,
    // and the first hit of every bin the chunk has touched — the list
    // that says which counts to read and clear when the chunk ends.
    let DsoftScratch {
        bin_counts,
        first_hits,
    } = scratch;
    bin_counts.resize(table.position_end().div_ceil(params.bin_size), 0);

    let end = query
        .len()
        .saturating_sub(pattern.span().saturating_sub(1))
        .min(qrange.end);
    // First multiple of the stride at or after the shard start — the
    // same positions the whole-query walk samples inside this range.
    let mut qpos = qrange.start.div_ceil(params.query_stride) * params.query_stride;
    let variants = if params.transitions {
        pattern.weight()
    } else {
        0
    };
    while qpos < end {
        let chunk_end = (qpos - qpos % params.chunk_size)
            .saturating_add(params.chunk_size)
            .min(end);
        while qpos < chunk_end {
            if let Some(exact) = pattern.extract(query, qpos) {
                // The exact word, then its variants first sampled
                // position first, in one loop with one
                // counter: its body is compiled in here, which a closure
                // called for the exact word and again for the variants
                // was not (DESIGN.md, "Seed index").
                let mut word = exact;
                let mut left = variants;
                loop {
                    for &entry in directory.run(entries, word) {
                        let tpos = (entry.into() & position_mask) as usize;
                        result.raw_hits += 1;
                        let count = &mut bin_counts[tpos / params.bin_size];
                        if *count == 0 {
                            first_hits.push(SeedHit::new(tpos, qpos));
                        }
                        *count += 1;
                    }
                    if left == 0 {
                        break;
                    }
                    left -= 1;
                    word = SeedPattern::transition_variant(exact, left);
                }
                result.seeds_queried += pattern.words_per_position(params.transitions) as u64;
            }
            qpos = qpos.saturating_add(params.query_stride);
        }
        result.bands_touched += first_hits.len() as u64;
        for hit in first_hits.drain(..) {
            let count = std::mem::take(&mut bin_counts[hit.target_pos as usize / params.bin_size]);
            if count >= params.threshold {
                result.hits.push(hit);
            }
        }
    }

    result.hits.sort_unstable();
    result
}

/// Merges per-shard [`dsoft_seeds_range`] outputs back into the
/// whole-query result.
///
/// Hits concatenate and re-sort into the same canonical order
/// [`dsoft_seeds`] emits (each hit belongs to exactly one diagonal band,
/// and chunk-aligned cuts keep every band inside one shard, so the
/// concatenation has no duplicates and the counters sum exactly).
/// Accepts the parts in any order — the sort canonicalises.
pub fn merge_dsoft_results(parts: impl IntoIterator<Item = DsoftResult>) -> DsoftResult {
    let mut merged = DsoftResult::default();
    for part in parts {
        merged.hits.extend(part.hits);
        merged.seeds_queried += part.seeds_queried;
        merged.raw_hits += part.raw_hits;
        merged.bands_touched += part.bands_touched;
    }
    merged.hits.sort_unstable();
    merged.hits.dedup();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(target: &str, pattern_k: usize) -> (SeedTable, SeedPattern) {
        let t: Sequence = target.parse().unwrap();
        let p = SeedPattern::exact(pattern_k);
        (SeedTable::build(&t, &p, usize::MAX), p)
    }

    #[test]
    fn finds_exact_match_hit() {
        let shared = "ACGGTCAGTCGATTGCAGTC";
        let target = format!("TTTTTTTT{shared}TTTTTTTT");
        let query = format!("GGGG{shared}GGGG");
        let (table, _) = setup(&target, 12);
        let q: Sequence = query.parse().unwrap();
        let r = dsoft_seeds(&table, &q, &DsoftParams::default());
        assert!(!r.hits.is_empty());
        let hit = r.hits[0];
        assert_eq!(hit.target_pos, 8);
        assert_eq!(hit.query_pos, 4);
    }

    #[test]
    fn one_hit_per_band() {
        // A long shared region produces many raw hits but bands collapse
        // them to a handful.
        let shared = "ACGGTCAGTCGATTGCAGTCACGGTCAGTCGATTGCAGTC".repeat(4);
        let target = shared.clone();
        let (table, _) = setup(&target, 12);
        let q: Sequence = shared.parse().unwrap();
        let params = DsoftParams {
            chunk_size: 64,
            bin_size: 64,
            threshold: 1,
            transitions: false,
            query_stride: 1,
        };
        let r = dsoft_seeds(&table, &q, &params);
        assert!(r.raw_hits > r.hits.len() as u64 * 3);
        assert!(r.hits.len() as u64 <= r.bands_touched);
    }

    #[test]
    fn threshold_filters_sparse_bands() {
        let shared = "ACGGTCAGTCGATTGCAGTC"; // 20 bp → 9 seed positions at k=12
        let target = format!("TTTTTTTT{shared}TTTTTTTTTT");
        let query = format!("GGGG{shared}GGGGGG");
        let (table, _) = setup(&target, 12);
        let q: Sequence = query.parse().unwrap();
        let lenient = DsoftParams {
            threshold: 1,
            transitions: false,
            ..DsoftParams::default()
        };
        let strict = DsoftParams {
            threshold: 50,
            transitions: false,
            ..DsoftParams::default()
        };
        assert!(!dsoft_seeds(&table, &q, &lenient).hits.is_empty());
        assert!(dsoft_seeds(&table, &q, &strict).hits.is_empty());
    }

    #[test]
    fn transitions_increase_lookups_and_can_rescue_hits() {
        // Query differs from target by one transition (A→G) inside the
        // only seed window.
        let target = "TTTTACGTACGTACGTTTTT";
        let query = "GGGGGCGTACGTACGTGGGG"; // A→G at the window start
        let (table, _) = setup(target, 12);
        let q: Sequence = query.parse().unwrap();
        let without = dsoft_seeds(
            &table,
            &q,
            &DsoftParams {
                transitions: false,
                ..DsoftParams::default()
            },
        );
        let with = dsoft_seeds(
            &table,
            &q,
            &DsoftParams {
                transitions: true,
                ..DsoftParams::default()
            },
        );
        assert!(with.seeds_queried > without.seeds_queried * 10);
        assert!(with.raw_hits >= without.raw_hits);
        assert!(!with.hits.is_empty());
    }

    #[test]
    fn stride_reduces_lookups() {
        let target = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let (table, _) = setup(target, 12);
        let q: Sequence = target.parse().unwrap();
        let stride1 = dsoft_seeds(
            &table,
            &q,
            &DsoftParams {
                transitions: false,
                ..DsoftParams::default()
            },
        );
        let stride4 = dsoft_seeds(
            &table,
            &q,
            &DsoftParams {
                transitions: false,
                query_stride: 4,
                ..DsoftParams::default()
            },
        );
        assert!(stride4.seeds_queried < stride1.seeds_queried);
        assert!(!stride4.hits.is_empty());
    }

    #[test]
    fn chunk_aligned_shards_merge_to_whole_query_result() {
        let unit = "ACGGTCAGTCGATTGCAGTCTTAGGCCATA";
        let target: String = unit.repeat(40);
        let (table, _) = setup(&target, 12);
        let q: Sequence = unit.repeat(37).parse().unwrap();
        for (chunk_size, stride, threshold) in [(64, 1, 1), (32, 3, 2), (128, 7, 1)] {
            let params = DsoftParams {
                chunk_size,
                bin_size: 64,
                threshold,
                transitions: false,
                query_stride: stride,
            };
            let whole = dsoft_seeds(&table, &q, &params);
            assert!(!whole.hits.is_empty());
            // Uneven chunk-aligned cuts, including an empty final shard.
            let cuts = [
                0,
                chunk_size,
                chunk_size * 4,
                chunk_size * 5,
                q.len().div_ceil(chunk_size) * chunk_size,
            ];
            let parts: Vec<DsoftResult> = cuts
                .windows(2)
                .map(|w| dsoft_seeds_range(&table, &q, &params, w[0]..w[1]))
                .collect();
            assert_eq!(
                merge_dsoft_results(parts),
                whole,
                "c={chunk_size} stride={stride} h={threshold}"
            );
        }
    }

    #[test]
    fn full_range_equals_whole_query() {
        let shared = "ACGGTCAGTCGATTGCAGTC".repeat(8);
        let (table, _) = setup(&shared, 12);
        let q: Sequence = shared.parse().unwrap();
        let params = DsoftParams::default();
        assert_eq!(
            dsoft_seeds_range(&table, &q, &params, 0..q.len()),
            dsoft_seeds(&table, &q, &params)
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_zero_threshold() {
        let (table, _) = setup("ACGTACGTACGTACGT", 12);
        let q: Sequence = "ACGTACGTACGTACGT".parse().unwrap();
        dsoft_seeds(
            &table,
            &q,
            &DsoftParams {
                threshold: 0,
                ..DsoftParams::default()
            },
        );
    }
}
