//! The reference oracle for the seed index: the `HashMap<u64, Vec<u32>>`
//! seed table `crates/seed/src/table.rs` held until the flat sorted index
//! replaced it, and the whole-query `BTreeMap` D-SOFT walk that read it,
//! both moved here unchanged (only the `use` lines and the dropped doc
//! example differ). One heap `Vec` per seed word and one map entry per
//! diagonal band of the whole query — large, and for exactly that reason
//! easy to believe. The index under test must answer every `lookup` with
//! the same slice and D-SOFT must return the same [`DsoftResult`] field
//! for field.

use genome::{Base, Sequence};
use seed::dsoft::{DsoftParams, DsoftResult};
use seed::hit::SeedHit;
use seed::pattern::SeedPattern;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// `SeedPattern::extract` as it read a sequence kept one byte a base —
/// the word of the window at `pos`, `None` when it overruns `seq` or
/// samples an `N` — moved here when the sequence went to two bit planes
/// and the pattern to gathering its word from them.
pub fn extract(pattern: &SeedPattern, seq: &[Base], pos: usize) -> Option<u64> {
    if pos + pattern.span() > seq.len() {
        return None;
    }
    let mut word = 0u64;
    let sampled = pattern.to_string().into_bytes();
    for off in (0..sampled.len()).filter(|&off| sampled[off] == b'1') {
        let b = seq[pos + off];
        if b == Base::N {
            return None;
        }
        word = (word << 2) | b.code2() as u64;
    }
    Some(word)
}

/// An index of every seed word in the target genome.
///
/// Built once per target; query positions are then matched by word lookup.
/// Words whose position list exceeds `max_occurrences` are dropped as
/// repeats (the standard masking heuristic — ultra-frequent words come
/// from repetitive DNA and only produce noise).
#[derive(Debug, Clone)]
pub struct SeedTable {
    index: HashMap<u64, Vec<u32>>,
    pattern: SeedPattern,
    positions_indexed: u64,
    dropped_repeats: u64,
}

impl SeedTable {
    /// Indexes every position of `target`.
    ///
    /// `max_occurrences` caps the per-word position list; words over the
    /// cap are removed entirely.
    pub fn build(target: &Sequence, pattern: &SeedPattern, max_occurrences: usize) -> SeedTable {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        let slice = &target.to_bases();
        let mut positions_indexed = 0u64;
        let end = target
            .len()
            .saturating_sub(pattern.span().saturating_sub(1));
        for pos in 0..end {
            if let Some(word) = extract(pattern, slice, pos) {
                index.entry(word).or_default().push(pos as u32);
                positions_indexed += 1;
            }
        }
        let mut dropped_repeats = 0u64;
        // lint: allow(determinism): per-entry predicate + commutative sum — visit order cannot change the surviving set or the count
        index.retain(|_, positions| {
            if positions.len() > max_occurrences {
                dropped_repeats += positions.len() as u64;
                false
            } else {
                true
            }
        });
        SeedTable {
            index,
            pattern: pattern.clone(),
            positions_indexed,
            dropped_repeats,
        }
    }

    /// Target positions whose window hashes to `word`.
    pub fn lookup(&self, word: u64) -> &[u32] {
        self.index.get(&word).map(Vec::as_slice).unwrap_or(&[])
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
        self.index.len()
    }
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
    params.validate();
    let pattern: &SeedPattern = table.pattern();
    let qslice = &query.to_bases();
    let mut result = DsoftResult::default();
    // band key: (chunk index, target bin) → count and first hit.
    // BTreeMap, not HashMap: `into_values` below iterates, and the
    // hits it yields reach canonical output — ordered iteration keeps
    // that path deterministic by construction (wga-lint: determinism).
    let mut bands: BTreeMap<(u32, u32), (u32, SeedHit)> = BTreeMap::new();

    let end = query
        .len()
        .saturating_sub(pattern.span().saturating_sub(1))
        .min(qrange.end);
    // First multiple of the stride at or after the shard start — the
    // same positions the whole-query walk samples inside this range.
    let mut qpos = qrange.start.div_ceil(params.query_stride) * params.query_stride;
    while qpos < end {
        let mut words: Vec<u64> = extract(pattern, qslice, qpos).into_iter().collect();
        if let (true, Some(&exact)) = (params.transitions, words.first()) {
            let fields = (0..pattern.weight()).rev();
            words.extend(fields.map(|field| SeedPattern::transition_variant(exact, field)));
        }
        result.seeds_queried += words.len() as u64;
        let chunk = (qpos / params.chunk_size) as u32;
        for word in words {
            for &tpos in table.lookup(word) {
                result.raw_hits += 1;
                let bin = (tpos as usize / params.bin_size) as u32;
                let entry = bands
                    .entry((chunk, bin))
                    .or_insert((0, SeedHit::new(tpos as usize, qpos)));
                entry.0 += 1;
            }
        }
        qpos += params.query_stride;
    }

    result.bands_touched = bands.len() as u64;
    let mut hits: Vec<SeedHit> = bands
        .into_values()
        .filter(|(count, _)| *count >= params.threshold)
        .map(|(_, hit)| hit)
        .collect();
    hits.sort_unstable();
    hits.dedup();
    result.hits = hits;
    result
}
