//! Differential wall for the seed index.
//!
//! `seed::table` is a position and a key per entry behind a prefix
//! directory and `seed::dsoft` holds one chunk's bands at a time. What they replaced —
//! a `HashMap<u64, Vec<u32>>` and a `BTreeMap` of every band of the query
//! — lives on in `hash_oracle`, unchanged, as the reference (as the
//! ragged-row kernel does for GACT-X). This harness proves the rewrite
//! answers every `lookup` with the identical slice, counts the identical
//! `positions_indexed` / `dropped_repeats` / `distinct_words`, and that
//! D-SOFT returns the **identical `DsoftResult`** in all four fields, over
//! sequences with `N` runs and low-complexity stretches, narrow, default
//! and wide patterns, every repeat cap regime and arbitrary shard cuts —
//! and, since the directory is sized to the target, at every target size
//! where its width changes, and at every width of the key beside it.

mod hash_oracle;

use genome::{Base, Sequence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seed::dsoft::{dsoft_seeds, dsoft_seeds_range, merge_dsoft_results, DsoftParams};
use seed::table::PartialSeedTable;
use seed::{SeedPattern, SeedTable};

/// Random bases, an `N` run, or a short unit repeated (homopolymers,
/// dinucleotide and trinucleotide repeats: the words the repeat cap and
/// the within-bucket sort exist for).
fn segment() -> impl Strategy<Value = Vec<Base>> {
    prop_oneof![
        4 => prop::collection::vec(0u8..4, 1..120)
            .prop_map(|codes| codes.into_iter().map(Base::from_code).collect::<Vec<Base>>()),
        1 => (1usize..12).prop_map(|len| vec![Base::N; len]),
        2 => (prop::collection::vec(0u8..4, 1..4), 4usize..80).prop_map(|(unit, len)| {
            unit.iter().cycle().take(len).map(|&code| Base::from_code(code)).collect::<Vec<Base>>()
        }),
    ]
}

fn messy_dna(max_segments: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(segment(), 1..max_segments)
        .prop_map(|segments| segments.into_iter().flatten().collect())
}

/// Narrow words (the directory covers every bit), the default spaced
/// seed (24 bits behind a 16-bit directory), and a 40-bit word.
fn pattern() -> impl Strategy<Value = SeedPattern> {
    prop_oneof![
        4 => (4usize..=16).prop_map(SeedPattern::exact),
        2 => Just(SeedPattern::lastz_default()),
        1 => Just(SeedPattern::exact(20)),
    ]
}

fn cap() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4usize), Just(usize::MAX)]
}

/// A query that shares words with `target`: the target rotated, with
/// substitutions (half of them transitions) every dozen bases or so.
fn related_query(target: &Sequence, seed: u64) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases = target.as_slice();
    let origin = rng.gen_range(0..bases.len().max(1));
    bases[origin..]
        .iter()
        .chain(&bases[..origin])
        .map(|&base| match rng.gen_range(0u8..24) {
            0 => base.transition_partner(),
            1 => Base::from_code(rng.gen_range(0u8..4)),
            _ => base,
        })
        .collect()
}

/// Every word of `sequence`, one-transition neighbours of a few of them
/// (mostly absent from its table), and words outside the pattern's
/// `2 * weight` bits altogether.
fn probe_words(sequence: &Sequence, pattern: &SeedPattern) -> Vec<u64> {
    let slice = sequence.as_slice();
    let mut words: Vec<u64> = (0..slice.len())
        .filter_map(|pos| pattern.extract(slice, pos))
        .collect();
    let neighbours: Vec<u64> = words
        .iter()
        .step_by(7)
        .flat_map(|&word| pattern.transition_variants(word))
        .collect();
    words.extend(neighbours);
    let word_bits = 2 * pattern.weight();
    words.extend([
        0,
        (1 << word_bits) - 1,
        1 << word_bits,
        u64::MAX - 1,
        u64::MAX,
    ]);
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_index_answers_like_the_hash_table(
        target in messy_dna(14),
        pattern in pattern(),
        cap in cap(),
        raw_cuts in prop::collection::vec(0usize..1500, 0..6),
    ) {
        let oracle = hash_oracle::SeedTable::build(&target, &pattern, cap);
        // Unaligned cuts, empty shards (repeated cuts) and shards past
        // the last base, always covering 0..len.
        let mut cuts = raw_cuts;
        cuts.extend([0, target.len()]);
        cuts.sort_unstable();
        let shards = || cuts.windows(2).map(|w| w[0]..w[1]);
        let parts = || -> Vec<PartialSeedTable> {
            shards().map(|range| SeedTable::build_partial(&target, &pattern, range)).collect()
        };
        let oracle_parts: Vec<hash_oracle::PartialSeedTable> = shards()
            .map(|range| hash_oracle::SeedTable::build_partial(&target, &pattern, range))
            .collect();
        for (part, oracle_part) in parts().iter().zip(&oracle_parts) {
            prop_assert_eq!(part.positions_indexed(), oracle_part.positions_indexed());
        }
        let oracle_sharded = hash_oracle::SeedTable::from_partials(&pattern, oracle_parts, cap);
        let mut reversed = parts();
        reversed.reverse();
        let tables = [
            ("serial", SeedTable::build(&target, &pattern, cap)),
            ("sharded", SeedTable::from_partials(&pattern, parts(), cap)),
            ("sharded, parts reversed", SeedTable::from_partials(&pattern, reversed, cap)),
        ];
        let probes = probe_words(&target, &pattern);
        for (name, table) in &tables {
            prop_assert_eq!(table.positions_indexed(), oracle.positions_indexed(), "{}", name);
            prop_assert_eq!(table.dropped_repeats(), oracle.dropped_repeats(), "{}", name);
            prop_assert_eq!(table.distinct_words(), oracle.distinct_words(), "{}", name);
            prop_assert_eq!(table.distinct_words(), oracle_sharded.distinct_words(), "{}", name);
            let mut largest = None;
            for &word in &probes {
                let found = table.lookup(word);
                prop_assert_eq!(found, oracle.lookup(word), "{}: word {:#x}", name, word);
                prop_assert_eq!(found, oracle_sharded.lookup(word), "{}: word {:#x}", name, word);
                largest = largest.max(found.last().copied());
            }
            let position_end = largest.map_or(0, |pos| pos as usize + 1);
            prop_assert_eq!(table.position_end(), position_end, "{}", name);
        }
    }

    #[test]
    fn chunk_streaming_dsoft_returns_what_the_whole_query_map_did(
        target in messy_dna(14),
        query_seed in any::<u64>(),
        pattern in pattern(),
        cap in cap(),
        transitions in any::<bool>(),
        (query_stride, threshold, chunk_size, bin_size) in (
            prop_oneof![Just(1usize), Just(3usize), Just(7usize)],
            1u32..=2,
            prop_oneof![Just(8usize), Just(32usize), Just(128usize)],
            prop_oneof![Just(8usize), Just(100usize), Just(128usize)],
        ),
        raw_cuts in prop::collection::vec(0usize..40, 0..5),
    ) {
        let query = related_query(&target, query_seed);
        let params = DsoftParams { chunk_size, bin_size, threshold, transitions, query_stride };
        let oracle_table = hash_oracle::SeedTable::build(&target, &pattern, cap);
        let table = SeedTable::build(&target, &pattern, cap);

        let whole = dsoft_seeds(&table, &query, &params);
        let expected = hash_oracle::dsoft_seeds_range(&oracle_table, &query, &params, 0..query.len());
        prop_assert_eq!(&whole, &expected, "whole query, {:?}", params);

        // Chunk-aligned cuts, with empty shards and shards past the end.
        let mut cuts: Vec<usize> = raw_cuts.into_iter().map(|chunks| chunks * chunk_size).collect();
        cuts.extend([0, query.len().next_multiple_of(chunk_size)]);
        cuts.sort_unstable();
        let mut parts = Vec::new();
        for w in cuts.windows(2) {
            let part = dsoft_seeds_range(&table, &query, &params, w[0]..w[1]);
            let expected = hash_oracle::dsoft_seeds_range(&oracle_table, &query, &params, w[0]..w[1]);
            prop_assert_eq!(&part, &expected, "shard {}..{}, {:?}", w[0], w[1], params);
            parts.push(part);
        }
        prop_assert_eq!(merge_dsoft_results(parts), whole, "merged shards, {:?}", params);
    }
}

/// The differential only means something if the generated pairs seed:
/// most cases must produce hits, bands holding several hits (where
/// "first received" and "smallest target position" differ) and dropped
/// repeats.
#[test]
fn generated_cases_exercise_bands_and_the_repeat_cap() {
    let (mut with_hits, mut crowded_bands, mut capped) = (0, 0, 0);
    for case in 0..64 {
        let mut rng = proptest::rng_for(module_path!(), "coverage", case);
        let target = messy_dna(14).generate(&mut rng);
        let query = related_query(&target, case as u64);
        let table = SeedTable::build(&target, &SeedPattern::exact(8), 4);
        let result = dsoft_seeds(
            &table,
            &query,
            &DsoftParams {
                chunk_size: 32,
                bin_size: 32,
                ..DsoftParams::default()
            },
        );
        with_hits += usize::from(!result.hits.is_empty());
        crowded_bands += usize::from(result.raw_hits > 2 * result.bands_touched);
        capped += usize::from(table.dropped_repeats() > 0);
    }
    assert!(with_hits >= 48, "{with_hits} of 64 cases seeded");
    assert!(
        crowded_bands >= 16,
        "{crowded_bands} of 64 cases crowd their bands"
    );
    assert!(capped >= 16, "{capped} of 64 cases hit the repeat cap");
}

/// The directory has ⌈log2 positions⌉ bits between 8 and 16 (and never
/// more than the word): a table one position either side of every power
/// of two, and at both ends of the range, answers like the hash table.
#[test]
fn every_directory_width_answers_like_the_hash_table() {
    let mut sizes = vec![0usize, 1, 255, 256, 257];
    sizes.extend((9..=17).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]));
    // A 24-bit word behind every directory width, and a 10-bit word the
    // directory covers whole once the target outgrows it.
    for (pattern, cap) in [(SeedPattern::lastz_default(), 1000), (SeedPattern::exact(5), 300)] {
        for &positions in &sizes {
            let len = if positions == 0 { 0 } else { positions + pattern.span() - 1 };
            let mut rng = StdRng::seed_from_u64(positions as u64);
            let target: Sequence =
                (0..len).map(|_| Base::from_code(rng.gen_range(0u8..4))).collect();
            let oracle = hash_oracle::SeedTable::build(&target, &pattern, cap);
            assert_eq!(oracle.positions_indexed(), positions as u64);
            let cuts = [0, positions / 3, positions / 3, len];
            let parts = cuts.windows(2).map(|w| SeedTable::build_partial(&target, &pattern, w[0]..w[1]));
            for (name, table) in [
                ("serial", SeedTable::build(&target, &pattern, cap)),
                ("sharded", SeedTable::from_partials(&pattern, parts, cap)),
            ] {
                let label = format!("{name}, {pattern}, {positions} positions");
                assert_eq!(table.positions_indexed(), oracle.positions_indexed(), "{label}");
                assert_eq!(table.dropped_repeats(), oracle.dropped_repeats(), "{label}");
                assert_eq!(table.distinct_words(), oracle.distinct_words(), "{label}");
                for word in probe_words(&target, &pattern) {
                    assert_eq!(table.lookup(word), oracle.lookup(word), "{label}: word {word:#x}");
                }
            }
        }
    }
}

/// Bits of a word of `pattern` that a table of `positions` keeps as the
/// key: those below a directory prefix of ⌈log2 positions⌉ bits, from 8
/// to 16 and never more than the word.
fn key_bits(pattern: &SeedPattern, positions: usize) -> u32 {
    let word_bits = 2 * pattern.weight() as u32;
    let directory_bits = positions.next_power_of_two().trailing_zeros().clamp(8, 16);
    word_bits - directory_bits.min(word_bits)
}

/// A target of exactly `positions` windows of `exact(k)` whose buckets
/// hold every arrangement of a run of equal keys. `run` windows of
/// poly-A then a C: the all-zero word's run opens bucket 0 and larger
/// keys follow it. A G then `run` windows of poly-T: the all-ones word's
/// run closes the last bucket behind smaller keys. `ACGT` over and over:
/// four words, each a run that is the whole of its bucket (when the
/// prefix covers four bases). An `N`, and random bases to make up the
/// count — with a stretch of them copied in twice more, so that words of
/// any width come in threes.
fn bucket_edges_target(k: usize, run: usize, positions: usize, seed: u64) -> Sequence {
    let pattern = SeedPattern::exact(k);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random = |n: usize| -> Vec<Base> {
        (0..n).map(|_| Base::from_code(rng.gen_range(0u8..4))).collect()
    };
    let unit = random(k + 4);
    let mut bases = vec![Base::A; k + run - 1];
    bases.push(Base::C);
    bases.extend(random(3));
    bases.extend([Base::A, Base::C, Base::G, Base::T].iter().cycle().take(k + 4 * run));
    bases.push(Base::N);
    bases.extend(unit.iter().chain(&random(2)).chain(&unit).chain(&random(1)).chain(&unit));
    bases.push(Base::G);
    bases.extend(vec![Base::T; k + run - 1]);
    let windows = |bases: &[Base]| (0..bases.len()).filter(|&pos| pattern.extract(bases, pos).is_some()).count();
    assert!(windows(&bases) <= positions, "{} windows before padding", windows(&bases));
    // Padding goes in front, so poly-T still ends the target.
    let mut padded = random(positions - windows(&bases));
    padded.push(Base::C);
    padded.extend(bases);
    while windows(&padded) > positions {
        padded.remove(0);
    }
    assert_eq!(windows(&padded), positions);
    padded.into_iter().collect()
}

/// The key beside a position is a `u8`, `u16`, `u32` or `u64` — or
/// nothing, when the directory covers the word: a table at every width,
/// at the last key size that fits it and the first that does not, under
/// caps that keep a run, drop exactly it, and drop everything, built
/// whole and from uneven shards handed over back to front, answers like
/// the hash table, and D-SOFT over it — each width is its own walk —
/// returns what the whole-query map did.
#[test]
fn every_key_width_answers_like_the_hash_table() {
    const RUN: usize = 5;
    // (k, positions, key bits): an 8-bit directory up to 256 positions,
    // a 9-bit one up to 512.
    let widths = [
        (4, 200, 0),
        (5, 400, 1),
        (8, 250, 8),
        (9, 300, 9),
        (12, 256, 16),
        (13, 257, 17),
        (20, 200, 32),
        (21, 512, 33),
        (31, 180, 54),
    ];
    for (k, positions, bits) in widths {
        let pattern = SeedPattern::exact(k);
        assert_eq!(key_bits(&pattern, positions), bits, "exact({k}) over {positions} positions");
        let target = bucket_edges_target(k, RUN, positions, k as u64);
        let query = related_query(&target, 7 * k as u64);
        let probes = probe_words(&target, &pattern);
        let poly_a = hash_oracle::SeedTable::build(&target, &pattern, usize::MAX).lookup(0).len();
        assert!(poly_a >= RUN, "exact({k}): poly-A run of {poly_a}");
        for cap in [1, poly_a, poly_a - 1, usize::MAX] {
            let oracle = hash_oracle::SeedTable::build(&target, &pattern, cap);
            assert_eq!(oracle.positions_indexed(), positions as u64);
            assert_eq!(oracle.lookup(0).len(), if cap >= poly_a { poly_a } else { 0 });
            let cuts = [0, 1, positions / 5, positions / 5, positions - 3, target.len()];
            let reversed: Vec<PartialSeedTable> = cuts
                .windows(2)
                .rev()
                .map(|w| SeedTable::build_partial(&target, &pattern, w[0]..w[1]))
                .collect();
            for (name, table) in [
                ("serial", SeedTable::build(&target, &pattern, cap)),
                ("sharded, parts reversed", SeedTable::from_partials(&pattern, reversed, cap)),
            ] {
                let label = format!("{name}, exact({k}), {bits} key bits, cap {cap}");
                assert_eq!(table.positions_indexed(), oracle.positions_indexed(), "{label}");
                assert_eq!(table.dropped_repeats(), oracle.dropped_repeats(), "{label}");
                assert_eq!(table.distinct_words(), oracle.distinct_words(), "{label}");
                let mut largest = None;
                for &word in &probes {
                    let found = table.lookup(word);
                    assert_eq!(found, oracle.lookup(word), "{label}: word {word:#x}");
                    largest = largest.max(found.last().copied());
                }
                assert_eq!(table.position_end(), largest.map_or(0, |pos| pos as usize + 1), "{label}");
                for transitions in [false, true] {
                    let params = DsoftParams {
                        chunk_size: 32,
                        bin_size: 16,
                        threshold: 1,
                        transitions,
                        query_stride: 1,
                    };
                    assert_eq!(
                        dsoft_seeds(&table, &query, &params),
                        hash_oracle::dsoft_seeds_range(&oracle, &query, &params, 0..query.len()),
                        "{label}, transitions {transitions}"
                    );
                }
            }
        }
    }
}
