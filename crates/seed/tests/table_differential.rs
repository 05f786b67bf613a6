//! Differential wall for the seed index.
//!
//! `seed::table` is one integer per entry, key and position, behind a
//! prefix directory and `seed::dsoft` holds one chunk's bands at a time.
//! The reference is `hash_oracle`: a `HashMap<u64, Vec<u32>>` table and a
//! `BTreeMap` of every band of the query (as the ragged-row kernel is for
//! GACT-X). This harness proves the table
//! answers every `lookup` with the identical positions, counts the identical
//! `positions_indexed` / `dropped_repeats` / `distinct_words`, and that
//! D-SOFT returns the **identical `DsoftResult`** in all four fields, over
//! sequences with `N` runs and low-complexity stretches, narrow, default
//! and wide patterns and every repeat cap regime — and, since the
//! directory and the position field are sized to the target, at every
//! target size where either width changes, and at both entry widths.
//!
//! The table gathers its words from the sequence's packed planes
//! (`SeedPattern::extract`, 32 bases of 2-bit codes and their `N` bits a
//! read) where the oracle reads a byte a base (`hash_oracle::extract`),
//! so every target here also comes
//! *spoiled*: an `N` for its first and last base, a lone `N` that every
//! offset of the pattern slides over, and a run of `N` longer than the
//! span; the patterns reach past the 32 bases a packed read holds, where
//! `extract` goes base by base; and the targets go down to the span, one
//! base short of it, and nothing. The two extracts are also compared
//! directly, at every position of targets cut and spoiled at the planes'
//! 32- and 64-base seams.

mod hash_oracle;

use genome::{Base, Sequence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seed::dsoft::{dsoft_seeds, dsoft_seeds_range, merge_dsoft_results, DsoftParams};
use seed::{SeedPattern, SeedTable};
use std::ops::RangeInclusive;

/// Random bases, an `N` run (shorter than the spans or longer), or a
/// short unit repeated (homopolymers,
/// dinucleotide and trinucleotide repeats: the words the repeat cap and
/// the within-bucket sort exist for).
fn segment() -> impl Strategy<Value = Vec<Base>> {
    prop_oneof![
        4 => prop::collection::vec(0u8..4, 1..120)
            .prop_map(|codes| codes.into_iter().map(Base::from_code).collect::<Vec<Base>>()),
        1 => prop_oneof![1usize..12, 20usize..45].prop_map(|len| vec![Base::N; len]),
        2 => (prop::collection::vec(0u8..4, 1..4), 4usize..80).prop_map(|(unit, len)| {
            unit.iter().cycle().take(len).map(|&code| Base::from_code(code)).collect::<Vec<Base>>()
        }),
    ]
}

fn messy_dna(max_segments: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(segment(), 1..max_segments)
        .prop_map(|segments| segments.into_iter().flatten().collect())
}

/// `exact(weight)` pulled apart in the middle by `gap` don't-cares: the
/// same word and key widths over a wider window.
fn spaced(weight: usize, gap: usize) -> SeedPattern {
    let (left, right) = (weight / 2, weight - weight / 2);
    format!(
        "{}{}{}",
        "1".repeat(left),
        "0".repeat(gap),
        "1".repeat(right)
    )
    .parse()
    .expect("a pattern")
}

/// Narrow words (the directory covers every bit), the default spaced
/// seed (24 bits behind the 8-bit floor), a 40-bit word, and windows
/// of 32 bases (the last a packed read holds), 33 and 40 (read base by
/// base).
fn pattern() -> impl Strategy<Value = SeedPattern> {
    prop_oneof![
        4 => (4usize..=16).prop_map(SeedPattern::exact),
        2 => Just(SeedPattern::lastz_default()),
        1 => Just(SeedPattern::exact(20)),
        1 => (20usize..=21).prop_map(|weight| spaced(weight, 12)),
        1 => Just(spaced(10, 30)),
    ]
}

/// `target` with what the packed read must not trip on: an `N` for the
/// first base and the last, a lone `N` a quarter of the way in (every
/// offset of the pattern, sampled or not, slides over it) and, half way,
/// a run of `N` three longer than `span`.
fn spoiled(target: &Sequence, span: usize) -> Sequence {
    let mut bases = target.to_bases();
    if let [first, .., last] = &mut bases[..] {
        (*first, *last) = (Base::N, Base::N);
    }
    if let Some(lone) = bases.get_mut(target.len() / 4) {
        *lone = Base::N;
    }
    let half = bases.len() / 2;
    bases.splice(half..half, vec![Base::N; span + 3]);
    bases.into_iter().collect()
}

fn cap() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4usize), Just(usize::MAX)]
}

/// A query that shares words with `target`: the target rotated, with
/// substitutions (half of them transitions) every dozen bases or so.
fn related_query(target: &Sequence, seed: u64) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases = &target.to_bases();
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
    let slice = &sequence.to_bases();
    let mut words: Vec<u64> = (0..slice.len())
        .filter_map(|pos| hash_oracle::extract(pattern, slice, pos))
        .collect();
    let neighbours: Vec<u64> = words
        .iter()
        .step_by(7)
        .flat_map(|&word| {
            (0..pattern.weight()).map(move |field| SeedPattern::transition_variant(word, field))
        })
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
    ) {
        let oracle = hash_oracle::SeedTable::build(&target, &pattern, cap);
        assert_answers_like(&oracle, &target, &pattern, cap, "generated");
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

/// What [`SeedTable::build`] must share with the oracle's table of the
/// same target: the three counts, the slice behind every probe word, and
/// the end of the positions.
fn assert_answers_like(
    oracle: &hash_oracle::SeedTable,
    target: &Sequence,
    pattern: &SeedPattern,
    cap: usize,
    label: &str,
) -> SeedTable {
    let table = SeedTable::build(target, pattern, cap);
    assert_eq!(
        table.positions_indexed(),
        oracle.positions_indexed(),
        "{label}"
    );
    assert_eq!(table.dropped_repeats(), oracle.dropped_repeats(), "{label}");
    assert_eq!(table.distinct_words(), oracle.distinct_words(), "{label}");
    let mut largest = None;
    for word in probe_words(target, pattern) {
        let found: Vec<u32> = table.lookup(word).collect();
        assert_eq!(found, oracle.lookup(word), "{label}: word {word:#x}");
        largest = largest.max(found.last().copied());
    }
    assert_eq!(
        table.position_end(),
        largest.map_or(0, |pos| pos as usize + 1),
        "{label}"
    );
    table
}

/// Targets that stress a packed read: at every length ≡ 0, 1, 31, 32,
/// 33, 63, 64, 65 (mod 64), random bases clean, with an `N` first and
/// last, with one on each side of every 32-base seam, and with runs of
/// 1, 19, 40 and 700 of them starting short of a seam; then an `N` every
/// 37th base (coprime to every span here, so it meets each offset of
/// each pattern, sampled or not) and every length from empty through a
/// few past the widest span.
fn seam_targets() -> Vec<Vec<Base>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut random = |len: usize| -> Vec<Base> {
        (0..len)
            .map(|_| Base::from_code(rng.gen_range(0u8..4)))
            .collect()
    };
    let spoil = |mut bases: Vec<Base>, at: &mut dyn Iterator<Item = usize>| {
        for at in at {
            if let Some(base) = bases.get_mut(at) {
                *base = Base::N;
            }
        }
        bases
    };
    let mut targets: Vec<Vec<Base>> = (0..=44).map(&mut random).collect();
    targets.push(spoil(random(400), &mut (0..400).step_by(37).chain([399])));
    for words in [0usize, 2, 14] {
        for rest in [0usize, 1, 31, 32, 33, 63, 64, 65] {
            let len = 64 * words + rest;
            targets.push(random(len));
            targets.push(spoil(
                random(len),
                &mut [0, len.saturating_sub(1)].into_iter(),
            ));
            targets.push(spoil(
                random(len),
                &mut (1..=len / 32 + 1).flat_map(|seam| [32 * seam - 1, 32 * seam]),
            ));
            for run in [1usize, 19, 40, 700] {
                targets.push(spoil(random(len), &mut (59..59 + run)));
            }
        }
    }
    targets
}

/// `extract` and `words` read the packed planes; the oracle's `extract`
/// reads bytes. At every position and a few past the end, over the
/// default seed, windows of 31 and 32 bases (the widest a packed read
/// holds) and of 33 and 40 (read base by base), they return the same.
#[test]
fn packed_extract_and_words_equal_the_bytewise_extract_at_every_position() {
    let wide = "1101000110000010011100101000011000100111";
    let patterns = [
        SeedPattern::lastz_default(),
        SeedPattern::exact(4),
        SeedPattern::exact(31),
        format!("1{}1", "0".repeat(30)).parse().unwrap(),
        format!("1{}1", "0".repeat(31)).parse().unwrap(),
        wide.parse().unwrap(),
    ];
    assert_eq!(
        patterns.iter().map(SeedPattern::span).collect::<Vec<_>>(),
        [19, 4, 31, 32, 33, 40]
    );
    let targets = seam_targets();
    for pattern in &patterns {
        let mut with_n = 0;
        for bases in &targets {
            let packed = Sequence::from_bases(bases.clone());
            let mut expected = Vec::new();
            for pos in 0..bases.len() + 3 {
                let word = hash_oracle::extract(pattern, bases, pos);
                assert_eq!(
                    pattern.extract(&packed, pos),
                    word,
                    "{pattern} at {pos} of {}",
                    bases.len()
                );
                expected.extend(word.map(|word| (pos, word)));
            }
            with_n += usize::from(expected.len() + pattern.span() <= bases.len());
            // Word by word, and whole, as the table build takes them —
            // the rolled loop, from the start and from a window inside.
            let mut words = pattern.words(&packed);
            let stepped: Vec<(usize, u64)> = words.by_ref().take(3).collect();
            let mut rest = Vec::new();
            words.for_each(|word| rest.push(word));
            assert_eq!(
                [stepped, rest].concat(),
                expected,
                "{pattern} over {} bases",
                bases.len()
            );
            let mut whole = Vec::new();
            pattern.words(&packed).for_each(|word| whole.push(word));
            assert_eq!(
                whole,
                expected,
                "{pattern} over {} bases, rolled",
                bases.len()
            );
        }
        assert!(
            with_n >= 100,
            "{pattern}: an `N` cost only {with_n} targets a window"
        );
    }
}

/// A table's layout over `windows` windows of `pattern`, by the rules
/// `SeedTable::build` follows: the directory's bits — `⌈log2 windows⌉ − 4`,
/// at least 8, no more than the word, and for a 62-bit word enough that
/// key and position fit 64 bits — and the bytes of an entry: 4 while the
/// key's bits and the position's fit 32, 8 past.
fn layout(pattern: &SeedPattern, windows: usize) -> (u32, usize) {
    let word_bits = 2 * pattern.weight() as u32;
    let pos_bits = windows.next_power_of_two().trailing_zeros();
    let directory_bits = pos_bits
        .saturating_sub(4)
        .max(8)
        .max((word_bits + pos_bits).saturating_sub(64))
        .min(word_bits);
    (
        directory_bits,
        if word_bits - directory_bits + pos_bits <= 32 {
            4
        } else {
            8
        },
    )
}

/// Tables of `2^k − 1`, `2^k` and `2^k + 1` windows for every `k` of
/// `ks`, where the position's bits (`⌈log2⌉`) and from 2^12 up the
/// directory's (`⌈log2⌉ − 4`) cross, answer like the hash table — under
/// `exact(14)` (28 bits, the last word whose entry is always a `u32`),
/// `exact(15)` (30 bits: a `u32` up to 2^10 windows, a `u64` past), the
/// default seed, `exact(31)` (62 bits, whose directory widens so that
/// key and position fit a `u64`), and `exact(5)` under a cap of 300: a
/// 10-bit word the directory covers whole (no key bits) past 2^13
/// windows and is clamped to past 2^14, with ever more windows a bucket
/// (a few of its words outgrow the cap at 2^18 windows, every one from
/// 2^19). Clean, every window is
/// a word, so `heap_bytes` pins the directory's width and the entry's; at
/// `2^k` windows the last one sits at `2^pos_bits − 1`, the largest
/// position the mask keeps. Spoiled (the first `spoiled_ks` of them), the
/// count of words and of windows part.
fn directory_and_position_edges(ks: RangeInclusive<u32>, spoiled_ks: RangeInclusive<u32>) {
    let patterns = [
        (SeedPattern::exact(14), usize::MAX),
        (SeedPattern::exact(15), usize::MAX),
        (SeedPattern::lastz_default(), usize::MAX),
        (SeedPattern::exact(31), usize::MAX),
        (SeedPattern::exact(5), 300),
    ];
    for k in ks {
        for windows in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
            for (pattern, cap) in &patterns {
                let mut rng = StdRng::seed_from_u64(64 * windows as u64 + pattern.weight() as u64);
                let clean: Sequence = (0..windows + pattern.span() - 1)
                    .map(|_| Base::from_code(rng.gen_range(0u8..4)))
                    .collect();
                let (bits, entry_bytes) = layout(pattern, windows);
                let label = format!("{pattern} over {windows} windows, cap {cap}, {bits}-bit directory, {entry_bytes} B entries");
                let oracle = hash_oracle::SeedTable::build(&clean, pattern, *cap);
                assert_eq!(oracle.positions_indexed(), windows as u64, "{label}");
                let table = assert_answers_like(&oracle, &clean, pattern, *cap, &label);
                let kept = windows - table.dropped_repeats() as usize;
                assert_eq!(
                    table.heap_bytes(),
                    entry_bytes * kept + 4 * ((1 << bits) + 1),
                    "{label}"
                );
                if table.dropped_repeats() == 0 {
                    assert_eq!(table.position_end(), windows, "{label}: the last window");
                }
                if spoiled_ks.contains(&k) {
                    let target = spoiled(&clean, pattern.span());
                    let oracle = hash_oracle::SeedTable::build(&target, pattern, (*cap).min(1000));
                    assert!(oracle.positions_indexed() < windows as u64);
                    assert_answers_like(
                        &oracle,
                        &target,
                        pattern,
                        (*cap).min(1000),
                        &format!("spoiled, {label}"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_directory_and_position_width_answers_like_the_hash_table() {
    directory_and_position_edges(8..=16, 8..=16);
}

/// The sweep past 2^16 windows, to 2^20 + 1 (21 position bits behind a
/// 17-bit directory), spoiled at 2^17: the release job runs it, a debug
/// build skips it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; the release job runs it"
)]
fn directory_and_position_widths_past_2_16_windows_answer_like_the_hash_table() {
    directory_and_position_edges(17..=20, 17..=17);
}

/// A target of exactly `positions` windows of `pattern` whose buckets
/// hold every arrangement of a run of equal keys. `run` windows of
/// poly-A then a C: the all-zero word's run opens bucket 0 and larger
/// keys follow it. A G then `run` windows of poly-T: the all-ones word's
/// run closes the last bucket behind smaller keys. `ACGT` over and over:
/// a few words, each a run that is the whole of its bucket (when the
/// prefix covers them). An `N`, and random bases to make up the
/// count — with a stretch of them copied in twice more, so that words of
/// any width come in threes.
fn bucket_edges_target(pattern: &SeedPattern, run: usize, positions: usize, seed: u64) -> Sequence {
    let span = pattern.span();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random = |n: usize| -> Vec<Base> {
        (0..n)
            .map(|_| Base::from_code(rng.gen_range(0u8..4)))
            .collect()
    };
    let unit = random(span + 4);
    let mut bases = vec![Base::A; span + run - 1];
    bases.push(Base::C);
    bases.extend(random(3));
    bases.extend(
        [Base::A, Base::C, Base::G, Base::T]
            .iter()
            .cycle()
            .take(span + 4 * run),
    );
    bases.push(Base::N);
    bases.extend(
        unit.iter()
            .chain(&random(2))
            .chain(&unit)
            .chain(&random(1))
            .chain(&unit),
    );
    bases.push(Base::G);
    bases.extend(vec![Base::T; span + run - 1]);
    let windows = |bases: &[Base]| {
        (0..bases.len())
            .filter_map(|pos| hash_oracle::extract(pattern, bases, pos))
            .count()
    };
    assert!(
        windows(&bases) <= positions,
        "{} windows before padding",
        windows(&bases)
    );
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

/// An entry is a `u32` or a `u64`, and its key empty when the directory
/// covers the word: a table of each, at the last size a `u32` holds and
/// the first it does not, under caps that keep a run, drop exactly it,
/// and drop everything, answers like the hash table, and D-SOFT over it —
/// each width is its own walk — returns what the whole-query map did.
/// Each runs over the contiguous pattern and over the same weight spread
/// across a window twelve bases wider (32 bases at weight 20, the last a
/// packed read holds; 33 and 43 at weights 21 and 31, read base by base),
/// on the target as built and spoiled.
#[test]
fn every_entry_width_answers_like_the_hash_table() {
    const RUN: usize = 5;
    // (k, positions, bytes an entry): no key bits; 8 above 9 position
    // bits; key and position in exactly 32 bits (20 + 12, 22 + 10) and
    // one past (22 + 11); wider words; and exactly 64 (51 + 13, behind
    // 11 directory bits).
    let widths = [
        (4, 200, 4),
        (8, 300, 4),
        (14, 4_000, 4),
        (15, 900, 4),
        (15, 1_100, 8),
        (20, 200, 8),
        (21, 300, 8),
        (31, 250, 8),
        (31, 5_000, 8),
    ];
    for (k, positions, entry_bytes) in widths {
        for pattern in [SeedPattern::exact(k), spaced(k, 12)] {
            let edges = bucket_edges_target(&pattern, RUN, positions, k as u64);
            for (name, target) in [
                ("spoiled", spoiled(&edges, pattern.span())),
                ("edges", edges),
            ] {
                let (bits, bytes) = layout(&pattern, target.len() + 1 - pattern.span());
                assert_eq!(
                    bytes, entry_bytes,
                    "{pattern}, {name}, {positions} positions"
                );
                let query = related_query(&target, 7 * k as u64);
                let uncapped = hash_oracle::SeedTable::build(&target, &pattern, usize::MAX);
                let poly_a = uncapped.lookup(0).len();
                if name == "edges" {
                    assert!(poly_a >= RUN, "{pattern}: poly-A run of {poly_a}");
                    assert_eq!(uncapped.positions_indexed(), positions as u64);
                }
                // Spoiling may land in the poly-A run: the caps stay where
                // a run of `RUN` would put them.
                let run = poly_a.max(RUN);
                for cap in [1, run, run - 1, usize::MAX] {
                    let oracle = hash_oracle::SeedTable::build(&target, &pattern, cap);
                    assert_eq!(
                        oracle.lookup(0).len(),
                        if cap >= poly_a { poly_a } else { 0 }
                    );
                    let label = format!(
                        "{pattern}, {name}, {bits}-bit directory, {bytes} B entries, cap {cap}"
                    );
                    let table = assert_answers_like(&oracle, &target, &pattern, cap, &label);
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
                            hash_oracle::dsoft_seeds_range(
                                &oracle,
                                &query,
                                &params,
                                0..query.len()
                            ),
                            "{label}, transitions {transitions}"
                        );
                    }
                }
            }
        }
    }
}

/// Targets about as long as the window: empty, one base, one short of
/// the span (no window), the span (one), one more (two), twice the span
/// — clean, and with an `N` first, last, and both — under every pattern
/// shape: contiguous and spaced, the narrowest span and the widest a
/// packed read holds, and two it does not.
#[test]
fn targets_about_the_span_answer_like_the_hash_table() {
    let patterns = [
        SeedPattern::lastz_default(),
        SeedPattern::exact(4),
        SeedPattern::exact(31),
        spaced(20, 12),
        spaced(21, 12),
        spaced(10, 30),
    ];
    for pattern in &patterns {
        let span = pattern.span();
        for len in [0, 1, span - 1, span, span + 1, 2 * span] {
            let mut rng = StdRng::seed_from_u64((span * 100 + len) as u64);
            let clean: Vec<Base> = (0..len)
                .map(|_| Base::from_code(rng.gen_range(0u8..4)))
                .collect();
            for (n_first, n_last) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut bases = clean.clone();
                if let [first, .., last] = &mut bases[..] {
                    if n_first {
                        *first = Base::N;
                    }
                    if n_last {
                        *last = Base::N;
                    }
                }
                let target: Sequence = bases.into_iter().collect();
                let label = format!("{pattern} over {len} bases, N first {n_first}, last {n_last}");
                let oracle = hash_oracle::SeedTable::build(&target, pattern, usize::MAX);
                let windows = (len + 1).saturating_sub(span) as u64;
                assert!(oracle.positions_indexed() <= windows, "{label}");
                if !(n_first || n_last) {
                    assert_eq!(oracle.positions_indexed(), windows, "{label}");
                }
                let table = assert_answers_like(&oracle, &target, pattern, usize::MAX, &label);
                let query: Sequence = clean.iter().chain(&clean).copied().collect();
                for transitions in [false, true] {
                    let params = DsoftParams {
                        chunk_size: 8,
                        bin_size: 8,
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
