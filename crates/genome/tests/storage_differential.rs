//! Differential wall for the packed sequence storage.
//!
//! `genome::Sequence` keeps a 2-bit code plane (32 bases a word) and an
//! `N` plane (64 a word); what it replaced, one `Base` a byte in a `Vec`,
//! is the model here. Every way of reading a sequence — `get`, `iter`
//! from both ends, `window` forward and reversed over every class of
//! range, `reverse_complement` — and every way of building one — base by
//! base, in bulk, from ASCII, from FASTA — must agree with the model, at
//! the lengths and `N` placements that put something on each side of
//! every 32- and 64-base seam.

use genome::{fasta, Base, Sequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Lengths ≡ 0, 1, 31, 32, 33, 63, 64, 65 (mod 64): none, one and many
/// whole words of each plane, and room for the longest `N` run.
fn lengths() -> Vec<usize> {
    let mut lengths = Vec::new();
    for words in [0usize, 1, 15] {
        lengths.extend([0usize, 1, 31, 32, 33, 63, 64, 65].map(|rest| 64 * words + rest));
    }
    lengths
}

/// Random bases of `len`, clean and with `N` placed: first and last, on
/// each side of every 32-base seam (every other one of which is a
/// 64-base seam), and in runs of 1, 19, 40 and 700 that start just
/// short of a seam.
fn models(len: usize, rng: &mut StdRng) -> Vec<Vec<Base>> {
    let clean: Vec<Base> = (0..len)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect();
    let with_n = |at: &mut dyn Iterator<Item = usize>| {
        let mut bases = clean.clone();
        for at in at.filter(|&at| at < len) {
            bases[at] = Base::N;
        }
        bases
    };
    let mut models = vec![
        with_n(&mut [0, len.saturating_sub(1)].into_iter()),
        with_n(&mut (1..=len / 32 + 1).flat_map(|seam| [32 * seam - 1, 32 * seam])),
    ];
    for run in [1usize, 19, 40, 700] {
        for start in [27usize, 61] {
            models.push(with_n(&mut (start..start + run)));
        }
    }
    models.push(clean);
    models
}

/// Every class of range over `len` bases: empty (first, inside, last),
/// whole, and each pair of ends taken from both sides of the seams.
fn ranges(len: usize) -> Vec<std::ops::Range<usize>> {
    let mut ends = vec![
        0, 1, 2, 30, 31, 32, 33, 34, 62, 63, 64, 65, 66, 95, 96, 97, 127, 128, 129,
    ];
    ends.extend([
        len / 2,
        len.saturating_sub(65),
        len.saturating_sub(33),
        len.saturating_sub(1),
        len,
    ]);
    ends.retain(|&end| end <= len);
    ends.sort_unstable();
    ends.dedup();
    let mut ranges = Vec::new();
    for (index, &start) in ends.iter().enumerate() {
        ranges.extend(ends[index..].iter().map(|&end| start..end));
    }
    ranges
}

fn hash_of(sequence: &Sequence) -> u64 {
    let mut hasher = DefaultHasher::new();
    sequence.hash(&mut hasher);
    hasher.finish()
}

#[test]
fn window_equals_the_model_forward_and_reversed_over_every_range_class() {
    let mut rng = StdRng::seed_from_u64(23);
    // One scratch for every call: what a window leaves behind must not
    // show in the next.
    let mut scratch = Vec::new();
    let mut windows = 0usize;
    for len in lengths() {
        for model in models(len, &mut rng) {
            let packed = Sequence::from_bases(model.clone());
            assert_eq!(packed.to_bases(), model, "{len} bases");
            for range in ranges(len) {
                let forward = packed.window(range.clone(), false, &mut scratch).to_vec();
                assert_eq!(forward, model[range.clone()], "{range:?} of {len}");
                let mut expected = model[range.clone()].to_vec();
                expected.reverse();
                assert_eq!(
                    packed.window(range.clone(), true, &mut scratch),
                    expected,
                    "{range:?} of {len}, reversed"
                );
                windows += 2;
            }
        }
    }
    assert!(windows > 50_000, "only {windows} windows");
}

#[test]
fn window_past_the_end_panics() {
    let packed: Sequence = "ACGT".repeat(16).parse().unwrap();
    for range in [0..65, 64..65, 65..65] {
        let caught =
            std::panic::catch_unwind(|| packed.window(range.clone(), false, &mut Vec::new()).len());
        assert!(caught.is_err(), "{range:?}");
    }
}

#[test]
fn readers_and_builders_agree_with_the_model() {
    let mut rng = StdRng::seed_from_u64(29);
    for len in lengths() {
        for model in models(len, &mut rng) {
            let packed = Sequence::from_bases(model.clone());
            assert_eq!((packed.len(), packed.is_empty()), (len, len == 0));
            for (at, &base) in model.iter().enumerate() {
                assert_eq!(packed.get(at), Some(base), "get({at}) of {len}");
            }
            assert_eq!((packed.get(len), packed.get(len + 64)), (None, None));
            assert!(packed.iter().eq(model.iter().copied()), "iter of {len}");
            assert!(
                packed.iter().rev().eq(model.iter().rev().copied()),
                "iter().rev() of {len}"
            );
            assert_eq!(packed.iter().len(), len);
            // `skip`/`take` from either end go through `nth`/`nth_back`.
            for (skip, take) in [(0, 33), (31, 2), (63, 66), (len / 2, len)] {
                let expected: Vec<Base> = model.iter().skip(skip).take(take).copied().collect();
                assert!(
                    packed
                        .iter()
                        .skip(skip)
                        .take(take)
                        .eq(expected.iter().copied()),
                    "skip {skip} take {take}"
                );
                assert!(packed
                    .iter()
                    .skip(skip)
                    .take(take)
                    .rev()
                    .eq(expected.iter().rev().copied()));
                let end = len.min(skip + take);
                assert_eq!(packed.subsequence(len.min(skip)..end).to_bases(), expected);
            }
            let complemented: Vec<Base> =
                model.iter().rev().map(|base| base.complement()).collect();
            assert_eq!(
                packed.reverse_complement().to_bases(),
                complemented,
                "{len}"
            );

            // push after push, and extend in two parts cut anywhere.
            let mut pushed = Sequence::new();
            for (at, &base) in model.iter().enumerate() {
                pushed.push(base);
                assert_eq!((pushed.len(), pushed.get(at)), (at + 1, Some(base)));
            }
            assert_eq!(pushed, packed);
            for cut in [0, 1, 31, 32, 33, 63, 64, 65, len / 2, len] {
                let cut = cut.min(len);
                let mut extended = Sequence::with_capacity(cut);
                extended.extend(model[..cut].iter().copied());
                extended.extend(packed.iter().skip(cut));
                assert_eq!(extended, packed, "{len} cut at {cut}");
            }
        }
    }
}

#[test]
fn equal_bases_are_equal_and_hash_alike_however_they_were_built() {
    let mut rng = StdRng::seed_from_u64(31);
    for len in lengths() {
        for model in models(len, &mut rng) {
            let from_bases = Sequence::from_bases(model.clone());
            let mut pushed = Sequence::with_capacity(3 * len);
            model.iter().for_each(|&base| pushed.push(base));
            let collected: Sequence = model.iter().copied().collect();
            // Lower case and IUPAC letters, which both mean a base the
            // model already holds.
            let ascii: Vec<u8> = model
                .iter()
                .enumerate()
                .map(|(at, &base)| match (base, at % 3) {
                    (Base::N, 0) => b'R',
                    (Base::N, 1) => b'y',
                    (base, 2) => base.to_ascii().to_ascii_lowercase(),
                    (base, _) => base.to_ascii(),
                })
                .collect();
            let from_ascii = Sequence::from_ascii(&ascii).unwrap();
            let mut file = b">model\n".to_vec();
            for line in ascii.chunks(61) {
                file.extend(line);
                file.extend(b"\r\n");
            }
            let mut records = fasta::read_sized(&file[..], file.len()).unwrap();
            let from_fasta = records.pop().unwrap().sequence;
            // Shrunk from a longer one: nothing of the dropped bases may
            // stay behind in the last words.
            let mut longer = model.clone();
            longer.extend([Base::T, Base::N, Base::G].iter().cycle().take(70));
            let cut = Sequence::from_bases(longer).subsequence(0..len);
            let twice_reversed = from_bases.reverse_complement().reverse_complement();
            for (how, built) in [
                ("pushed", &pushed),
                ("collected", &collected),
                ("from_ascii", &from_ascii),
                ("from_fasta", &from_fasta),
                ("subsequence", &cut),
                ("reverse_complement twice", &twice_reversed),
                ("clone", &from_bases.clone()),
            ] {
                assert_eq!(built, &from_bases, "{how}, {len} bases");
                assert_eq!(hash_of(built), hash_of(&from_bases), "{how}, {len} bases");
            }
            // And a sequence that differs in one base, or only in its
            // length, is not equal.
            if let Some(last) = model.last() {
                let mut other = model.clone();
                *other.last_mut().unwrap() = if *last == Base::N { Base::A } else { Base::N };
                assert_ne!(Sequence::from_bases(other), from_bases);
                assert_ne!(Sequence::from_bases(model[..len - 1].to_vec()), from_bases);
            }
        }
    }
}

#[test]
fn fasta_write_wraps_at_seventy_columns_from_the_planes() {
    let mut rng = StdRng::seed_from_u64(37);
    for len in [0usize, 1, 69, 70, 71, 140, 141, 960] {
        let model = models(len, &mut rng).swap_remove(1);
        let record = fasta::Record {
            name: "r".into(),
            description: String::new(),
            sequence: model.clone().into(),
        };
        let mut written = Vec::new();
        fasta::write(&mut written, std::slice::from_ref(&record)).unwrap();
        let mut expected = b">r\n".to_vec();
        for line in model.chunks(70) {
            expected.extend(line.iter().map(|base| base.to_ascii()));
            expected.push(b'\n');
        }
        assert_eq!(written, expected, "{len} bases");
    }
}
