//! Property-based tests for the genome substrate.

use genome::shuffle::shuffle_dinucleotides;
use genome::{Base, Sequence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        10 => Just(Base::A),
        10 => Just(Base::C),
        10 => Just(Base::G),
        10 => Just(Base::T),
        1 => Just(Base::N),
    ]
}

fn sequence_strategy(max_len: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(base_strategy(), 0..max_len).prop_map(Sequence::from_bases)
}

proptest! {
    #[test]
    fn reverse_complement_is_involution(seq in sequence_strategy(300)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn reverse_complement_preserves_length_and_swaps_composition(seq in sequence_strategy(300)) {
        let rc = seq.reverse_complement();
        prop_assert_eq!(rc.len(), seq.len());
        let count = |s: &Sequence, b: Base| s.iter().filter(|&x| x == b).count();
        prop_assert_eq!(count(&seq, Base::A), count(&rc, Base::T));
        prop_assert_eq!(count(&seq, Base::C), count(&rc, Base::G));
        prop_assert_eq!(count(&seq, Base::N), count(&rc, Base::N));
    }

    #[test]
    fn display_parse_round_trip(seq in sequence_strategy(300)) {
        let text = seq.to_string();
        let parsed: Sequence = text.parse().unwrap();
        prop_assert_eq!(parsed, seq);
    }

    #[test]
    fn fasta_round_trip(seq in sequence_strategy(400)) {
        let records = vec![genome::fasta::Record {
            name: "prop".into(),
            description: "prop test".into(),
            sequence: seq.clone(),
        }];
        let mut buf = Vec::new();
        genome::fasta::write(&mut buf, &records).unwrap();
        let parsed = genome::fasta::read(&buf[..]).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0].sequence, &seq);
    }

    #[test]
    fn shuffle_preserves_dinucleotide_counts(seq in sequence_strategy(400), rng_seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let shuffled = shuffle_dinucleotides(&seq, &mut rng);
        prop_assert_eq!(shuffled.len(), seq.len());
        // Adjacent pairs without an `N`, sorted: equal exactly when the
        // dinucleotide counts are.
        let pairs = |s: &Sequence| {
            let bases = s.to_bases();
            let mut pairs: Vec<[Base; 2]> =
                bases.windows(2).filter(|w| !w.contains(&Base::N)).map(|w| [w[0], w[1]]).collect();
            pairs.sort();
            pairs
        };
        prop_assert_eq!(pairs(&shuffled), pairs(&seq));
    }

    #[test]
    fn base_codes_round_trip(code in 0u8..8) {
        let b = Base::from_code(code);
        if code < 4 {
            prop_assert_eq!(b.code(), code);
        } else {
            prop_assert_eq!(b, Base::N);
        }
    }
}
