//! Property-based tests for seeding invariants.

use genome::{Base, Sequence};
use proptest::prelude::*;
use seed::{dsoft_seeds, DsoftParams, SeedPattern, SeedTable};

fn dna_strategy(min: usize, max: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u8..4, min..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_lookup_positions_actually_match(target in dna_strategy(30, 300)) {
        let pattern = SeedPattern::exact(8);
        let table = SeedTable::build(&target, &pattern, usize::MAX);
        for pos in 0..target.len().saturating_sub(7) {
            if let Some(word) = pattern.extract(&target, pos) {
                prop_assert!(table.lookup(word).any(|found| found == pos as u32));
            }
        }
    }

    #[test]
    fn every_reported_hit_is_a_real_seed_match(
        target in dna_strategy(50, 400),
        query in dna_strategy(50, 400),
    ) {
        let pattern = SeedPattern::exact(10);
        let table = SeedTable::build(&target, &pattern, usize::MAX);
        let params = DsoftParams {
            transitions: false,
            ..DsoftParams::default()
        };
        let result = dsoft_seeds(&table, &query, &params);
        for hit in &result.hits {
            let tw = pattern.extract(&target, hit.target_pos as usize);
            let qw = pattern.extract(&query, hit.query_pos as usize);
            prop_assert!(tw.is_some() && qw.is_some());
            prop_assert_eq!(tw, qw, "hit {:?} is not a word match", hit);
        }
    }

    #[test]
    fn transition_hits_are_within_one_transition(
        target in dna_strategy(50, 300),
        query in dna_strategy(50, 300),
    ) {
        let pattern = SeedPattern::exact(10);
        let table = SeedTable::build(&target, &pattern, usize::MAX);
        let params = DsoftParams {
            transitions: true,
            ..DsoftParams::default()
        };
        let result = dsoft_seeds(&table, &query, &params);
        for hit in &result.hits {
            let mut transitions = 0;
            let mut transversions = 0;
            for k in 0..10 {
                let a = target.get(hit.target_pos as usize + k).unwrap();
                let b = query.get(hit.query_pos as usize + k).unwrap();
                if a.is_transition(b) {
                    transitions += 1;
                } else if a != b {
                    transversions += 1;
                }
            }
            prop_assert_eq!(transversions, 0);
            prop_assert!(transitions <= 1, "{} transitions", transitions);
        }
    }

    #[test]
    fn threshold_monotonically_prunes(
        target in dna_strategy(100, 400),
    ) {
        // Query = target guarantees hits exist.
        let pattern = SeedPattern::exact(8);
        let table = SeedTable::build(&target, &pattern, usize::MAX);
        let mut prev = usize::MAX;
        for threshold in [1u32, 2, 4, 16, 64] {
            let params = DsoftParams {
                threshold,
                transitions: false,
                ..DsoftParams::default()
            };
            let n = dsoft_seeds(&table, &target, &params).hits.len();
            prop_assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn self_alignment_always_seeds(target in dna_strategy(40, 300)) {
        let pattern = SeedPattern::exact(12);
        let table = SeedTable::build(&target, &pattern, usize::MAX);
        let result = dsoft_seeds(&table, &target, &DsoftParams::default());
        if target.len() >= 12 {
            prop_assert!(!result.hits.is_empty());
            // The main diagonal must be represented.
            prop_assert!(result.hits.iter().any(|h| h.diagonal() == 0));
        }
    }

    #[test]
    fn pattern_word_respects_dont_care(pattern_str in "1[01]{0,12}1", pos in 0usize..4) {
        let Ok(pattern) = pattern_str.parse::<SeedPattern>() else {
            return Ok(());
        };
        // Two windows differing only at don't-care positions share a word.
        let mut rng_seq: Vec<Base> = (0..pattern.span() + pos + 4)
            .map(|i| Base::from_code((i % 4) as u8))
            .collect();
        let w1 = pattern.extract(&rng_seq.clone().into(), pos);
        for off in 0..pattern.span() {
            if pattern_str.as_bytes()[off] == b'0' {
                rng_seq[pos + off] = rng_seq[pos + off].complement();
            }
        }
        let w2 = pattern.extract(&rng_seq.into(), pos);
        prop_assert_eq!(w1, w2);
    }
}
