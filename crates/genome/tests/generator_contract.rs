//! The generator's draws are its contract (DESIGN.md "Synthetic genomes"):
//! what a speed-up of `MarkovModel` or `evolve` may never change, checked
//! with generators that return chosen words or count what is asked of them.

use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::markov::MarkovModel;
use genome::Base;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Replays `words` as `next_u64`; a `Standard` `f64` is `word >> 11` over
/// 2^53, so `unit << 62` draws `unit / 4` exactly.
struct Replay(std::vec::IntoIter<u64>);

impl RngCore for Replay {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the Markov chain draws `f64`s only")
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("one draw a base")
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!()
    }
}

/// Counts the words drawn from a seeded `StdRng`.
struct Counted(StdRng, u64);

impl RngCore for Counted {
    fn next_u32(&mut self) -> u32 {
        self.1 += 1;
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.1 += 1;
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

#[test]
fn a_draw_equal_to_a_running_sum_falls_in_the_next_bin() {
    // `x < sum` picks the bin, so a draw *on* a running sum belongs to
    // the bin above it; no seeded stream is likely to land on one, which
    // is why only chosen words can pin this. The sums used are ones a draw
    // (a multiple of 2^-53) can equal: 0.5 and 0.705 of the initial row
    // (G's row is the same), 0.345 of A's.
    let model = MarkovModel::genome_like();
    let sum = |row: &[f64; 4], k: usize| row[..=k].iter().fold(0.0, |s, p| s + p);
    let word = |x: f64| {
        let units = x * (1u64 << 53) as f64;
        assert_eq!(units.fract(), 0.0, "no draw equals {x}");
        (units as u64) << 11
    };
    let (initial, rows) = (model.initial(), model.transition());
    let on_a = word(sum(&rows[0], 0));
    let words = vec![word(sum(initial, 1)), word(sum(&rows[2], 2)), 0, on_a - (1 << 11), on_a];
    let mut out = vec![Base::N];
    let mut rng = Replay(words.into_iter());
    model.generate_into(&mut out, 5, &mut rng);
    assert_eq!(out, [Base::N, Base::G, Base::T, Base::A, Base::A, Base::C]);
    assert_eq!(rng.0.len(), 0, "one draw a base");
}

#[test]
fn generate_into_appends_and_draws_once_a_base() {
    let mut rng = Counted(StdRng::seed_from_u64(3), 0);
    let model = MarkovModel::genome_like();
    let mut out = Vec::new();
    model.generate_into(&mut out, 0, &mut rng);
    assert_eq!((out.len(), rng.1), (0, 0), "no base, no draw");
    model.generate_into(&mut out, 700, &mut rng);
    model.generate_into(&mut out, 300, &mut rng);
    assert_eq!((out.len(), rng.1), (1000, 1000));
    // The same bases `generate` returns for the same draws.
    let mut again = StdRng::seed_from_u64(3);
    let mut expected = model.generate(700, &mut again).to_bases();
    expected.extend(model.generate(300, &mut again).to_bases());
    assert_eq!(out, expected);
}

#[test]
fn an_unevolved_pair_draws_three_rolls_a_base_a_lineage() {
    // At distance 0 no event fires, so what is left is the fixed part of
    // the order: the ancestor's base, then per lineage and ancestral base
    // the turnover, indel and substitution rolls, and one draw for the
    // duplications' fraction. (No conserved elements: placing one redraws
    // on a rejected offset, which would make the count the seed's.)
    let len = 5_000u64;
    let params = EvolutionParams {
        conserved_fraction: 0.0,
        ..EvolutionParams::at_distance(0.0)
    };
    let mut rng = Counted(StdRng::seed_from_u64(8), 0);
    let pair = SyntheticPair::generate(len as usize, &params, &mut rng);
    assert_eq!(pair.target.sequence, pair.ancestor);
    assert_eq!(pair.query.sequence, pair.ancestor);
    assert_eq!((pair.target.indel_events, pair.target.substitutions), (0, 0));
    assert_eq!(rng.1, len + 2 * (3 * len + 1));
}
