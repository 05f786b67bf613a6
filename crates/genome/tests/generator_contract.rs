//! The generator's draws are its contract (DESIGN.md "Synthetic genomes"):
//! what a speed-up of `MarkovModel` or `evolve` may never change, checked
//! with generators that return chosen words or count what is asked of them.

use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::markov::MarkovModel;
use genome::Base;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Replays chosen `u32` words as a buffered generator does: a `next_u64`
/// is two consecutive words, low first, and a cursor over it reads at a
/// local position and peeks, as one over `StdRng` does. A `Standard`
/// `f64` is `u64 >> 11` over 2^53, so `unit << 11` draws `unit / 2^53`.
struct Replay {
    words: Vec<u32>,
    at: usize,
}

impl Replay {
    fn new(words: Vec<u32>) -> Replay {
        Replay { words, at: 0 }
    }

    fn of_u64s(words: &[u64]) -> Replay {
        let mut script = Script::default();
        words.iter().for_each(|&word| script.u64(word));
        Replay::new(script.0)
    }

    /// Words not drawn yet.
    fn remaining(&self) -> usize {
        self.words.len() - self.at
    }
}

impl RngCore for Replay {
    fn next_u32(&mut self) -> u32 {
        let mut at = self.at;
        let word = self.next_u32_at(&mut at);
        self.at = at;
        word
    }
    fn next_u64(&mut self) -> u64 {
        let mut at = self.at;
        let word = self.next_u64_at(&mut at);
        self.at = at;
        word
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("the generator draws words")
    }
    fn cursor_position(&mut self) -> usize {
        self.at
    }
    fn set_cursor_position(&mut self, position: usize) {
        self.at = position;
    }
    fn next_u32_at(&mut self, position: &mut usize) -> u32 {
        let word = *self.words.get(*position).expect("a word for every draw");
        *position += 1;
        word
    }
    fn next_u64_at(&mut self, position: &mut usize) -> u64 {
        let low = self.next_u32_at(position);
        u64::from(self.next_u32_at(position)) << 32 | u64::from(low)
    }
    fn peek_u64s_at<const N: usize>(&self, position: usize) -> Option<[u64; N]> {
        let words = self.words.get(position..position + 2 * N)?;
        Some(std::array::from_fn(|i| {
            u64::from(words[2 * i + 1]) << 32 | u64::from(words[2 * i])
        }))
    }
}

/// The same words through `next_u32` / `next_u64` alone: a cursor over it
/// takes the default of every cursor method, so it forwards each draw and
/// never peeks.
struct Plain(Replay);

impl RngCore for Plain {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("the generator draws words")
    }
}

/// The words a [`Replay`] is made of, written draw by draw.
#[derive(Default, Clone)]
struct Script(Vec<u32>);

impl Script {
    fn u64(&mut self, word: u64) {
        self.0.extend([word as u32, (word >> 32) as u32]);
    }
    /// A `u64` whose 53-bit unit (what every roll and Markov draw
    /// compares) is `unit`.
    fn unit(&mut self, unit: u64) {
        self.u64(unit << 11);
    }
    /// `n` draws that fire no roll and step every Markov chain to `T`.
    fn quiet(&mut self, n: usize) {
        (0..n).for_each(|_| self.u64(u64::MAX));
    }
    /// A `bool`: the sign bit of one `u32`.
    fn bool(&mut self, value: bool) {
        self.0.push(if value { 1 << 31 } else { 0 });
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
    let words = vec![
        word(sum(initial, 1)),
        word(sum(&rows[2], 2)),
        0,
        on_a - (1 << 11),
        on_a,
    ];
    for peeking in [true, false] {
        let mut out = vec![Base::N];
        let replay = Replay::of_u64s(&words);
        let remaining = if peeking {
            let mut rng = replay;
            model.generate_into(&mut out, 5, &mut rng);
            rng.remaining()
        } else {
            let mut rng = Plain(replay);
            model.generate_into(&mut out, 5, &mut rng);
            rng.0.remaining()
        };
        assert_eq!(out, [Base::N, Base::G, Base::T, Base::A, Base::A, Base::C]);
        assert_eq!(remaining, 0, "one draw a base");
    }
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
    assert_eq!(
        (pair.target.indel_events, pair.target.substitutions),
        (0, 0)
    );
    assert_eq!(rng.1, len + 2 * (3 * len + 1));
}

/// What a pair's target lineage made of its ancestor, and what was left
/// of the script.
#[derive(Debug, PartialEq)]
struct Outcome {
    bases: Vec<Base>,
    map: Vec<Option<usize>>,
    /// Substitutions, indel events, indel bases.
    counts: (u64, u64, u64),
    words_left: usize,
}

fn outcome<R: RngCore>(len: usize, params: &EvolutionParams, rng: &mut R) -> Outcome {
    let pair = SyntheticPair::generate(len, params, rng);
    let target = &pair.target;
    Outcome {
        bases: target.sequence.to_bases(),
        map: (0..len).map(|pos| target.coordinates.lookup(pos)).collect(),
        counts: (
            target.substitutions,
            target.indel_events,
            target.indel_bases,
        ),
        words_left: 0,
    }
}

/// One ancestral base's scripted draws and what they make of it.
struct Scenario {
    name: &'static str,
    words: Script,
    /// The bytes the base becomes in the descendant.
    made: Vec<Base>,
    /// Where the base itself lands among them, if it survives.
    position: Option<usize>,
    /// Substitutions, indel events, indel bases.
    counts: (u64, u64, u64),
}

/// The pair the script draws, through a cursor that peeks and one that
/// forwards each draw: the two must be the same.
fn replayed(len: usize, params: &EvolutionParams, script: &Script) -> Outcome {
    let mut peeking = Replay::new(script.0.clone());
    let mut first = outcome(len, params, &mut peeking);
    first.words_left = peeking.remaining();
    let mut plain = Plain(Replay::new(script.0.clone()));
    let mut second = outcome(len, params, &mut plain);
    second.words_left = plain.0.remaining();
    assert_eq!(
        first, second,
        "a peeking cursor and a forwarding one differ"
    );
    first
}

#[test]
fn chosen_words_drive_one_base_through_every_event_inside_and_outside_an_element() {
    // A 40-base ancestor of `A`s with one conserved element, [0, 30):
    // bases 0 and 29 evolve inside it, 30 and 39 outside. Every other base
    // draws three quiet words (turnover, indel, substitution: none fires).
    const LEN: usize = 40;
    let params = EvolutionParams {
        conserved_fraction: 1.0,
        ..EvolutionParams::at_distance(1.0)
    };
    // The thresholds as the contract states them: `⌈p · 2^53⌉` of the
    // products the float compare used. A roll fires one unit below its
    // threshold and not at it.
    let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
    let p_sub = (params.distance / 2.0).min(0.75);
    let p_indel = (p_sub * params.indels_per_substitution).min(0.5);
    let p_turnover = params.turnover_per_kb / 1000.0 * (params.distance / 2.0 / 0.25);
    let long = threshold(params.long_indel_prob);
    let transition = threshold(params.transition_fraction);

    for (at, inside) in [(0, true), (29, true), (30, false), (LEN - 1, false)] {
        let (sub_factor, indel_factor) = if inside {
            (params.conserved_rate_factor, params.conserved_indel_factor)
        } else {
            (1.0, 1.0)
        };
        let turnover = threshold(p_turnover * sub_factor);
        let indel = threshold(p_indel * indel_factor);
        let sub = threshold(p_sub * sub_factor);

        // The scenario's words for base `at`, and what its lineage holds.
        let scenarios = [
            {
                let mut s = Script::default();
                s.unit(turnover - 1);
                s.u64(u64::MAX); // a geometric length of 1, raised to 50
                s.quiet(50);
                s.unit(indel - 1);
                s.unit(long); // short
                s.u64(u64::MAX); // a geometric length of 1
                s.bool(true); // a deletion
                Scenario {
                    name: "turnover, then deletion",
                    words: s,
                    made: vec![Base::T; 50],
                    position: None,
                    counts: (0, 2, 51),
                }
            },
            {
                let mut s = Script::default();
                s.unit(turnover);
                s.unit(indel - 1);
                s.unit(long - 1); // long
                s.u64(0); // the power law's least length, 10
                s.bool(false); // an insertion
                s.quiet(10);
                s.unit(sub);
                let mut bases = vec![Base::T; 10];
                bases.push(Base::A);
                Scenario {
                    name: "long insertion",
                    words: s,
                    made: bases,
                    position: Some(10),
                    counts: (0, 1, 10),
                }
            },
            {
                let mut s = Script::default();
                s.unit(turnover);
                s.unit(indel - 1);
                s.unit(long);
                s.u64(u64::MAX);
                s.bool(false);
                s.quiet(1);
                s.unit(sub);
                Scenario {
                    name: "short insertion",
                    words: s,
                    made: vec![Base::T, Base::A],
                    position: Some(1),
                    counts: (0, 1, 1),
                }
            },
            {
                let mut s = Script::default();
                s.unit(turnover);
                s.unit(indel);
                s.unit(sub - 1);
                s.unit(transition - 1);
                Scenario {
                    name: "transition",
                    words: s,
                    made: vec![Base::G],
                    position: Some(0),
                    counts: (1, 0, 0),
                }
            },
            {
                let mut s = Script::default();
                s.unit(turnover);
                s.unit(indel);
                s.unit(sub - 1);
                s.unit(transition);
                s.u64(0); // `gen_range(0..2)`: accepted, the first
                Scenario {
                    name: "first transversion",
                    words: s,
                    made: vec![Base::C],
                    position: Some(0),
                    counts: (1, 0, 0),
                }
            },
            {
                let mut s = Script::default();
                s.unit(turnover);
                s.unit(indel);
                s.unit(sub - 1);
                s.unit(transition);
                s.u64(1 << 62); // rejected by the Lemire zone: drawn again
                s.u64(1 << 63); // accepted, the second
                Scenario {
                    name: "second transversion",
                    words: s,
                    made: vec![Base::T],
                    position: Some(0),
                    counts: (1, 0, 0),
                }
            },
        ];
        for scenario in scenarios {
            let Scenario {
                name,
                words,
                made,
                position,
                counts,
            } = scenario;
            let mut script = Script::default();
            (0..LEN).for_each(|_| script.unit(0)); // the ancestor: all `A`
            script.u64(u64::MAX); // the element's length: 1, raised to 30
            script.u64(0); // its offset in the 40-base window: 0
            for pos in 0..LEN {
                if pos == at {
                    script.0.extend(&words.0);
                } else {
                    script.quiet(3);
                }
            }
            script.quiet(1); // the duplications' fraction: none
            script.quiet(3 * LEN + 1); // the query lineage, unevolved

            let mut bases = vec![Base::A; at];
            bases.extend(&made);
            bases.extend(vec![Base::A; LEN - 1 - at]);
            let shift = made.len() as isize - 1;
            let map: Vec<Option<usize>> = (0..LEN)
                .map(|pos| match pos.cmp(&at) {
                    std::cmp::Ordering::Less => Some(pos),
                    std::cmp::Ordering::Equal => position.map(|p| at + p),
                    std::cmp::Ordering::Greater => Some((pos as isize + shift) as usize),
                })
                .collect();
            let expected = Outcome {
                bases,
                map,
                counts,
                words_left: 0,
            };
            let side = if inside { "inside" } else { "outside" };
            assert_eq!(
                replayed(LEN, &params, &script),
                expected,
                "{name} at {at}, {side} the element"
            );
        }
    }
}
