//! Synthetic genome evolution.
//!
//! The paper evaluates on six real genomes (Table I) at the phylogenetic
//! distances of Fig. 8. We substitute an explicit two-lineage evolution
//! model: an ancestral sequence (order-1 Markov, genome-like 2-mer stats)
//! accumulates substitutions and indels independently along two lineages,
//! each evolving for half the pairwise distance. Conserved "exon" islands
//! evolve at a reduced rate and are tracked, giving ground-truth orthology
//! for the Table III sensitivity metrics.
//!
//! The key property the model must reproduce — because it drives *every*
//! headline result — is Fig. 2: the expected length of a gap-free alignment
//! block shrinks as phylogenetic distance grows (~641 bp for human–chimp,
//! ~31 bp for human–mouse), which is what defeats ungapped filtering for
//! distant pairs.

use crate::alphabet::Base;
use crate::annotation::{CoordinateMap, Interval, DELETED};
use crate::markov::{fires, peek_units, threshold, unit, MarkovModel};
use crate::sequence::Sequence;
use rand::Rng;

/// Parameters of the two-lineage evolution model.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionParams {
    /// Total pairwise distance between the two descendants, in expected
    /// substitutions per site (each lineage receives half).
    pub distance: f64,
    /// Fraction of substitutions that are transitions (A↔G, C↔T).
    /// Empirically ≈ 2/3 (a 2:1 transition:transversion ratio).
    pub transition_fraction: f64,
    /// Indel events per substitution event. Mammal-like genomes show
    /// roughly 0.05–0.15.
    pub indels_per_substitution: f64,
    /// Mean length of short (geometric) indels.
    pub short_indel_mean: f64,
    /// Probability that an indel is drawn from the long power-law tail.
    pub long_indel_prob: f64,
    /// Maximum long-indel length (power-law exponent fixed at ~1.6).
    pub long_indel_max: usize,
    /// Substitution-rate multiplier inside conserved elements (purifying
    /// selection).
    pub conserved_rate_factor: f64,
    /// Indel-rate multiplier inside conserved elements. Indels are purged
    /// less strongly than substitutions in much functional sequence, which
    /// keeps conserved islands recognisable yet indel-dense — the exact
    /// regime (Fig. 2, Fig. 9) where ungapped filtering fails.
    pub conserved_indel_factor: f64,
    /// Fraction of the ancestor covered by conserved elements.
    pub conserved_fraction: f64,
    /// Mean conserved-element ("exon") length in bp.
    pub conserved_mean_len: usize,
    /// Segmental duplications per lineage per Mbp (creates paralogs).
    pub duplications_per_mbp: f64,
    /// Mean duplication length in bp.
    pub duplication_mean_len: usize,
    /// Lineage-specific *turnover* insertions per kb per lineage:
    /// transposon-like sequence gains that fragment the alignable genome
    /// into separate homology blocks, as real genomes are. Without them a
    /// synthetic pair is one contiguous homologous run and a single lucky
    /// seed recovers everything, hiding filter-sensitivity differences.
    pub turnover_per_kb: f64,
    /// Mean turnover-insertion length in bp (long enough that extension
    /// cannot cross: the gap cost must exceed the Y-drop).
    pub turnover_mean_len: usize,
}

impl EvolutionParams {
    /// Model parameters at a given pairwise distance, with defaults for the
    /// remaining rates.
    pub fn at_distance(distance: f64) -> EvolutionParams {
        EvolutionParams {
            distance,
            ..EvolutionParams::default()
        }
    }

    /// Probability of a turnover insertion before a non-conserved base.
    /// Turnover accumulates with evolutionary time, like substitutions: the
    /// nominal per-kb rate applies at a lineage distance of 0.25.
    fn turnover_probability(&self) -> f64 {
        self.turnover_per_kb / 1000.0 * (self.distance / 2.0 / 0.25)
    }

    /// Descendant bases to expect of a `len`-base ancestor, from above:
    /// every base counted as unconserved, indels as cancelling. Sizes a
    /// lineage's buffer, and is what `wga generate` refuses lengths by.
    pub fn expected_descendant_len(&self, len: usize) -> usize {
        let gain = self.turnover_probability().min(1.0) * self.turnover_mean_len.max(50) as f64;
        (len as f64 * (1.0 + gain)) as usize
    }
}

impl Default for EvolutionParams {
    fn default() -> Self {
        EvolutionParams {
            distance: 0.2,
            transition_fraction: 2.0 / 3.0,
            indels_per_substitution: 0.15,
            short_indel_mean: 3.0,
            long_indel_prob: 0.02,
            long_indel_max: 400,
            conserved_rate_factor: 0.25,
            conserved_indel_factor: 0.6,
            conserved_fraction: 0.22,
            conserved_mean_len: 250,
            duplications_per_mbp: 2.0,
            duplication_mean_len: 1000,
            turnover_per_kb: 1.5,
            turnover_mean_len: 450,
        }
    }
}

/// One evolved lineage: the descendant sequence plus ground truth.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// Descendant sequence.
    pub sequence: Sequence,
    /// Ancestor→descendant coordinate map.
    pub coordinates: CoordinateMap,
    /// Conserved elements projected into descendant coordinates
    /// (elements fully deleted in this lineage are absent).
    pub conserved: Vec<Interval>,
    /// Number of substitutions applied.
    pub substitutions: u64,
    /// Number of indel events applied.
    pub indel_events: u64,
    /// Total inserted + deleted bases.
    pub indel_bases: u64,
}

/// A complete synthetic species pair with ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticPair {
    /// Conserved elements in ancestral coordinates.
    pub ancestral_conserved: Vec<Interval>,
    /// The "target" descendant (lineage A).
    pub target: Lineage,
    /// The "query" descendant (lineage B).
    pub query: Lineage,
    /// Parameters used.
    pub params: EvolutionParams,
}

impl SyntheticPair {
    /// Generates a pair: ancestor of `len` bases, conserved islands, two
    /// independently evolved lineages at `params.distance / 2` each.
    ///
    /// # Examples
    ///
    /// ```
    /// use genome::evolve::{EvolutionParams, SyntheticPair};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    /// let pair = SyntheticPair::generate(10_000, &EvolutionParams::at_distance(0.2), &mut rng);
    /// assert!(pair.target.sequence.len() > 8_000);
    /// assert!(!pair.ancestral_conserved.is_empty());
    /// ```
    pub fn generate<R: Rng + ?Sized>(
        len: usize,
        params: &EvolutionParams,
        rng: &mut R,
    ) -> SyntheticPair {
        let model = MarkovModel::genome_like();
        // A byte a base, and only while the two lineages read it.
        let mut ancestor = Vec::new();
        model.generate_into(&mut ancestor, len, rng);
        let conserved = place_conserved_elements(len, params, rng);
        // One lineage's bytes while it is drawn, the same buffer for both:
        // fresh pages cost more than the bytes written to them.
        let mut bases = Vec::new();
        let target = evolve_lineage(&ancestor, &conserved, params, &model, &mut bases, rng);
        let query = evolve_lineage(&ancestor, &conserved, params, &model, &mut bases, rng);
        drop((ancestor, bases));
        SyntheticPair {
            ancestral_conserved: conserved,
            target,
            query,
            params: params.clone(),
        }
    }

    /// Ground-truth orthologous base pairs `(target_pos, query_pos)`.
    pub fn orthologous_pairs(&self) -> Vec<(usize, usize)> {
        crate::annotation::orthologous_pairs(&self.target.coordinates, &self.query.coordinates)
    }
}

/// Places non-overlapping conserved elements covering roughly
/// `conserved_fraction` of the ancestor.
fn place_conserved_elements<R: Rng + ?Sized>(
    len: usize,
    params: &EvolutionParams,
    rng: &mut R,
) -> Vec<Interval> {
    let mut intervals = Vec::new();
    if params.conserved_fraction <= 0.0 || params.conserved_mean_len == 0 || len == 0 {
        return intervals;
    }
    let target_bases = (len as f64 * params.conserved_fraction).round() as usize;
    let n_elements = (target_bases / params.conserved_mean_len).max(1);
    // One element per window keeps elements spread genome-wide (as real
    // exons are) while the geometric length gives the size variation.
    let window = len / n_elements;
    if window < 40 {
        return intervals;
    }
    let length = Geometric::with_mean(params.conserved_mean_len as f64);
    for (index, wstart) in (0..n_elements).map(|i| (i, i * window)) {
        let elen = length
            .sample(rng)
            .clamp(30, window.saturating_sub(1).max(30));
        if elen + 1 >= window {
            continue;
        }
        let offset = rng.gen_range(0..window - elen);
        let start = wstart + offset;
        let end = (start + elen).min(len);
        if start < end {
            intervals.push(Interval::new(start, end, format!("exon_{index}")));
        }
    }
    intervals
}

/// Geometric lengths with a given mean (support ≥ 1). The divisor
/// `ln(1 − 1/mean)` is worked out once, not once a sample: the same `f64`
/// operations on the same mean, so the same bits.
struct Geometric {
    ln_q: f64,
}

impl Geometric {
    fn with_mean(mean: f64) -> Geometric {
        let p = 1.0 / mean.max(1.0);
        Geometric {
            ln_q: (1.0 - p).ln(),
        }
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / self.ln_q).ceil().max(1.0) as usize
    }
}

/// Power-law (discrete Pareto) lengths on `[lo, hi]` with exponent ~1.6,
/// the powers of the bounds worked out once (as [`Geometric`]'s divisor).
struct PowerLaw {
    lo: usize,
    hi: usize,
    lo_pow: f64,
    hi_pow: f64,
    inv_exp: f64,
}

impl PowerLaw {
    fn on(lo: usize, hi: usize) -> PowerLaw {
        let alpha = 1.6f64;
        let exp = 1.0 - alpha;
        PowerLaw {
            lo,
            hi,
            lo_pow: (lo as f64).powf(exp),
            hi_pow: (hi as f64).powf(exp),
            inv_exp: 1.0 / exp,
        }
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let x = (self.lo_pow + u * (self.hi_pow - self.lo_pow)).powf(self.inv_exp);
        (x as usize).clamp(self.lo, self.hi)
    }
}

/// Evolves one lineage for `params.distance / 2` substitutions per site.
/// `conserved` is sorted and disjoint, as [`place_conserved_elements`]
/// leaves it; insertions are drawn from `model`. The descendant is built
/// in `bases`, whatever it held, and left there. Which draws are made and
/// in what order is the contract (DESIGN.md "Synthetic genomes"): change
/// memory, never a draw.
fn evolve_lineage<R: Rng + ?Sized>(
    ancestor: &[Base],
    conserved: &[Interval],
    params: &EvolutionParams,
    model: &MarkovModel,
    bases: &mut Vec<Base>,
    rng: &mut R,
) -> Lineage {
    debug_assert!(conserved.windows(2).all(|w| w[0].end <= w[1].start));
    let lineage_distance = params.distance / 2.0;
    // Per-site probabilities. For the distances in the paper (≤ ~0.3 per
    // lineage) treating distance as probability is adequate; multiple hits
    // at one site only saturate observed identity, which the model's users
    // measure anyway.
    let p_sub = lineage_distance.min(0.75);
    let p_indel = (p_sub * params.indels_per_substitution).min(0.5);
    let p_turnover = params.turnover_probability();
    // Each roll compares its draw's integer form with a threshold, the
    // same outcome as the `f64` compare (`markov::threshold`).
    let rolls_at = |sub_factor: f64, indel_factor: f64| Rolls {
        turnover: threshold(p_turnover * sub_factor),
        indel: threshold(p_indel * indel_factor),
        substitution: threshold(p_sub * sub_factor),
    };
    let outside = rolls_at(1.0, 1.0);
    let inside = rolls_at(params.conserved_rate_factor, params.conserved_indel_factor);
    let long_indel = threshold(params.long_indel_prob);
    let transition = threshold(params.transition_fraction);
    let turnover_len = Geometric::with_mean(params.turnover_mean_len as f64);
    let long_len = PowerLaw::on(10, params.long_indel_max.max(10));
    let short_len = Geometric::with_mean(params.short_indel_mean);

    // Every draw reads through one cursor, its position in a register.
    let rng = &mut rng.cursor();
    let room = params.expected_descendant_len(ancestor.len());
    let mut sequence = Descendant::in_buffer(std::mem::take(bases), room);
    // One entry an ancestral base: a deletion leaves its entries as they
    // start, a copied base writes its own.
    let mut map = vec![DELETED; ancestor.len()];
    let mut substitutions = 0u64;
    let mut indel_events = 0u64;
    let mut indel_bases = 0u64;

    // The first conserved element that ends past `pos`, the rolls at
    // `pos`, and the first position they may not hold at: where that
    // element starts or ends.
    let mut element = 0usize;
    let mut rolls = &outside;
    let mut edge = 0usize;
    let mut pos = 0usize;
    while pos < ancestor.len() {
        if pos >= edge {
            while conserved.get(element).is_some_and(|iv| iv.end <= pos) {
                element += 1;
            }
            (rolls, edge) = match conserved.get(element) {
                Some(iv) if iv.start <= pos => (&inside, iv.end),
                Some(iv) => (&outside, iv.start),
                None => (&outside, ancestor.len()),
            };
        }
        // Turnover: a lineage-specific long insertion (transposon gain).
        // Conserved elements resist turnover like they resist substitutions.
        if unit(rng) < rolls.turnover {
            let len = turnover_len.sample(rng).max(50);
            sequence.append_chain(model, len, rng);
            indel_events += 1;
            indel_bases += len as u64;
        }
        if unit(rng) < rolls.indel {
            // Indel event: deletion or insertion with equal probability.
            let len = if unit(rng) < long_indel {
                long_len.sample(rng)
            } else {
                short_len.sample(rng)
            };
            indel_events += 1;
            indel_bases += len as u64;
            if rng.gen::<bool>() {
                // Deletion: skip `len` ancestral bases.
                pos = (pos + len).min(ancestor.len());
                continue;
            }
            // Insertion before the current base, which is copied after it.
            sequence.append_chain(model, len, rng);
        }
        let mut base = ancestor[pos];
        // The substitution roll and, if it fires, the transition roll,
        // none for `N`. Both are peeked where the cursor holds them and
        // taken by count, so that whether the second is taken is an
        // addition, not a branch: the roll fires at one base in two at
        // the larger distances.
        let (substituted, transversion) = match peek_units::<_, 2>(rng) {
            _ if base == Base::N => (0, 0),
            Some([roll, kind]) => {
                let substituted = fires(roll, rolls.substitution);
                rng.skip_u64s(1 + (substituted >> 63) as usize);
                (
                    substituted >> 63,
                    (substituted & !fires(kind, transition)) >> 63,
                )
            }
            None => {
                let substituted = unit(rng) < rolls.substitution;
                let transversion = substituted && unit(rng) >= transition;
                (u64::from(substituted), u64::from(transversion))
            }
        };
        substitutions += substituted;
        if transversion == 1 {
            // One of the two transversions, uniformly, in `Base::DNA`
            // order: a purine's are C and T, a pyrimidine's A and G. By
            // lookup, not a branch on the base.
            const TRANSVERSIONS: [[Base; 2]; 5] = {
                let mut table = [[Base::N; 2]; 5];
                let mut code = 0;
                while code < Base::DNA.len() {
                    table[code] = if Base::DNA[code].is_purine() {
                        [Base::C, Base::T]
                    } else {
                        [Base::A, Base::G]
                    };
                    code += 1;
                }
                table
            };
            let options = TRANSVERSIONS[base as usize];
            base = options[rng.gen_range(0..options.len())];
        } else {
            base = [base, base.transition_partner()][substituted as usize];
        }
        map[pos] = sequence.len as u32;
        sequence.push(base);
        pos += 1;
    }
    *bases = sequence.finish();
    let sequence = bases;

    // Segmental duplications: copy a segment to a random position.
    let expected_dups = params.duplications_per_mbp * (sequence.len() as f64 / 1e6);
    let n_dups = poisson_like(expected_dups, rng);
    let dup_len = Geometric::with_mean(params.duplication_mean_len as f64);
    let mut shifts = Shifts::default();
    for _ in 0..n_dups {
        if sequence.len() < 2 * params.duplication_mean_len {
            break;
        }
        let dlen = dup_len.sample(rng).clamp(100, sequence.len() / 2);
        let src = rng.gen_range(0..sequence.len() - dlen);
        let dst = rng.gen_range(0..sequence.len());
        // Appended, then turned into place.
        sequence.extend_from_within(src..src + dlen);
        sequence[dst..].rotate_right(dlen);
        shifts.insert_at(dst, dlen);
    }
    shifts.apply(&mut map);

    let coordinates = CoordinateMap::from_positions(map, sequence.len());
    let conserved_projected = conserved
        .iter()
        .filter_map(|iv| coordinates.project(iv))
        .collect();

    Lineage {
        sequence: Sequence::from_slice(sequence),
        coordinates,
        conserved: conserved_projected,
        substitutions,
        indel_events,
        indel_bases,
    }
}

/// A lineage's descendant while it is drawn: a buffer sized before the
/// first base (`EvolutionParams::expected_descendant_len`) and the bases
/// written so far, so a base is a store and a local count, not a `Vec`
/// push. Running past the expectation is the one growth path. The buffer
/// is owned, not borrowed, so its pointer and length are locals too.
struct Descendant {
    bases: Vec<Base>,
    len: usize,
}

/// Room for at least `least` bases in `bases`: the one growth path, out
/// of line. It borrows the buffer alone: a `&mut Descendant` to a call
/// that is not inlined would keep `len` in memory for the whole loop.
#[cold]
#[inline(never)]
fn grow(bases: &mut Vec<Base>, least: usize) {
    bases.resize(least.max(2 * bases.len()), Base::A);
}

impl Descendant {
    /// Room for `room` bases in `bases`, whose contents are dropped.
    #[inline]
    fn in_buffer(mut bases: Vec<Base>, room: usize) -> Descendant {
        bases.clear();
        bases.resize(room, Base::A);
        Descendant { bases, len: 0 }
    }

    #[inline]
    fn push(&mut self, base: Base) {
        if self.len == self.bases.len() {
            grow(&mut self.bases, self.len + 1);
        }
        self.bases[self.len] = base;
        self.len += 1;
    }

    /// Appends `len` bases of a fresh chain of `model`. Inlined, as
    /// [`MarkovModel::fill`] is, so the lineage's cursor stays a register.
    #[inline(always)]
    fn append_chain<R: Rng + ?Sized>(&mut self, model: &MarkovModel, len: usize, rng: &mut R) {
        if self.bases.len() - self.len < len {
            grow(&mut self.bases, self.len + len);
        }
        model.fill(&mut self.bases[self.len..self.len + len], rng);
        self.len += len;
    }

    /// The bases written.
    #[inline]
    fn finish(mut self) -> Vec<Base> {
        self.bases.truncate(self.len);
        self.bases
    }
}

/// The [`threshold`]s of a lineage's per-base rolls on one side of a
/// conserved element's edge.
struct Rolls {
    turnover: u64,
    indel: u64,
    substitution: u64,
}

/// What a lineage's duplications do to its coordinate map, composed so the
/// map is walked once, not once a duplication. An insertion moves the
/// positions at or past it right and keeps their order, so each shifts a
/// suffix of the positions as they were before any: `(first position
/// shifted, by how much)`, sorted.
#[derive(Default)]
struct Shifts(Vec<(usize, usize)>);

impl Shifts {
    /// Records `dlen` bases inserted at `dst`, a position in the sequence
    /// as the earlier insertions left it.
    fn insert_at(&mut self, dst: usize, dlen: usize) {
        // Between two recorded starts every position has moved by the same
        // amount; the first such stretch reaching `dst` holds the start.
        let (mut at, mut from, mut moved) = (0, 0, 0);
        while at < self.0.len() && dst.saturating_sub(moved).max(from) >= self.0[at].0 {
            from = self.0[at].0;
            moved += self.0[at].1;
            at += 1;
        }
        self.0
            .insert(at, (dst.saturating_sub(moved).max(from), dlen));
    }

    /// Moves every surviving entry of `map` (increasing) to where the
    /// recorded insertions left it. Survivors increase, so those an
    /// insertion moves are a suffix of them: the map is cut where each
    /// recorded start is first reached, and each piece's survivors move
    /// by what every start before them adds.
    fn apply(&self, mut map: &mut [u32]) {
        let mut moved = 0;
        for &(first, dlen) in &self.0 {
            let cut = (map.iter())
                .position(|&entry| entry != DELETED && entry as usize >= first)
                .unwrap_or(map.len());
            let (before, rest) = map.split_at_mut(cut);
            shift(before, moved);
            map = rest;
            moved += dlen as u32;
        }
        shift(map, moved);
    }
}

/// Adds `by` to every entry of `map` but the [`DELETED`] ones.
fn shift(map: &mut [u32], by: u32) {
    if by == 0 {
        return;
    }
    for entry in map {
        *entry += if *entry == DELETED { 0 } else { by };
    }
}

/// Cheap Poisson-ish sampler (sum of Bernoulli over unit intervals).
fn poisson_like<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let whole = mean.floor() as usize;
    let mut n = 0;
    for _ in 0..whole * 2 {
        if rng.gen::<f64>() < 0.5 {
            n += 1;
        }
    }
    if rng.gen::<f64>() < mean.fract() {
        n += 1;
    }
    n
}

/// A named species pair from the paper's evaluation with its Fig. 8
/// phylogenetic distance and a scaled default size.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesPair {
    /// Target assembly name (e.g. `ce11`).
    pub target: &'static str,
    /// Query assembly name (e.g. `cb4`).
    pub query: &'static str,
    /// Pairwise phylogenetic distance in substitutions/site (Fig. 8,
    /// approximated from the published tree).
    pub distance: f64,
    /// Real genome size of the target in Mbp (Table I).
    pub real_size_mbp: f64,
}

impl SpeciesPair {
    /// The four whole-genome alignments evaluated in the paper
    /// (Tables III and V), ordered as the paper lists them.
    pub fn paper_pairs() -> [SpeciesPair; 4] {
        [
            SpeciesPair {
                target: "ce11",
                query: "cb4",
                distance: 1.10,
                real_size_mbp: 100.0,
            },
            SpeciesPair {
                target: "dm6",
                query: "dp4",
                distance: 0.90,
                real_size_mbp: 137.5,
            },
            SpeciesPair {
                target: "dm6",
                query: "droYak2",
                distance: 0.50,
                real_size_mbp: 137.5,
            },
            SpeciesPair {
                target: "dm6",
                query: "droSim1",
                distance: 0.22,
                real_size_mbp: 137.5,
            },
        ]
    }

    /// Human-readable pair name, e.g. `ce11-cb4`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.target, self.query)
    }

    /// Evolution parameters for this pair.
    pub fn evolution_params(&self) -> EvolutionParams {
        EvolutionParams::at_distance(self.distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(distance: f64, len: usize, seed: u64) -> SyntheticPair {
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
    }

    #[test]
    fn lengths_are_plausible() {
        // Turnover insertions inflate the descendant relative to the
        // ancestor; at distance 0.2 expect up to ~40%.
        let p = pair(0.2, 20_000, 1);
        for lin in [&p.target, &p.query] {
            let ratio = lin.sequence.len() as f64 / 20_000.0;
            assert!((0.8..1.6).contains(&ratio), "length ratio {ratio}");
        }
    }

    #[test]
    fn coordinate_maps_are_consistent() {
        let p = pair(0.3, 10_000, 2);
        for lin in [&p.target, &p.query] {
            assert_eq!(lin.coordinates.ancestor_len(), 10_000);
            assert_eq!(lin.coordinates.descendant_len(), lin.sequence.len());
            // Surviving bases must be most of the genome at this distance.
            let map = &lin.coordinates;
            assert!(
                (0..map.ancestor_len())
                    .filter_map(|p| map.lookup(p))
                    .count()
                    > 8_000
            );
        }
    }

    #[test]
    fn identity_decreases_with_distance() {
        let close = pair(0.05, 20_000, 3);
        let far = pair(0.6, 20_000, 3);
        let identity = |p: &SyntheticPair| {
            let pairs = p.orthologous_pairs();
            let matches = pairs
                .iter()
                .filter(|&&(t, q)| p.target.sequence.get(t) == p.query.sequence.get(q))
                .count();
            matches as f64 / pairs.len() as f64
        };
        let id_close = identity(&close);
        let id_far = identity(&far);
        assert!(id_close > 0.9, "close identity {id_close}");
        assert!(id_far < id_close - 0.2, "far {id_far} vs close {id_close}");
    }

    #[test]
    fn conserved_elements_evolve_slower() {
        let p = pair(0.5, 50_000, 4);
        let pairs = p.orthologous_pairs();
        // Build reverse lookup: target position -> inside conserved?
        let mut cons = vec![false; p.target.sequence.len()];
        for iv in &p.target.conserved {
            for pos in iv.range() {
                if pos < cons.len() {
                    cons[pos] = true;
                }
            }
        }
        let (mut m_in, mut n_in, mut m_out, mut n_out) = (0u64, 0u64, 0u64, 0u64);
        for &(t, q) in &pairs {
            let is_match = p.target.sequence.get(t) == p.query.sequence.get(q);
            if cons[t] {
                n_in += 1;
                m_in += is_match as u64;
            } else {
                n_out += 1;
                m_out += is_match as u64;
            }
        }
        let id_in = m_in as f64 / n_in.max(1) as f64;
        let id_out = m_out as f64 / n_out.max(1) as f64;
        assert!(
            id_in > id_out + 0.05,
            "conserved identity {id_in} vs background {id_out}"
        );
    }

    #[test]
    fn transition_bias_present() {
        let p = pair(0.4, 50_000, 5);
        let (mut ts, mut tv) = (0u64, 0u64);
        for &(t, q) in &p.orthologous_pairs() {
            let (a, b) = (
                p.target.sequence.get(t).unwrap(),
                p.query.sequence.get(q).unwrap(),
            );
            if a.is_transition(b) {
                ts += 1;
            } else if a.is_transversion(b) {
                tv += 1;
            }
        }
        assert!(
            ts > tv,
            "transitions {ts} should outnumber transversions {tv}"
        );
    }

    #[test]
    fn ungapped_block_length_shrinks_with_distance() {
        // The Fig. 2 property: mean distance between indels in the true
        // alignment shrinks as distance grows.
        let block_mean = |p: &SyntheticPair| {
            let pairs = p.orthologous_pairs();
            let mut blocks = Vec::new();
            let mut cur = 1usize;
            for w in pairs.windows(2) {
                let ((t0, q0), (t1, q1)) = (w[0], w[1]);
                if t1 == t0 + 1 && q1 == q0 + 1 {
                    cur += 1;
                } else {
                    blocks.push(cur);
                    cur = 1;
                }
            }
            blocks.push(cur);
            blocks.iter().sum::<usize>() as f64 / blocks.len() as f64
        };
        let close = pair(0.1, 60_000, 6);
        let far = pair(0.6, 60_000, 6);
        let (bc, bf) = (block_mean(&close), block_mean(&far));
        assert!(bc > 2.0 * bf, "close blocks {bc} vs far {bf}");
    }

    #[test]
    fn paper_pairs_ordered_by_table() {
        let pairs = SpeciesPair::paper_pairs();
        assert_eq!(pairs[0].name(), "ce11-cb4");
        assert_eq!(pairs[3].name(), "dm6-droSim1");
        // Distance ordering matches Fig. 8: droSim closest, ce-cb farthest.
        assert!(pairs[0].distance > pairs[1].distance);
        assert!(pairs[1].distance > pairs[2].distance);
        assert!(pairs[2].distance > pairs[3].distance);
    }

    #[test]
    fn composed_shifts_equal_one_map_walk_per_duplication() {
        let mut rng = StdRng::seed_from_u64(9);
        for round in 0..200 {
            let mut walked: Vec<u32> = (0..60u32)
                .map(|i| {
                    if rng.gen_range(0..4) == 0 {
                        DELETED
                    } else {
                        3 * i + round % 3
                    }
                })
                .collect();
            let mut composed = walked.clone();
            let mut shifts = Shifts::default();
            let mut len = 200usize;
            for _ in 0..rng.gen_range(0..12) {
                let (dst, dlen) = (rng.gen_range(0..len), rng.gen_range(1..40usize));
                for entry in walked
                    .iter_mut()
                    .filter(|e| **e != DELETED && **e as usize >= dst)
                {
                    *entry += dlen as u32;
                }
                shifts.insert_at(dst, dlen);
                len += dlen;
            }
            shifts.apply(&mut composed);
            assert_eq!(composed, walked, "round {round}: {:?}", shifts.0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = pair(0.2, 5_000, 42);
        let b = pair(0.2, 5_000, 42);
        assert_eq!(a.target.sequence, b.target.sequence);
        assert_eq!(a.query.sequence, b.query.sequence);
    }
}
