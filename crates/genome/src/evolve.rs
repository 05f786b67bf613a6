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
use crate::annotation::{truth_overlap, CoordinateMap, Interval, Run};
use crate::markov::{fires, peek_units, threshold, unit, MarkovModel};
use crate::sequence::Sequence;
use rand::rngs::StdRng;
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
    /// Number of segmental duplications applied.
    pub duplications: u64,
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

    /// [`SyntheticPair::generate`] over the seeded generator, compiled
    /// once, in this crate: a caller elsewhere links this copy instead of
    /// instantiating its own, whose code placement, and so its speed,
    /// would move with unrelated edits to that caller.
    #[inline(never)]
    pub fn generate_seeded(
        len: usize,
        params: &EvolutionParams,
        rng: &mut StdRng,
    ) -> SyntheticPair {
        SyntheticPair::generate(len, params, rng)
    }

    /// Ground-truth orthologs as gap-free runs `(target_pos, query_pos,
    /// len)`, in increasing order in both coordinates.
    pub fn orthologous_runs(&self) -> Vec<(usize, usize, usize)> {
        crate::annotation::orthologous_runs(&self.target.coordinates, &self.query.coordinates)
    }

    /// The conserved elements alignable by truth, in target coordinates:
    /// those with at least half their ancestral bases surviving in both
    /// lineages. The maps are monotone, so those bases are exactly the
    /// runs' target positions inside the element's projection.
    pub fn alignable_exons(&self) -> Vec<Interval> {
        let runs = self.orthologous_runs();
        (self.ancestral_conserved.iter())
            .filter_map(|exon| {
                let projected = self.target.coordinates.project(exon)?;
                (2 * truth_overlap(&runs, &projected) >= exon.len()).then_some(projected)
            })
            .collect()
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
    // One run an event and one to close the last, sized from the rolls'
    // expected count with room for its spread: one allocation.
    let events = ancestor.len() as f64 * (p_turnover.min(1.0) + p_indel);
    let mut map = RunBuilder::with_capacity(events as usize + 4 * events.sqrt() as usize + 1);
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
            map.cut(pos, pos, sequence.len);
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
                let next = (pos + len).min(ancestor.len());
                map.cut(pos, next, sequence.len);
                pos = next;
                continue;
            }
            // Insertion before the current base, which is copied after it.
            sequence.append_chain(model, len, rng);
            map.cut(pos, pos, sequence.len);
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
        sequence.push(base);
        pos += 1;
    }
    map.cut(ancestor.len(), ancestor.len(), sequence.len);
    *bases = sequence.finish();
    let sequence = bases;

    // Segmental duplications: copy a segment to a random position. A
    // copy's draws depend on the length alone, so every copy is drawn
    // first and all are made in one pass.
    let expected_dups = params.duplications_per_mbp * (sequence.len() as f64 / 1e6);
    let n_dups = poisson_like(expected_dups, rng);
    let dup_len = Geometric::with_mean(params.duplication_mean_len as f64);
    let (mut copies, mut len) = (Vec::new(), sequence.len());
    let mut shifts = Shifts::default();
    for _ in 0..n_dups {
        if len < 2 * params.duplication_mean_len {
            break;
        }
        let dlen = dup_len.sample(rng).clamp(100, len / 2);
        let src = rng.gen_range(0..len - dlen);
        let dst = rng.gen_range(0..len);
        copies.push((src, dst, dlen));
        shifts.insert_at(dst, dlen);
        len += dlen;
    }
    duplicate(sequence, &copies);
    let runs = shifts.apply(map.runs);
    let coordinates = CoordinateMap::from_runs(runs, ancestor.len(), sequence.len());
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
        duplications: shifts.0.len() as u64,
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

/// A lineage's coordinate map while it is drawn: the runs closed so far
/// and where the open one starts. A copied base moves both coordinates and
/// writes nothing; an event that moves one of them alone (a turnover gain,
/// an insertion, a deletion) cuts the open run.
struct RunBuilder {
    runs: Vec<Run>,
    ancestor: usize,
    descendant: usize,
}

impl RunBuilder {
    fn with_capacity(runs: usize) -> RunBuilder {
        RunBuilder {
            runs: Vec::with_capacity(runs),
            ancestor: 0,
            descendant: 0,
        }
    }

    /// Closes the open run before ancestral base `end`, if it holds a base,
    /// and opens the next at `(ancestor, descendant)`. The casts hold for
    /// any map that is built: `CoordinateMap::from_runs` refuses a longer
    /// ancestor or descendant than a `u32` addresses.
    #[inline]
    fn cut(&mut self, end: usize, ancestor: usize, descendant: usize) {
        if end > self.ancestor {
            self.runs.push(Run {
                ancestor: self.ancestor as u32,
                descendant: self.descendant as u32,
                len: (end - self.ancestor) as u32,
            });
        }
        (self.ancestor, self.descendant) = (ancestor, descendant);
    }
}

/// What a lineage's duplications do to its coordinate map, composed so the
/// runs are walked once, not once a duplication. An insertion moves the
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

    /// Moves the runs (increasing) to where the recorded insertions left
    /// them: a run an insertion lands strictly inside is split there, and
    /// each piece moves by what every recorded start at or before its
    /// first base adds.
    fn apply(&self, runs: Vec<Run>) -> Vec<Run> {
        if self.0.is_empty() {
            return runs;
        }
        let mut moved = Vec::with_capacity(runs.len() + self.0.len());
        let (mut starts, mut by) = (self.0.iter().peekable(), 0u32);
        for mut run in runs {
            loop {
                // Every start at or before the run's first base moves all
                // of it; the next start, if it falls inside, ends the piece.
                while let Some((_, dlen)) =
                    starts.next_if(|&&(first, _)| first <= run.descendant as usize)
                {
                    by += *dlen as u32;
                }
                let head = match starts.peek() {
                    Some(&&(first, _)) if first < run.descendant as usize + run.len as usize => {
                        first as u32 - run.descendant
                    }
                    _ => run.len,
                };
                moved.push(Run {
                    descendant: run.descendant + by,
                    len: head,
                    ..run
                });
                if head == run.len {
                    break;
                }
                run = Run {
                    ancestor: run.ancestor + head,
                    descendant: run.descendant + head,
                    len: run.len - head,
                };
            }
        }
        moved
    }
}

/// Makes each `(src, dst, len)` copy in turn — the `len` bases at `src`
/// inserted before `dst`, both positions in the sequence as the copies
/// before it left it — in one pass over the bases. The copies are first
/// resolved to pieces of the sequence as it was before any, copies of
/// copies included, in O(copies²); their bases are gathered aside, the
/// vector grows once, and back to front each untouched stretch moves
/// right to its place and each copy is written into its own: O(len +
/// copies²).
fn duplicate(sequence: &mut Vec<Base>, copies: &[(usize, usize, usize)]) {
    if copies.is_empty() {
        return;
    }
    // The sequence as pieces `(first base before any copy, len, copied)`,
    // in order.
    let mut pieces = vec![(0, sequence.len(), false)];
    for &(src, dst, len) in copies {
        let (mut copy, mut at) = (Vec::new(), 0);
        for &(from, n, _) in &pieces {
            let (lo, hi) = (src.max(at), (src + len).min(at + n));
            if lo < hi {
                copy.push((from + lo - at, hi - lo, true));
            }
            at += n;
        }
        // Before the piece that starts at `dst`, once the piece it falls
        // strictly inside, if any, is split there.
        let (mut i, mut at) = (0, 0);
        while i < pieces.len() && at + pieces[i].1 <= dst {
            at += pieces[i].1;
            i += 1;
        }
        if at < dst {
            let (from, n, copied) = pieces[i];
            let head = dst - at;
            pieces[i].1 = head;
            i += 1;
            pieces.insert(i, (from + head, n - head, copied));
        }
        pieces.splice(i..i, copy);
    }
    let mut aside: Vec<Base> = Vec::new();
    for &(from, n, copied) in &pieces {
        if copied {
            aside.extend_from_slice(&sequence[from..from + n]);
        }
    }
    let mut end = sequence.len() + aside.len();
    sequence.reserve_exact(aside.len());
    sequence.resize(end, Base::A);
    // Back to front, every stretch still to move lies left of `end`.
    for &(from, n, copied) in pieces.iter().rev() {
        end -= n;
        if copied {
            let rest = aside.len() - n;
            sequence[end..end + n].copy_from_slice(&aside[rest..]);
            aside.truncate(rest);
        } else {
            sequence.copy_within(from..from + n, end);
        }
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
    use rand::SeedableRng;

    fn pair(distance: f64, len: usize, seed: u64) -> SyntheticPair {
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
    }

    /// The ground truth one `(target_pos, query_pos)` pair a base.
    fn ortholog_bases(p: &SyntheticPair) -> Vec<(usize, usize)> {
        (p.orthologous_runs().into_iter())
            .flat_map(|(t, q, len)| (0..len).map(move |i| (t + i, q + i)))
            .collect()
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
            let pairs = ortholog_bases(p);
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
        let pairs = ortholog_bases(&p);
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
        for (t, q) in ortholog_bases(&p) {
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
            // Runs that abut in both coordinates are one block.
            let runs = p.orthologous_runs();
            let joins = (runs.windows(2))
                .filter(|w| w[0].0 + w[0].2 == w[1].0 && w[0].1 + w[0].2 == w[1].1)
                .count();
            let bases: usize = runs.iter().map(|run| run.2).sum();
            bases as f64 / (runs.len() - joins) as f64
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

    /// The §V-E exon oracle keeps its meaning: at `repro exons`' length
    /// and seeds, fewer exons are alignable by truth at ce11-cb4's
    /// distance than at dm6-droSim1's.
    #[test]
    fn alignable_exon_share_shrinks_with_distance() {
        let species = SpeciesPair::paper_pairs();
        let share = |i: usize| {
            let mut rng = StdRng::seed_from_u64(3000 + i as u64);
            let p = SyntheticPair::generate(60_000, &species[i].evolution_params(), &mut rng);
            let alignable = p.alignable_exons();
            assert!(alignable
                .iter()
                .all(|exon| p.target.conserved.contains(exon)));
            (alignable.len(), p.target.conserved.len())
        };
        let ((far, far_total), (near, near_total)) = (share(0), share(3));
        assert!(
            far * near_total < near * far_total,
            "{far}/{far_total} vs {near}/{near_total}"
        );
    }

    /// Where each ancestral base lands, if it survives, once the runs are
    /// checked to be a map of a `len`-base descendant.
    fn per_base(runs: Vec<Run>, ancestor_len: usize, len: usize) -> Vec<Option<usize>> {
        let map = CoordinateMap::from_runs(runs, ancestor_len, len);
        (0..ancestor_len).map(|pos| map.lookup(pos)).collect()
    }

    #[test]
    fn composed_shifts_equal_one_walk_per_duplication() {
        let mut rng = StdRng::seed_from_u64(9);
        for round in 0..300 {
            // Runs of one to eight bases, a gap of zero to three on each
            // side between them.
            let (mut runs, mut ancestor, mut descendant) = (Vec::new(), 0u32, 0u32);
            while ancestor < 60 {
                ancestor += rng.gen_range(0..4);
                descendant += rng.gen_range(0..4);
                let len = rng.gen_range(1..9);
                runs.push(Run {
                    ancestor,
                    descendant,
                    len,
                });
                (ancestor, descendant) = (ancestor + len, descendant + len);
            }
            let ancestor_len = ancestor as usize;
            let mut len = descendant as usize;
            let mut walked = per_base(runs.clone(), ancestor_len, len);
            let mut shifts = Shifts::default();
            for _ in 0..rng.gen_range(0..12) {
                // On a run's first base, on its last, on any of its bases
                // (strictly inside it if it has three or more), or
                // anywhere: a run's bases where earlier duplications moved
                // them.
                let run = runs[rng.gen_range(0..runs.len())];
                let at = |i: u32| walked[(run.ancestor + i) as usize].unwrap();
                let dst = match rng.gen_range(0..4) {
                    0 => at(0),
                    1 => at(run.len - 1),
                    2 => at(rng.gen_range(0..run.len)),
                    _ => rng.gen_range(0..=len),
                };
                let dlen = rng.gen_range(1..40usize);
                for position in walked.iter_mut().flatten().filter(|p| **p >= dst) {
                    *position += dlen;
                }
                shifts.insert_at(dst, dlen);
                len += dlen;
            }
            let composed = shifts.apply(runs.clone());
            assert!(composed.len() <= runs.len() + shifts.0.len());
            assert_eq!(
                per_base(composed, ancestor_len, len),
                walked,
                "round {round}: {:?}",
                shifts.0
            );
        }
    }

    /// Each copy appended, then the tail turned into place: the
    /// duplication loop before [`duplicate`], O(len) a copy.
    fn duplicate_by_rotation(sequence: &mut Vec<Base>, copies: &[(usize, usize, usize)]) {
        for &(src, dst, len) in copies {
            sequence.extend_from_within(src..src + len);
            sequence[dst..].rotate_right(len);
        }
    }

    #[test]
    fn duplications_in_one_pass_equal_one_rotation_a_copy() {
        let mut rng = StdRng::seed_from_u64(54);
        let random = |rng: &mut StdRng, len: usize| -> Vec<Base> {
            (0..len)
                .map(|_| Base::from_code(rng.gen_range(0..4)))
                .collect()
        };
        // Nested by hand: a copy into an earlier copy, one from a span
        // across two, and copies to both ends.
        let mut cases = vec![
            (
                random(&mut rng, 100),
                vec![(10, 50, 20), (45, 55, 30), (0, 60, 10)],
            ),
            (
                random(&mut rng, 100),
                vec![(5, 0, 10), (0, 110, 30), (90, 140, 50)],
            ),
            (random(&mut rng, 7), vec![(0, 7, 3)]),
        ];
        // Dozens of copies on short sequences, drawn as the lineage draws
        // them but from one base on and to either end, so most land in or
        // copy from earlier ones.
        for _ in 0..300 {
            let start = rng.gen_range(2..200);
            let (mut copies, mut len) = (Vec::new(), start);
            for _ in 0..rng.gen_range(0..60) {
                let dlen = rng.gen_range(1..=len / 2);
                let src = rng.gen_range(0..=len - dlen);
                let dst = rng.gen_range(0..=len);
                copies.push((src, dst, dlen));
                len += dlen;
            }
            cases.push((random(&mut rng, start), copies));
        }
        for (bases, copies) in cases {
            let (mut one_pass, mut rotated) = (bases.clone(), bases);
            duplicate(&mut one_pass, &copies);
            duplicate_by_rotation(&mut rotated, &copies);
            assert_eq!(one_pass, rotated, "{copies:?}");
        }
    }

    #[test]
    fn a_lineage_holds_a_run_an_event_and_one_more() {
        let pairs = [
            (0.0, 50_000),
            (0.3, 50_000),
            (1.3, 50_000),
            (2.0, 50_000),
            (0.5, 1_000_000),
        ];
        let mut duplications = 0;
        for (distance, len) in pairs {
            let p = pair(distance, len, 2);
            for lin in [&p.target, &p.query] {
                let runs = lin.coordinates.runs().len() as u64;
                assert!(
                    runs <= lin.indel_events + lin.duplications + 1,
                    "distance {distance}: {runs} runs for {} events and {} duplications",
                    lin.indel_events,
                    lin.duplications
                );
                duplications += lin.duplications;
            }
        }
        assert!(duplications > 0, "no duplication fired");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = pair(0.2, 5_000, 42);
        let b = pair(0.2, 5_000, 42);
        assert_eq!(a.target.sequence, b.target.sequence);
        assert_eq!(a.query.sequence, b.query.sequence);
    }
}
