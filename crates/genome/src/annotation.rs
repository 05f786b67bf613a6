//! Genomic intervals and ground-truth coordinate maps.
//!
//! The synthetic evolution model tracks, for every ancestral position, where
//! it landed in each descendant. That gives us a ground-truth orthology map
//! the paper did not have (it had to approximate one with TBLASTX), which we
//! use for the exon-recovery metric of Table III.

use std::ops::Range;

/// A half-open interval `[start, end)` on a sequence, with a label.
///
/// Used for conserved elements ("exons") in the synthetic ancestor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Start coordinate (inclusive).
    pub start: usize,
    /// End coordinate (exclusive).
    pub end: usize,
    /// Free-form label, e.g. `exon_17`.
    pub label: String,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: usize, end: usize, label: impl Into<String>) -> Interval {
        assert!(start <= end, "interval start {start} > end {end}");
        Interval {
            start,
            end,
            label: label.into(),
        }
    }

    /// Interval length.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `pos` lies inside the interval.
    pub fn contains(&self, pos: usize) -> bool {
        (self.start..self.end).contains(&pos)
    }

    /// The interval as a `Range`.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of positions shared with `other`.
    pub fn overlap(&self, other: &Interval) -> usize {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        hi.saturating_sub(lo)
    }
}

/// Maps ancestral coordinates to descendant coordinates.
///
/// A sorted list of gap-free runs: `len` ancestral bases from
/// `ancestor` on survive, in order and without a gap, at `descendant`
/// on. Inside a run a base's descendant position is implied by the run's
/// first one, so the map costs one entry an event (an indel, a turnover
/// gain, a duplication landing inside a run), not one an ancestral base.
/// Runs increase and are disjoint in both coordinates; an ancestral base
/// in no run was deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinateMap {
    runs: Vec<Run>,
    ancestor_len: usize,
    descendant_len: usize,
}

/// One gap-free run of a [`CoordinateMap`]: ancestral bases
/// `ancestor..ancestor + len` at descendant positions
/// `descendant..descendant + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) ancestor: u32,
    pub(crate) descendant: u32,
    pub(crate) len: u32,
}

impl Run {
    /// One past the run's last ancestral base.
    fn ancestor_end(&self) -> usize {
        self.ancestor as usize + self.len as usize
    }
}

impl CoordinateMap {
    /// The longest sequence a map addresses, on either side: a run holds
    /// its coordinates and its length as `u32`s, and every run's end is
    /// below `u32::MAX` too.
    pub const MAX_DESCENDANT_LEN: usize = u32::MAX as usize - 1;

    /// Builds a map from its runs.
    ///
    /// # Panics
    ///
    /// Panics if either length exceeds [`Self::MAX_DESCENDANT_LEN`], or if
    /// the runs are empty, overlap, are out of order or reach past either
    /// length.
    pub(crate) fn from_runs(
        runs: Vec<Run>,
        ancestor_len: usize,
        descendant_len: usize,
    ) -> CoordinateMap {
        for len in [descendant_len, ancestor_len] {
            assert!(
                len <= Self::MAX_DESCENDANT_LEN,
                "{len} bases exceed the {} a coordinate map can address",
                Self::MAX_DESCENDANT_LEN
            );
        }
        // One past the previous run on each side.
        let (mut ancestor, mut descendant) = (0usize, 0usize);
        for run in &runs {
            assert!(
                run.len > 0
                    && run.ancestor as usize >= ancestor
                    && run.descendant as usize >= descendant,
                "coordinate map not increasing at {run:?}"
            );
            ancestor = run.ancestor_end();
            descendant = run.descendant as usize + run.len as usize;
        }
        assert!(
            ancestor <= ancestor_len && descendant <= descendant_len,
            "coordinate map reaches ({ancestor}, {descendant}), out of bounds"
        );
        CoordinateMap {
            runs,
            ancestor_len,
            descendant_len,
        }
    }

    /// Length of the ancestral sequence.
    pub fn ancestor_len(&self) -> usize {
        self.ancestor_len
    }

    /// Length of the descendant sequence.
    pub fn descendant_len(&self) -> usize {
        self.descendant_len
    }

    /// The gap-free runs, in order.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Index of the first run that ends past ancestral position `pos`.
    fn first_run_past(&self, pos: usize) -> usize {
        self.runs.partition_point(|run| run.ancestor_end() <= pos)
    }

    /// Descendant position of ancestral base `pos`, if it survives.
    pub fn lookup(&self, pos: usize) -> Option<usize> {
        let run = self.runs.get(self.first_run_past(pos))?;
        let offset = pos.checked_sub(run.ancestor as usize)?;
        Some(run.descendant as usize + offset)
    }

    /// Projects an ancestral interval to the descendant: the smallest
    /// interval containing all surviving bases, or `None` if every base was
    /// deleted.
    pub fn project(&self, interval: &Interval) -> Option<Interval> {
        // The first surviving base: in the first run ending past the start.
        let first = self.runs.get(self.first_run_past(interval.start))?;
        let lo = interval.start.max(first.ancestor as usize);
        if lo >= interval.end {
            return None;
        }
        // The last: in the last run starting before the end, `first` or
        // a later one.
        let last_index = self
            .runs
            .partition_point(|run| (run.ancestor as usize) < interval.end);
        let last = &self.runs[last_index - 1];
        let hi = interval.end.min(last.ancestor_end()) - 1;
        Some(Interval::new(
            first.descendant as usize + (lo - first.ancestor as usize),
            last.descendant as usize + (hi - last.ancestor as usize) + 1,
            interval.label.clone(),
        ))
    }
}

/// Ground-truth orthologs between two descendants of a common ancestor:
/// the ancestral bases surviving in *both* lineages, as gap-free runs.
///
/// Returns `(pos_in_a, pos_in_b, len)` triples, each `len` bases long
/// and in increasing order in both coordinates. One merge of the two run
/// lists: each overlap of a run of `a` with a run of `b` is one triple.
pub fn orthologous_runs(a: &CoordinateMap, b: &CoordinateMap) -> Vec<(usize, usize, usize)> {
    assert_eq!(
        a.ancestor_len(),
        b.ancestor_len(),
        "maps have different ancestors"
    );
    let mut runs = Vec::new();
    let (mut runs_a, mut runs_b) = (a.runs.iter().peekable(), b.runs.iter().peekable());
    while let (Some(&ra), Some(&rb)) = (runs_a.peek(), runs_b.peek()) {
        let start = ra.ancestor.max(rb.ancestor) as usize;
        let end = ra.ancestor_end().min(rb.ancestor_end());
        if start < end {
            let da = ra.descendant as usize + (start - ra.ancestor as usize);
            let db = rb.descendant as usize + (start - rb.ancestor as usize);
            runs.push((da, db, end - start));
        }
        // The run that ends first overlaps nothing further.
        if ra.ancestor_end() <= rb.ancestor_end() {
            runs_a.next();
        } else {
            runs_b.next();
        }
    }
    runs
}

/// Bases of `interval` on the first coordinates of `runs`, which are
/// sorted and disjoint there as [`orthologous_runs`] returns them.
pub(crate) fn truth_overlap(runs: &[(usize, usize, usize)], interval: &Interval) -> usize {
    let first = runs.partition_point(|&(a, _, len)| a + len <= interval.start);
    (runs[first..].iter())
        .take_while(|&&(a, _, _)| a < interval.end)
        .map(|&(a, _, len)| (a + len).min(interval.end) - a.max(interval.start))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn interval_basics() {
        let iv = Interval::new(10, 20, "exon_1");
        assert_eq!(iv.len(), 10);
        assert!(iv.contains(10));
        assert!(!iv.contains(20));
        assert!(!iv.is_empty());
        assert_eq!(iv.overlap(&Interval::new(15, 30, "x")), 5);
        assert_eq!(iv.overlap(&Interval::new(20, 30, "x")), 0);
    }

    #[test]
    #[should_panic(expected = "interval start")]
    fn interval_rejects_inverted() {
        Interval::new(5, 4, "bad");
    }

    /// A map from `(ancestor, descendant, len)` triples.
    fn map(runs: &[(u32, u32, u32)], ancestor_len: usize, descendant_len: usize) -> CoordinateMap {
        let runs = (runs.iter())
            .map(|&(ancestor, descendant, len)| Run {
                ancestor,
                descendant,
                len,
            })
            .collect();
        CoordinateMap::from_runs(runs, ancestor_len, descendant_len)
    }

    /// The map one entry an ancestral base: the definition the runs stand
    /// for.
    fn per_base(map: &CoordinateMap) -> Vec<Option<usize>> {
        let mut bases = vec![None; map.ancestor_len()];
        for run in map.runs() {
            for i in 0..run.len as usize {
                bases[run.ancestor as usize + i] = Some(run.descendant as usize + i);
            }
        }
        bases
    }

    /// `project` as a walk over every base of the interval.
    fn project_per_base(bases: &[Option<usize>], interval: &Interval) -> Option<(usize, usize)> {
        let mut survivors = interval
            .range()
            .filter_map(|pos| bases.get(pos).copied().flatten());
        let lo = survivors.next()?;
        Some((lo, survivors.next_back().unwrap_or(lo) + 1))
    }

    /// `orthologous_runs`, expanded, as a walk over every ancestral base.
    fn pairs_per_base(a: &[Option<usize>], b: &[Option<usize>]) -> Vec<(usize, usize)> {
        (a.iter().zip(b))
            .filter_map(|(&pa, &pb)| Some((pa?, pb?)))
            .collect()
    }

    /// Random runs over `ancestor_len` bases: gaps of zero or more bases on
    /// either side (both zero: two runs that could have been one), runs of
    /// one base or more.
    fn random_map(rng: &mut StdRng, ancestor_len: usize) -> CoordinateMap {
        let (mut runs, mut ancestor, mut descendant) = (Vec::new(), 0, 0);
        loop {
            ancestor += [0, 0, 1, rng.gen_range(1..6)][rng.gen_range(0..4)];
            descendant += [0, 0, 1, rng.gen_range(1..6)][rng.gen_range(0..4)];
            let len = [1, rng.gen_range(1..12)][rng.gen_range(0..2)];
            if ancestor + len > ancestor_len {
                break;
            }
            runs.push((ancestor as u32, descendant as u32, len as u32));
            ancestor += len;
            descendant += len;
        }
        map(&runs, ancestor_len, descendant + rng.gen_range(0..3))
    }

    #[test]
    fn coordinate_map_lookup_and_project() {
        // ancestor len 6; base 2 deleted; insertion shifted tail.
        let map = map(&[(0, 0, 2), (3, 4, 3)], 6, 7);
        assert_eq!(map.ancestor_len(), 6);
        assert_eq!(map.descendant_len(), 7);
        assert_eq!(map.lookup(0), Some(0));
        assert_eq!(map.lookup(2), None);
        assert_eq!(map.lookup(3), Some(4));
        assert_eq!(map.lookup(6), None);

        let projected = map.project(&Interval::new(1, 5, "e")).unwrap();
        assert_eq!((projected.start, projected.end), (1, 6));

        // Fully deleted interval projects to None.
        assert_eq!(map.project(&Interval::new(2, 3, "gone")), None);
    }

    #[test]
    fn runs_read_as_their_per_base_expansion() {
        let mut rng = StdRng::seed_from_u64(53);
        let empty = CoordinateMap::default();
        assert_eq!(
            (empty.lookup(0), empty.project(&Interval::new(0, 0, "e"))),
            (None, None)
        );
        for round in 0..400 {
            let ancestor_len = rng.gen_range(0..80);
            let (a, b) = (
                random_map(&mut rng, ancestor_len),
                random_map(&mut rng, ancestor_len),
            );
            let (bases_a, bases_b) = (per_base(&a), per_base(&b));
            for pos in 0..ancestor_len + 2 {
                assert_eq!(
                    a.lookup(pos),
                    bases_a.get(pos).copied().flatten(),
                    "round {round}: {pos}"
                );
            }
            // Every interval, so each starts and ends inside runs, inside
            // deletions and at both edges of each.
            for start in 0..=ancestor_len {
                for end in start..=ancestor_len + 1 {
                    let interval = Interval::new(start, end, "e");
                    assert_eq!(
                        a.project(&interval).map(|iv| (iv.start, iv.end)),
                        project_per_base(&bases_a, &interval),
                        "round {round}: {start}..{end} of {:?}",
                        a.runs()
                    );
                }
            }
            let runs = orthologous_runs(&a, &b);
            let pairs: Vec<(usize, usize)> = (runs.iter())
                .flat_map(|&(pa, pb, len)| (0..len).map(move |i| (pa + i, pb + i)))
                .collect();
            assert_eq!(pairs, pairs_per_base(&bases_a, &bases_b), "round {round}");
            // Every interval of `a`'s coordinates, runs' edges and all:
            // `below[pos]` pairs lie before `pos`.
            let len = a.descendant_len() + 1;
            let below: Vec<usize> = (0..=len)
                .map(|pos| pairs.iter().filter(|&&(pa, _)| pa < pos).count())
                .collect();
            for start in 0..=len {
                for end in start..=len {
                    assert_eq!(
                        truth_overlap(&runs, &Interval::new(start, end, "e")),
                        below[end] - below[start],
                        "round {round}: {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not increasing")]
    fn coordinate_map_rejects_decreasing() {
        map(&[(0, 3, 1), (1, 2, 1)], 2, 5);
    }

    #[test]
    #[should_panic(expected = "not increasing")]
    fn coordinate_map_rejects_an_empty_run() {
        map(&[(0, 0, 0)], 2, 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coordinate_map_rejects_a_run_past_the_descendant() {
        map(&[(0, 3, 3)], 3, 5);
    }

    #[test]
    #[should_panic(expected = "exceed the 4294967294 a coordinate map can address")]
    fn coordinate_map_rejects_a_descendant_a_run_cannot_address() {
        map(&[], 0, u32::MAX as usize);
    }

    #[test]
    fn orthologous_runs_intersect_survivors() {
        let a = map(&[(0, 0, 1), (2, 1, 2)], 4, 3);
        let b = map(&[(0, 0, 3)], 4, 3);
        assert_eq!(orthologous_runs(&a, &b), vec![(0, 0, 1), (1, 2, 1)]);
    }
}
