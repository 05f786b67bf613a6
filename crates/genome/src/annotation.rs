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
/// One `u32` an ancestral base: the descendant position at which base `i`
/// survives (possibly substituted), or `DELETED` (`u32::MAX`). Positions are strictly
/// increasing over the surviving entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinateMap {
    map: Vec<u32>,
    descendant_len: usize,
}

/// The entry of an ancestral base that was deleted. No position: a
/// descendant is shorter than `u32::MAX` bases.
pub(crate) const DELETED: u32 = u32::MAX;

impl CoordinateMap {
    /// The longest descendant a map addresses: positions below `u32::MAX`.
    pub const MAX_DESCENDANT_LEN: usize = DELETED as usize - 1;

    /// Builds a map from one entry an ancestral base, [`DELETED`] for a
    /// deleted one.
    ///
    /// # Panics
    ///
    /// Panics if surviving positions are not strictly increasing or exceed
    /// `descendant_len`, or if `descendant_len` does not fit below the
    /// `u32` sentinel.
    pub(crate) fn from_positions(map: Vec<u32>, descendant_len: usize) -> CoordinateMap {
        assert!(
            descendant_len <= Self::MAX_DESCENDANT_LEN,
            "{descendant_len} bases exceed the {} a coordinate map can address",
            Self::MAX_DESCENDANT_LEN
        );
        // Survivors in order, each above the one before: checked without
        // a branch an entry, as one flag over the map. `last` is one past
        // the latest survivor.
        let (mut last, mut increasing) = (0u64, true);
        for &entry in &map {
            let survives = entry != DELETED;
            increasing &= !survives || u64::from(entry) >= last;
            last = if survives { u64::from(entry) + 1 } else { last };
        }
        assert!(increasing, "coordinate map not increasing");
        // Increasing, so the last survivor is the largest.
        assert!(
            last as usize <= descendant_len,
            "coordinate {} out of bounds",
            last - 1
        );
        CoordinateMap {
            map,
            descendant_len,
        }
    }

    /// Length of the ancestral sequence.
    pub fn ancestor_len(&self) -> usize {
        self.map.len()
    }

    /// Length of the descendant sequence.
    pub fn descendant_len(&self) -> usize {
        self.descendant_len
    }

    /// Descendant position of ancestral base `pos`, if it survives.
    pub fn lookup(&self, pos: usize) -> Option<usize> {
        self.map
            .get(pos)
            .filter(|&&p| p != DELETED)
            .map(|&p| p as usize)
    }

    /// Projects an ancestral interval to the descendant: the smallest
    /// interval containing all surviving bases, or `None` if every base was
    /// deleted.
    pub fn project(&self, interval: &Interval) -> Option<Interval> {
        let mut lo: Option<usize> = None;
        let mut hi: Option<usize> = None;
        for pos in interval.range() {
            if let Some(d) = self.lookup(pos) {
                if lo.is_none() {
                    lo = Some(d);
                }
                hi = Some(d);
            }
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) => Some(Interval::new(lo, hi + 1, interval.label.clone())),
            _ => None,
        }
    }
}

/// Ground-truth orthologous base pairs between two descendants of a common
/// ancestor: ancestral bases surviving in *both* lineages.
///
/// Returns `(pos_in_a, pos_in_b)` pairs in increasing order.
pub fn orthologous_pairs(a: &CoordinateMap, b: &CoordinateMap) -> Vec<(usize, usize)> {
    assert_eq!(
        a.ancestor_len(),
        b.ancestor_len(),
        "maps have different ancestors"
    );
    let mut pairs = Vec::new();
    for pos in 0..a.ancestor_len() {
        if let (Some(pa), Some(pb)) = (a.lookup(pos), b.lookup(pos)) {
            pairs.push((pa, pb));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn coordinate_map_lookup_and_project() {
        // ancestor len 6; base 2 deleted; insertion shifted tail.
        let map = CoordinateMap::from_positions(vec![0, 1, DELETED, 4, 5, 6], 7);
        assert_eq!(map.ancestor_len(), 6);
        assert_eq!(map.descendant_len(), 7);
        assert_eq!(map.lookup(0), Some(0));
        assert_eq!(map.lookup(2), None);
        assert_eq!(map.lookup(3), Some(4));

        let projected = map.project(&Interval::new(1, 5, "e")).unwrap();
        assert_eq!((projected.start, projected.end), (1, 6));

        // Fully deleted interval projects to None.
        assert_eq!(map.project(&Interval::new(2, 3, "gone")), None);
    }

    #[test]
    #[should_panic(expected = "not increasing")]
    fn coordinate_map_rejects_decreasing() {
        CoordinateMap::from_positions(vec![3, 2], 5);
    }

    #[test]
    #[should_panic(expected = "exceed the 4294967294 a coordinate map can address")]
    fn coordinate_map_rejects_a_descendant_its_sentinel_would_alias() {
        CoordinateMap::from_positions(Vec::new(), u32::MAX as usize);
    }

    #[test]
    fn orthologous_pairs_intersect_survivors() {
        let a = CoordinateMap::from_positions(vec![0, DELETED, 1, 2], 3);
        let b = CoordinateMap::from_positions(vec![0, 1, 2, DELETED], 3);
        assert_eq!(orthologous_pairs(&a, &b), vec![(0, 0), (1, 2)]);
    }
}
