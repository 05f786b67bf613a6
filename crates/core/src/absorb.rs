//! Anchor absorption (§III-D).
//!
//! During extension, Darwin-WGA "implements a hash strategy to remove
//! anchors that would result in duplicate alignments, similar to the
//! anchor absorption strategy in LASTZ. If an unextended anchor is a part
//! of a previous alignment, it is not extended."
//!
//! We hash coarse grid cells along each produced alignment path keyed by
//! (diagonal bucket, target bucket); an anchor whose own cell (or a
//! neighbouring cell) is occupied is absorbed.

use align::{AlignOp, Alignment};
use std::collections::HashSet;

/// Grid quantisation along the diagonal axis.
const DIAG_SHIFT: u32 = 5; // 32-base diagonal buckets
/// Grid quantisation along the target axis.
const T_SHIFT: u32 = 6; // 64-base target buckets

/// Tracks which (diagonal, target) grid cells are already covered.
#[derive(Debug, Clone, Default)]
pub struct AbsorptionGrid {
    cells: HashSet<(i64, i64)>,
}

impl AbsorptionGrid {
    /// An empty grid.
    pub fn new() -> AbsorptionGrid {
        AbsorptionGrid::default()
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are occupied.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn key(t: usize, q: usize) -> (i64, i64) {
        let diag = t as i64 - q as i64;
        (diag >> DIAG_SHIFT, (t as i64) >> T_SHIFT)
    }

    /// Whether the point `(t, q)` falls in (or next to) a covered cell.
    pub fn covers(&self, t: usize, q: usize) -> bool {
        let (d, tb) = Self::key(t, q);
        for dd in -1..=1 {
            for dt in -1..=1 {
                if self.cells.contains(&(d + dd, tb + dt)) {
                    return true;
                }
            }
        }
        false
    }

    /// Marks every grid cell along an alignment's path as covered.
    pub fn insert_alignment(&mut self, alignment: &Alignment) {
        let (mut t, mut q) = (alignment.target_start, alignment.query_start);
        self.cells.insert(Self::key(t, q));
        for (op, count) in alignment.cigar.runs() {
            let (dt, dq) = match op {
                AlignOp::Match | AlignOp::Subst => (1usize, 1usize),
                AlignOp::Insert => (0, 1),
                AlignOp::Delete => (1, 0),
            };
            for _ in 0..count {
                t += dt;
                q += dq;
                self.cells.insert(Self::key(t, q));
            }
        }
    }
}

/// Fraction of `inner`'s span covered by `outer`, taken as the minimum
/// over the target and query axes (1.0 = fully contained on both).
///
/// Used to resolve staggered re-extensions: an anchor just past an
/// alignment's X-drop stopping point re-extends across the same region,
/// producing a near-duplicate that absorption's point test cannot catch.
pub fn containment_fraction(inner: &Alignment, outer: &Alignment) -> f64 {
    let t_ov = span_overlap(
        inner.target_start,
        inner.target_end,
        outer.target_start,
        outer.target_end,
    );
    let q_ov = span_overlap(
        inner.query_start,
        inner.query_end,
        outer.query_start,
        outer.query_end,
    );
    let t_frac = t_ov as f64 / inner.target_span().max(1) as f64;
    let q_frac = q_ov as f64 / inner.query_span().max(1) as f64;
    t_frac.min(q_frac)
}

/// Merges a freshly extended alignment into the kept set:
///
/// * if the candidate is mostly contained (>70% both axes) in a kept
///   alignment, it is a duplicate → dropped (returns `false`);
/// * any kept alignments mostly contained in the candidate with lower
///   scores are replaced by it;
/// * otherwise the candidate is simply added.
///
/// A kept candidate's CIGAR is shrunk to exactly its runs: what the run
/// holds until its report is written is 4 bytes a run, not the growth
/// slack the extension left.
pub fn merge_into_kept(kept: &mut Vec<Alignment>, mut candidate: Alignment) -> bool {
    const CONTAINED: f64 = 0.7;
    for existing in kept.iter() {
        if containment_fraction(&candidate, existing) > CONTAINED
            && existing.score >= candidate.score
        {
            return false;
        }
    }
    kept.retain(|existing| {
        !(containment_fraction(existing, &candidate) > CONTAINED
            && existing.score <= candidate.score)
    });
    candidate.cigar.shrink_to_fit();
    kept.push(candidate);
    true
}

fn span_overlap(a0: usize, a1: usize, b0: usize, b1: usize) -> usize {
    a1.min(b1).saturating_sub(a0.max(b0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::Cigar;

    fn alignment(t: usize, q: usize, len: u32) -> Alignment {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, len);
        Alignment::new(t, q, c, 0)
    }

    #[test]
    fn anchor_on_path_is_absorbed() {
        let mut grid = AbsorptionGrid::new();
        grid.insert_alignment(&alignment(1000, 2000, 500));
        assert!(grid.covers(1250, 2250)); // on the path
        assert!(grid.covers(1240, 2245)); // near the path
        assert!(!grid.covers(1250, 3500)); // far-off diagonal
        assert!(!grid.covers(90_000, 91_000)); // far away entirely
    }

    #[test]
    fn gapped_path_is_tracked() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 100);
        c.push(AlignOp::Delete, 200); // diagonal shifts by 200
        c.push(AlignOp::Match, 100);
        let a = Alignment::new(0, 0, c, 0);
        let mut grid = AbsorptionGrid::new();
        grid.insert_alignment(&a);
        assert!(grid.covers(50, 50)); // before the gap
        assert!(grid.covers(350, 150)); // after the gap (diag +200)
        assert!(!grid.covers(350, 350)); // the old diagonal past the gap
    }

    #[test]
    fn containment_fraction_basics() {
        let big = alignment(0, 0, 1000);
        let inside = alignment(100, 100, 300);
        assert_eq!(containment_fraction(&inside, &big), 1.0);
        assert!(containment_fraction(&big, &inside) < 0.5);
        // Paralog: same target region, distant query region — 0 on the
        // query axis.
        let p = alignment(0, 5000, 1000);
        assert_eq!(containment_fraction(&p, &big), 0.0);
    }

    #[test]
    fn merge_drops_contained_duplicates() {
        let mut kept = Vec::new();
        let mut a = alignment(0, 0, 1000);
        a.score = 10_000;
        assert!(merge_into_kept(&mut kept, a));
        let mut dup = alignment(100, 100, 800);
        dup.score = 7_000;
        assert!(!merge_into_kept(&mut kept, dup));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn merge_replaces_shorter_kept_with_longer_candidate() {
        let mut kept = Vec::new();
        let mut short = alignment(100, 100, 800);
        short.score = 7_000;
        assert!(merge_into_kept(&mut kept, short));
        let mut long = alignment(0, 0, 5000);
        long.score = 40_000;
        assert!(merge_into_kept(&mut kept, long));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 40_000);
    }

    #[test]
    fn merge_keeps_distinct_and_paralogous_alignments() {
        let mut kept = Vec::new();
        let mut a = alignment(0, 0, 1000);
        a.score = 10_000;
        let mut b = alignment(5000, 5000, 1000);
        b.score = 9_000;
        let mut paralog = alignment(0, 9000, 1000);
        paralog.score = 8_000;
        assert!(merge_into_kept(&mut kept, a));
        assert!(merge_into_kept(&mut kept, b));
        assert!(merge_into_kept(&mut kept, paralog));
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn a_kept_cigar_holds_exactly_its_runs() {
        let mut c = Cigar::new();
        for i in 0..33u32 {
            c.push(
                [AlignOp::Match, AlignOp::Subst, AlignOp::Delete][i as usize % 3],
                2,
            );
        }
        assert!(c.heap_bytes() > 4 * c.runs().len());
        let mut kept = Vec::new();
        assert!(merge_into_kept(&mut kept, Alignment::new(0, 0, c, 1)));
        assert_eq!(kept[0].cigar.heap_bytes(), 4 * 33);
    }

    #[test]
    fn empty_grid_covers_nothing() {
        let grid = AbsorptionGrid::new();
        assert!(grid.is_empty());
        assert!(!grid.covers(0, 0));
        assert_eq!(grid.len(), 0);
    }
}
