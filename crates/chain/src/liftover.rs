//! Coordinate liftover across alignments.
//!
//! The intro's first use-case for WGA is the "identification and
//! prediction of functional elements" — annotate a region in one species,
//! lift it through the alignment, and study it in the other. This module
//! implements liftover over a set of alignments (typically a chain's
//! members): map a target position or interval to query coordinates.

use align::{AlignOp, Alignment};

/// A liftover index over alignments, keyed by target position.
#[derive(Debug, Clone)]
pub struct Liftover<'a> {
    /// Alignments sorted by target start.
    alignments: Vec<&'a Alignment>,
}

/// A lifted interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftedInterval {
    /// Query start (inclusive).
    pub query_start: usize,
    /// Query end (exclusive).
    pub query_end: usize,
    /// Target bases of the input interval that were actually lifted
    /// (aligned columns only).
    pub lifted_bases: usize,
}

impl<'a> Liftover<'a> {
    /// Builds an index over `alignments`.
    pub fn new<I: IntoIterator<Item = &'a Alignment>>(alignments: I) -> Liftover<'a> {
        let mut alignments: Vec<&Alignment> = alignments.into_iter().collect();
        alignments.sort_by_key(|a| a.target_start);
        Liftover { alignments }
    }

    /// Lifts a single target position to its query position, if aligned.
    ///
    /// # Examples
    ///
    /// ```
    /// use align::{AlignOp, Alignment, Cigar};
    /// use chain::liftover::Liftover;
    ///
    /// let mut c = Cigar::new();
    /// c.push(AlignOp::Match, 5);
    /// c.push(AlignOp::Delete, 2); // target 5..7 unaligned
    /// c.push(AlignOp::Match, 5);
    /// let a = Alignment::new(100, 200, c, 0);
    /// let lift = Liftover::new([&a]);
    /// assert_eq!(lift.lift_position(102), Some(202));
    /// assert_eq!(lift.lift_position(105), None);     // inside the deletion
    /// assert_eq!(lift.lift_position(108), Some(206)); // past the deletion
    /// ```
    pub fn lift_position(&self, target_pos: usize) -> Option<usize> {
        let candidate = self
            .alignments
            .partition_point(|a| a.target_start <= target_pos);
        for a in self.alignments[..candidate].iter().rev() {
            if a.target_end <= target_pos {
                // Overlapping alignments may interleave; keep scanning
                // earlier starts (they can still span `target_pos`).
                continue;
            }
            if let Some(q) = lift_within(a, target_pos) {
                return Some(q);
            }
        }
        None
    }

    /// Lifts an interval: the smallest query interval containing every
    /// lifted position, or `None` when nothing lifts.
    pub fn lift_interval(&self, start: usize, end: usize) -> Option<LiftedInterval> {
        let mut lo: Option<usize> = None;
        let mut hi: Option<usize> = None;
        let mut lifted = 0usize;
        for pos in start..end {
            if let Some(q) = self.lift_position(pos) {
                lifted += 1;
                lo = Some(lo.map_or(q, |v: usize| v.min(q)));
                hi = Some(hi.map_or(q, |v: usize| v.max(q)));
            }
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) => Some(LiftedInterval {
                query_start: lo,
                query_end: hi + 1,
                lifted_bases: lifted,
            }),
            _ => None,
        }
    }
}

/// Query position of `target_pos` within one alignment, if it falls on an
/// aligned column.
fn lift_within(a: &Alignment, target_pos: usize) -> Option<usize> {
    if !(a.target_start..a.target_end).contains(&target_pos) {
        return None;
    }
    let (mut t, mut q) = (a.target_start, a.query_start);
    for &(op, count) in a.cigar.runs() {
        match op {
            AlignOp::Match | AlignOp::Subst => {
                if target_pos < t + count as usize {
                    return Some(q + (target_pos - t));
                }
                t += count as usize;
                q += count as usize;
            }
            AlignOp::Delete => {
                if target_pos < t + count as usize {
                    return None; // target-only bases have no query image
                }
                t += count as usize;
            }
            AlignOp::Insert => q += count as usize,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::Cigar;

    fn gapped() -> Alignment {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 10);
        c.push(AlignOp::Insert, 5);
        c.push(AlignOp::Match, 10);
        c.push(AlignOp::Delete, 4);
        c.push(AlignOp::Match, 10);
        Alignment::new(1000, 2000, c, 0)
    }

    #[test]
    fn positions_map_through_gaps() {
        let a = gapped();
        let lift = Liftover::new([&a]);
        assert_eq!(lift.lift_position(1000), Some(2000));
        assert_eq!(lift.lift_position(1009), Some(2009));
        // After the 5-base insertion, query is ahead by 5.
        assert_eq!(lift.lift_position(1010), Some(2015));
        assert_eq!(lift.lift_position(1019), Some(2024));
        // Inside the deletion: no image.
        assert_eq!(lift.lift_position(1020), None);
        assert_eq!(lift.lift_position(1023), None);
        // After the deletion.
        assert_eq!(lift.lift_position(1024), Some(2025));
        // Outside entirely.
        assert_eq!(lift.lift_position(999), None);
        assert_eq!(lift.lift_position(1034), None);
    }

    #[test]
    fn interval_lifting_reports_partial_coverage() {
        let a = gapped();
        let lift = Liftover::new([&a]);
        // Spans the deletion: 6 of 10 bases lift.
        let li = lift.lift_interval(1018, 1028).unwrap();
        assert_eq!(li.lifted_bases, 6);
        assert_eq!(li.query_start, 2023);
        assert_eq!(li.query_end, 2029);
        // Entirely inside the deletion.
        assert_eq!(lift.lift_interval(1020, 1024), None);
    }

    #[test]
    fn multiple_alignments_are_searched() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 10);
        let a = Alignment::new(0, 500, c.clone(), 0);
        let b = Alignment::new(100, 900, c.clone(), 0);
        let lift = Liftover::new([&a, &b]);
        assert_eq!(lift.lift_position(5), Some(505));
        assert_eq!(lift.lift_position(105), Some(905));
        assert_eq!(lift.lift_position(50), None);
    }

    #[test]
    fn ground_truth_round_trip() {
        // Lift through a real pipeline alignment and verify against the
        // evolution model's coordinate map.
        use genome::evolve::{EvolutionParams, SyntheticPair};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pair = SyntheticPair::generate(2_000, &EvolutionParams::at_distance(0.1), &mut rng);
        let report = wga_core_free_pipeline(&pair);
        let alignments: Vec<&Alignment> = report.iter().collect();
        let lift = Liftover::new(alignments);
        let truth: std::collections::HashMap<usize, usize> =
            pair.orthologous_pairs().into_iter().collect();
        let (mut agree, mut total) = (0usize, 0usize);
        for (&t, &q) in truth.iter() {
            if let Some(lifted) = lift.lift_position(t) {
                total += 1;
                // Allow small gap-placement ambiguity around indels.
                if lifted.abs_diff(q) <= 3 {
                    agree += 1;
                }
            }
        }
        assert!(total > 1_200, "lifted {total}");
        let frac = agree as f64 / total as f64;
        assert!(frac > 0.97, "agreement {frac}");
    }

    /// Minimal local re-implementation of the pipeline for this test
    /// (chain cannot depend on wga-core without a cycle): exact SW over
    /// the whole pair is fine at this size.
    fn wga_core_free_pipeline(
        pair: &genome::evolve::SyntheticPair,
    ) -> Vec<Alignment> {
        let r = align::sw::smith_waterman(
            &pair.target.sequence.to_bases(),
            &pair.query.sequence.to_bases(),
            &genome::SubstitutionMatrix::darwin_wga(),
            &genome::GapPenalties::darwin_wga(),
        );
        r.alignment.into_iter().collect()
    }
}
