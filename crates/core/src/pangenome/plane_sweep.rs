//! Plane-sweep deduplication of a many-genome run's alignments.
//!
//! All-vs-all matrices re-discover the same homology from several
//! directions: paralog pairs, both orientations of a repeat, near-tied
//! chains on adjacent diagonals. The post-filter sweeps one chromosome
//! pair's alignments a strand at a time along the target axis and drops
//! an alignment when a *better* one (higher score; ties broken by the
//! record's order, best score first) covers at least half of both its
//! target span and its query span. Only surviving alignments can
//! suppress others, and candidates are judged in a fixed order, so the
//! result is a pure function of the record — dedup semantics identical
//! on every executor and thread count by construction.

use crate::report::{Strand, WgaAlignment};

/// What the sweep did, for the `sweep` line of the canonical report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Alignments surviving the sweep.
    pub kept: u64,
    /// Alignments dropped as redundant overlaps.
    pub dropped: u64,
}

/// Half-open span helpers over the underlying alignment coordinates.
fn target_span(a: &WgaAlignment) -> (usize, usize) {
    (a.alignment.target_start, a.alignment.target_end)
}

fn query_span(a: &WgaAlignment) -> (usize, usize) {
    (a.alignment.query_start, a.alignment.query_end)
}

fn overlap(a: (usize, usize), b: (usize, usize)) -> usize {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// True when `better` covers at least half of `worse` on both axes.
fn shadows(better: &WgaAlignment, worse: &WgaAlignment) -> bool {
    let (wt, wq) = (target_span(worse), query_span(worse));
    let t_overlap = overlap(target_span(better), wt);
    let q_overlap = overlap(query_span(better), wq);
    2 * t_overlap >= wt.1 - wt.0 && 2 * q_overlap >= wq.1 - wq.0
}

/// Rank of an alignment inside its lane: higher score wins; the tie
/// falls back to the record's order (earlier wins), so equal-score
/// duplicates resolve identically everywhere.
fn beats(a: &WgaAlignment, a_idx: usize, b: &WgaAlignment, b_idx: usize) -> bool {
    let (sa, sb) = (a.alignment.score, b.alignment.score);
    sa > sb || (sa == sb && a_idx < b_idx)
}

/// Sweeps one chromosome pair's alignments, each strand a lane of its
/// own, and drops the shadowed ones in place: the survivors keep their
/// order, and `stats` counts both.
pub fn plane_sweep(alignments: &mut Vec<WgaAlignment>, stats: &mut SweepStats) {
    let mut dropped = vec![false; alignments.len()];
    for strand in [Strand::Forward, Strand::Reverse] {
        let lane: Vec<usize> = (0..alignments.len())
            .filter(|&i| alignments[i].strand == strand)
            .collect();
        sweep_lane(alignments, &lane, &mut dropped);
    }
    let before = alignments.len();
    // `retain` visits the alignments once each, in order.
    let mut verdicts = dropped.into_iter();
    alignments.retain(|_| !verdicts.next().unwrap_or(false));
    stats.kept += alignments.len() as u64;
    stats.dropped += (before - alignments.len()) as u64;
}

/// The sweep proper, over one lane. `members` holds record indices.
/// Events advance along the target axis; an active window carries every
/// alignment whose target interval is still open, so each candidate is
/// only compared against actual target-overlap, not the whole lane.
fn sweep_lane(alignments: &[WgaAlignment], members: &[usize], dropped: &mut [bool]) {
    // Sweep in ascending target_start (ties: record order), closing
    // expired intervals as the line advances.
    let mut by_start: Vec<usize> = members.to_vec();
    by_start.sort_by_key(|&i| (target_span(&alignments[i]).0, i));

    let mut active: Vec<usize> = Vec::new();
    for &i in &by_start {
        let (t_start, _) = target_span(&alignments[i]);
        active.retain(|&j| target_span(&alignments[j]).1 > t_start);
        for &j in &active {
            if dropped[j] || dropped[i] {
                continue;
            }
            if beats(&alignments[j], j, &alignments[i], i) {
                if shadows(&alignments[j], &alignments[i]) {
                    dropped[i] = true;
                }
            } else if shadows(&alignments[i], &alignments[j]) {
                dropped[j] = true;
            }
        }
        active.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::alignment::Alignment;
    use align::cigar::{AlignOp, Cigar};

    fn aln(t_start: usize, q_start: usize, len: usize, score: i64) -> WgaAlignment {
        let mut cigar = Cigar::new();
        cigar.push(AlignOp::Match, len as u32);
        WgaAlignment {
            alignment: Alignment::new(t_start, q_start, cigar, score),
            strand: Strand::Forward,
        }
    }

    fn sweep(mut alignments: Vec<WgaAlignment>) -> (Vec<WgaAlignment>, SweepStats) {
        let mut stats = SweepStats::default();
        plane_sweep(&mut alignments, &mut stats);
        (alignments, stats)
    }

    #[test]
    fn heavy_overlap_drops_the_weaker() {
        let (kept, stats) = sweep(vec![aln(0, 0, 100, 500), aln(10, 10, 100, 300)]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].alignment.score, 500);
        assert_eq!(
            stats,
            SweepStats {
                kept: 1,
                dropped: 1
            }
        );
    }

    #[test]
    fn disjoint_alignments_all_survive() {
        let (kept, stats) = sweep(vec![aln(0, 0, 50, 100), aln(200, 200, 50, 90)]);
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn same_target_different_query_survives() {
        // Two paralogous query copies mapping to one target region:
        // target overlaps fully, query spans are disjoint — keep both.
        let (kept, _) = sweep(vec![aln(0, 0, 100, 500), aln(0, 1_000, 100, 400)]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn the_two_strands_never_interact() {
        let mut other = aln(0, 0, 100, 1);
        other.strand = Strand::Reverse;
        let (kept, _) = sweep(vec![aln(0, 0, 100, 500), other]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn equal_scores_keep_the_record_first() {
        let (kept, _) = sweep(vec![aln(5, 5, 100, 400), aln(0, 0, 100, 400)]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].alignment.target_start, 5, "record order wins ties");
    }

    #[test]
    fn survivors_keep_the_record_order() {
        let input = vec![
            aln(300, 300, 50, 10),
            aln(0, 0, 50, 20),
            aln(150, 150, 50, 30),
        ];
        let (kept, _) = sweep(input.clone());
        assert_eq!(kept, input, "no overlap: order must be untouched");
    }
}
