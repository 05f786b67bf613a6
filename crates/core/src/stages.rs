//! Stage implementations: filtering and extension dispatch.

use crate::absorb::{merge_into_kept, AbsorptionGrid};
use crate::budget::deadline_event;
use crate::config::{FilterStage, GappedFilterParams, WgaParams};
use crate::obs::{strand_code, Counter, Obs, SpanName};
use crate::report::{BudgetKind, RunEvent, StageKind, Strand, WgaAlignment, WgaReport};
use align::banded::{banded_smith_waterman, tile_around, BandedOutcome};
use align::gactx::{self, ExtendedAlignment};
use align::ungapped::ungapped_extend;
use genome::Sequence;
use seed::{Anchor, SeedHit, SeedTable};
use std::time::{Duration, Instant};

/// Builds the seed table for `target`, returning it with the wall-clock
/// the build took.
///
/// Every driver (serial, barrier-parallel, dataflow, assembly) times the
/// table build through this one helper and adds only the returned
/// duration to `timings.seeding` — measuring it around a larger span
/// (the old pattern) silently folded filtering and extension time into
/// the seeding figure.
pub(crate) fn timed_seed_table(params: &WgaParams, target: &Sequence) -> (SeedTable, Duration) {
    let start = Instant::now();
    let table = SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences);
    (table, start.elapsed())
}

/// Result of filtering one seed hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterOutcome {
    /// The anchor, when the hit passed the threshold.
    pub anchor: Option<Anchor>,
    /// DP cells (gapped) or diagonal cells (ungapped) evaluated.
    pub cells: u64,
}

/// Thresholds one gapped-filter tile result into a [`FilterOutcome`],
/// translating tile-local maximum coordinates back to chromosome space.
///
/// Shared by [`run_filter`] and the batched engine in
/// [`crate::filter_engine`], so both BSW implementations apply byte-for-
/// byte identical anchor construction.
pub(crate) fn gapped_outcome(
    f: &GappedFilterParams,
    t0: usize,
    q0: usize,
    out: BandedOutcome,
) -> FilterOutcome {
    let anchor = (out.max_score >= f.threshold).then(|| Anchor {
        target_pos: t0 + out.target_pos,
        query_pos: q0 + out.query_pos,
        filter_score: out.max_score,
    });
    FilterOutcome {
        anchor,
        cells: out.cells,
    }
}

/// Runs the configured filter on one seed hit.
///
/// For the gapped filter a `T_f`-sized tile is centred on the hit
/// (Fig. 4b) and banded Smith-Waterman returns `V_max` and its position
/// `x_max`; for the ungapped filter the hit is extended along its
/// diagonal. Either way the anchor is the position of the maximum score.
pub fn run_filter(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    hit: SeedHit,
) -> FilterOutcome {
    match params.filter {
        FilterStage::Gapped(f) => {
            let (t_range, q_range) = tile_around(
                hit.target_pos,
                hit.query_pos,
                f.tile_size,
                target.len(),
                query.len(),
            );
            let (t0, q0) = (t_range.start, q_range.start);
            let out = banded_smith_waterman(
                &target.as_slice()[t_range],
                &query.as_slice()[q_range],
                &params.scoring,
                &params.gaps,
                f.band,
            );
            gapped_outcome(&f, t0, q0, out)
        }
        FilterStage::Ungapped(f) => {
            let seed_len = params
                .seed_pattern
                .span()
                .min(target.len() - hit.target_pos)
                .min(query.len() - hit.query_pos);
            let out = ungapped_extend(
                target.as_slice(),
                query.as_slice(),
                hit.target_pos,
                hit.query_pos,
                seed_len,
                &params.scoring,
                f.xdrop,
            );
            let anchor = (out.score >= f.threshold).then_some(Anchor {
                target_pos: out.anchor_target,
                query_pos: out.anchor_query,
                filter_score: out.score,
            });
            FilterOutcome {
                anchor,
                cells: out.cells,
            }
        }
    }
}

/// Runs the configured extension from one anchor.
pub fn run_extension(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    anchor: Anchor,
) -> Option<ExtendedAlignment> {
    gactx::extend_alignment(
        target,
        query,
        anchor.target_pos.min(target.len()),
        anchor.query_pos.min(query.len()),
        &params.scoring,
        &params.gaps,
        &params.extension.tiling(),
    )
}

/// Extends `anchors` best-scoring-first with anchor absorption, budget
/// enforcement and deadline checks, appending results into `report`.
///
/// Shared by the serial ([`crate::pipeline::WgaPipeline`]) and parallel
/// ([`crate::parallel`]) drivers so budget semantics are identical: the
/// extension-cell budget and the pair deadline are checked before each
/// anchor; on a trip a [`RunEvent::BudgetExceeded`] is recorded and the
/// remaining (worse-scoring) anchors are skipped.
///
/// `pair_start` anchors the per-pair wall-clock deadline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_anchors(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    strand: Strand,
    anchors: Vec<Anchor>,
    pair_start: Instant,
    report: &mut WgaReport,
    obs: Obs<'_>,
) {
    extend_anchors_from(
        params,
        strand,
        anchors,
        pair_start,
        report,
        obs,
        &mut |_, anchor| run_extension(params, target, query, anchor),
    );
}

/// The commit loop behind [`extend_anchors`], with the per-anchor
/// extension supplied by `fetch(seq, anchor)` — `seq` is the anchor's
/// index in descending-filter-score order.
///
/// The serial driver passes a closure that calls [`run_extension`]
/// inline; [`crate::shard::extend_anchors_sharded`] passes one that
/// collects results speculatively computed by worker threads. Everything
/// observable — sort order, budget/deadline truncation, absorption,
/// fault-gate firing order, counters, report mutation — lives here and
/// runs on the calling thread, so both drivers are byte-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_anchors_from(
    params: &WgaParams,
    strand: Strand,
    mut anchors: Vec<Anchor>,
    pair_start: Instant,
    report: &mut WgaReport,
    obs: Obs<'_>,
    fetch: &mut dyn FnMut(usize, Anchor) -> Option<ExtendedAlignment>,
) {
    let ext_start = Instant::now();
    obs.add(Counter::AnchorsPassed, anchors.len() as u64);
    let anchors_in = anchors.len() as u64;
    let scode = strand_code(strand);
    let mut buf = obs.buffer();
    // Lane-level `extend` span enclosing the whole commit loop; its id
    // is allocated up front so each `extend.tile` child can carry it
    // as `parent` before the lane span itself finishes.
    let lane_timer = buf.start();
    let lane_id = buf.alloc_id();
    buf.set_parent(lane_id);
    let mut lane_cells = 0u64;
    // Extend best-scoring anchors first so absorption favours strong
    // alignments — and so budget truncation drops the weakest work.
    anchors.sort_by_key(|a| std::cmp::Reverse(a.filter_score));
    let mut grid = AbsorptionGrid::new();
    let mut kept: Vec<align::Alignment> = Vec::new();
    for (seq, anchor) in anchors.into_iter().enumerate() {
        if let Some(limit) = params.budget.max_extension_cells {
            if report.workload.extension_cells >= limit {
                report.events.push(RunEvent::BudgetExceeded {
                    budget: BudgetKind::ExtensionCells,
                    stage: StageKind::Extension,
                    limit,
                    observed: report.workload.extension_cells,
                });
                break;
            }
        }
        if params.budget.deadline_exceeded(pair_start) {
            report
                .events
                .push(deadline_event(&params.budget, StageKind::Extension, pair_start));
            break;
        }
        if grid.covers(anchor.target_pos, anchor.query_pos) {
            report.counters.anchors_absorbed += 1;
            continue;
        }
        // Chaos hook: per-pair extension is serial on every executor,
        // so `extend.tile` occurrence indices line up across them.
        obs.fault_gate(crate::faultsim::Hook::ExtendTile);
        let anchor_timer = buf.start();
        let Some(ext) = fetch(seq, anchor) else {
            continue;
        };
        obs.extension_anchor(ext.stats.tiles, ext.stats.cells, ext.stats.rows);
        lane_cells += ext.stats.cells;
        buf.finish(
            anchor_timer,
            SpanName::ExtendTile,
            scode,
            seq as u64,
            ext.stats.tiles,
            ext.stats.cells,
        );
        report.workload.extension_tiles += ext.stats.tiles;
        report.workload.extension_cells += ext.stats.cells;
        report.workload.extension_rows += ext.stats.rows;
        if ext.alignment.score >= params.extension_threshold {
            grid.insert_alignment(&ext.alignment);
            // Resolve staggered re-extensions (an anchor just past an
            // X-drop stopping point re-aligns the same region).
            if !merge_into_kept(&mut kept, ext.alignment) {
                report.counters.anchors_absorbed += 1;
            }
        }
    }
    buf.set_parent(crate::obs::NO_SPAN);
    buf.finish_with_id(lane_timer, lane_id, SpanName::Extend, scode, 0, anchors_in, lane_cells);
    obs.add(Counter::AlignmentsKept, kept.len() as u64);
    report.counters.alignments_kept += kept.len() as u64;
    report
        .alignments
        .extend(kept.into_iter().map(|alignment| WgaAlignment { alignment, strand }));
    report.timings.extension += ext_start.elapsed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WgaParams;

    fn sequences() -> (Sequence, Sequence) {
        // 128 bp shared core with long distinct flanks (longer than the
        // 320-base filter tile, so a hit in the flank sees no homology).
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(4);
        let t: Sequence = format!("{}{}{}", "T".repeat(400), core, "T".repeat(400))
            .parse()
            .unwrap();
        let q: Sequence = format!("{}{}{}", "G".repeat(400), core, "G".repeat(400))
            .parse()
            .unwrap();
        (t, q)
    }

    #[test]
    fn gapped_filter_passes_true_hit() {
        let (t, q) = sequences();
        let params = WgaParams::darwin_wga();
        let out = run_filter(&params, &t, &q, SeedHit::new(420, 420));
        let anchor = out.anchor.expect("true hit should pass");
        assert!(anchor.filter_score >= 4000);
        assert!(out.cells > 0);
    }

    #[test]
    fn gapped_filter_rejects_noise() {
        let (t, q) = sequences();
        let params = WgaParams::darwin_wga();
        // A hit in the mismatching flank region.
        let out = run_filter(&params, &t, &q, SeedHit::new(10, 10));
        assert!(out.anchor.is_none());
    }

    #[test]
    fn ungapped_filter_passes_true_hit() {
        let (t, q) = sequences();
        let params = WgaParams::lastz_baseline();
        let out = run_filter(&params, &t, &q, SeedHit::new(420, 420));
        assert!(out.anchor.is_some());
    }

    #[test]
    fn extension_produces_full_alignment() {
        let (t, q) = sequences();
        let params = WgaParams::darwin_wga();
        let anchor = Anchor {
            target_pos: 460,
            query_pos: 460,
            filter_score: 5000,
        };
        let ext = run_extension(&params, &t, &q, anchor).expect("alignment");
        assert!(ext.alignment.matches() >= 120);
    }

    #[test]
    fn filter_near_sequence_edges_does_not_panic() {
        let (t, q) = sequences();
        for params in [WgaParams::darwin_wga(), WgaParams::lastz_baseline()] {
            let _ = run_filter(&params, &t, &q, SeedHit::new(0, 0));
            let last = SeedHit::new(t.len() - 20, q.len() - 20);
            let _ = run_filter(&params, &t, &q, last);
        }
    }
}
