//! The BSW filter stage: one seed hit in, at most one anchor out (§III-A,
//! Fig. 4).
//!
//! The filtering stage dominates pipeline runtime (§III-A). A hit is
//! decided once, here, for every schedule: for the gapped filter a
//! `T_f`-sized tile is centred on the hit (Fig. 4b), its two windows are
//! unpacked from the pair's packed planes into the engine's own 2 × `T_f`
//! bytes ([`Sequence::window`]), and banded Smith-Waterman returns
//! `V_max` and its position `x_max`; for the ungapped filter the hit is
//! extended along its diagonal. Either way the anchor is the position of
//! the maximum score.
//!
//! The gapped DP runs on one of two kernels, chosen by
//! [`WgaParams::filter_engine`] / the CLI's `--filter-engine`:
//!
//! * `scalar` — the row-major reference kernel ([`align::banded`]),
//!   allocating DP rows per tile: simple, and the oracle everything else
//!   is measured against;
//! * `simd` (the default) — one [`BswBatch`] ([`align::bsw_fast`]): the
//!   scoring flattened **once** per strand into a shared
//!   [`FilterContext`], each worker reusing one [`BswScratch`] across its
//!   whole run of tiles — the software analogue of streaming tiles
//!   through the paper's systolic array. A tile whose scores fit 16 bits
//!   runs in explicit SSE2/AVX2 `i16` lanes on x86-64, any other in
//!   exact `i32` lanes; the batch alone decides.
//!
//! Both produce bit-identical [`FilterOutcome`]s (same scores, anchor
//! coordinates and cell counts); `tests/bsw_differential.rs` enforces
//! this over thousands of random and adversarial tiles.
//!
//! Usage shape (what every schedule does, around
//! `stages::filter_batch`): build one [`FilterContext`] per
//! chromosome pair and strand, share it read-only across workers, and
//! draw one [`FilterEngine`] with [`FilterContext::engine`] per worker
//! and strand — its scratch serves every batch of hits that worker
//! filters there.

use crate::config::{FilterEngineKind, FilterStage, WgaParams};
use align::banded::{banded_smith_waterman, tile_around};
use align::bsw_fast::{BswBatch, BswScratch};
use align::ungapped::ungapped_extend;
use genome::{Base, Sequence};
use seed::{Anchor, SeedHit};

/// Result of filtering one seed hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterOutcome {
    /// The anchor, when the hit passed the threshold.
    pub anchor: Option<Anchor>,
    /// DP cells (gapped) or diagonal cells (ungapped) evaluated.
    pub cells: u64,
}

/// Shared per-(pair, strand) filter state, built once and handed
/// read-only to every worker that filters it.
///
/// Holds the flattened scoring when the `simd` engine runs a gapped
/// filter stage (nothing otherwise — scalar and ungapped filtering need
/// no shared state), and no part of the pair: engines read each tile out
/// of the sequences [`FilterEngine::filter_hit`] is handed.
/// `FilterContext` is `Sync`, so it is built once outside any thread
/// scope and each worker calls [`FilterContext::engine`] to get its own
/// mutable engine.
#[derive(Debug, Default)]
pub struct FilterContext {
    batch: Option<BswBatch>,
}

impl FilterContext {
    /// Prepares shared filter state for one chromosome pair and strand.
    ///
    /// Constant work: the pair is not read, let alone copied (its two
    /// arguments stay because `bench/`, which no change to the program
    /// may edit, calls this signature).
    pub fn new(params: &WgaParams, _target: &Sequence, _query: &Sequence) -> FilterContext {
        let batch = match (params.filter_engine, params.filter) {
            (FilterEngineKind::Simd, FilterStage::Gapped(f)) => {
                Some(BswBatch::new(&params.scoring, &params.gaps, f.band))
            }
            _ => None,
        };
        FilterContext { batch }
    }

    /// A fresh engine, with its own scratch, for one worker's batches of
    /// hits.
    pub fn engine(&self) -> FilterEngine<'_> {
        FilterEngine {
            batch: self.batch.as_ref(),
            ..FilterEngine::default()
        }
    }
}

/// One worker's filter: the context's shared batch (none for the scalar
/// kernel) plus the worker's own DP scratch and tile windows, which is
/// why filtering takes `&mut self`.
#[derive(Debug, Default)]
pub struct FilterEngine<'c> {
    batch: Option<&'c BswBatch>,
    scratch: BswScratch,
    /// A filter tile's two windows, unpacked a byte a base: 2 × `T_f`
    /// bytes (640 at the default tile), reused so that no tile allocates
    /// them.
    windows: [Vec<Base>; 2],
}

impl FilterEngine<'_> {
    /// Filters one seed hit, returning the anchor (if the tile passed
    /// the threshold) and the DP cells evaluated.
    pub fn filter_hit(
        &mut self,
        params: &WgaParams,
        target: &Sequence,
        query: &Sequence,
        hit: SeedHit,
    ) -> FilterOutcome {
        let (target_pos, query_pos) = (hit.target_pos as usize, hit.query_pos as usize);
        let (anchor, cells) = match params.filter {
            FilterStage::Gapped(f) => {
                let (t_range, q_range) = tile_around(
                    target_pos,
                    query_pos,
                    f.tile_size,
                    target.len(),
                    query.len(),
                );
                let (t0, q0) = (t_range.start, q_range.start);
                let [tw, qw] = &mut self.windows;
                let (t, q) = (
                    target.window(t_range, false, tw),
                    query.window(q_range, false, qw),
                );
                let out = match self.batch {
                    Some(batch) => {
                        batch.run_tile(Base::codes_of(t), Base::codes_of(q), &mut self.scratch)
                    }
                    None => banded_smith_waterman(t, q, &params.scoring, &params.gaps, f.band),
                };
                let anchor = (out.max_score >= f.threshold).then(|| Anchor {
                    target_pos: t0 + out.target_pos,
                    query_pos: q0 + out.query_pos,
                    filter_score: out.max_score,
                });
                (anchor, out.cells)
            }
            FilterStage::Ungapped(f) => {
                let seed_len = params
                    .seed_pattern
                    .span()
                    .min(target.len() - target_pos)
                    .min(query.len() - query_pos);
                let out = ungapped_extend(
                    target,
                    query,
                    target_pos,
                    query_pos,
                    seed_len,
                    &params.scoring,
                    f.xdrop,
                );
                let anchor = (out.score >= f.threshold).then_some(Anchor {
                    target_pos: out.anchor_target,
                    query_pos: out.anchor_query,
                    filter_score: out.score,
                });
                (anchor, out.cells)
            }
        };
        FilterOutcome { anchor, cells }
    }
}

/// Runs the configured filter on one seed hit with the scalar kernel —
/// the one-shot oracle every engine must equal.
pub fn run_filter(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    hit: SeedHit,
) -> FilterOutcome {
    FilterEngine::default().filter_hit(params, target, query, hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (Sequence, Sequence) {
        let mut rng = StdRng::seed_from_u64(42);
        let p = SyntheticPair::generate(6000, &EvolutionParams::at_distance(0.25), &mut rng);
        (p.target.sequence, p.query.sequence)
    }

    /// 128 bp shared core with long distinct flanks (longer than the
    /// 320-base filter tile, so a hit in the flank sees no homology).
    fn flanked() -> (Sequence, Sequence) {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(4);
        let t = format!("{}{}{}", "T".repeat(400), core, "T".repeat(400))
            .parse()
            .unwrap();
        let q = format!("{}{}{}", "G".repeat(400), core, "G".repeat(400))
            .parse()
            .unwrap();
        (t, q)
    }

    /// 400-base filter tiles: past the `i16` bound at Darwin's top score
    /// of 100, so every full tile runs the `i32` kernel.
    fn wide_tiles() -> WgaParams {
        let mut params = WgaParams::darwin_wga();
        if let FilterStage::Gapped(f) = &mut params.filter {
            f.tile_size = 400;
        }
        params
    }

    #[test]
    fn engines_agree_on_every_hit() {
        let (t, q) = pair();
        for params in [
            WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar),
            WgaParams::darwin_wga(),
            wide_tiles(),
        ] {
            let ctx = FilterContext::new(&params, &t, &q);
            let mut engine = ctx.engine();
            for pos in (0..5800).step_by(190) {
                let hit = SeedHit::new(pos, pos.saturating_sub(3));
                let via_engine = engine.filter_hit(&params, &t, &q, hit);
                let via_scalar = run_filter(&params, &t, &q, hit);
                assert_eq!(via_engine, via_scalar, "hit at {pos}");
            }
        }
    }

    #[test]
    fn the_batch_picks_its_lanes_from_the_tile() {
        let (t, q) = pair();
        let batch_of = |params: WgaParams| FilterContext::new(&params, &t, &q).batch;
        let darwin = WgaParams::darwin_wga;
        assert!(batch_of(darwin().with_filter_engine(FilterEngineKind::Scalar)).is_none());
        assert!(
            batch_of(WgaParams::lastz_baseline()).is_none(),
            "ungapped stage never builds a batch"
        );
        let simd = batch_of(darwin()).expect("a batch");
        assert_eq!(simd.tile_uses_simd(320, 320), cfg!(target_arch = "x86_64"));
        let wide = batch_of(wide_tiles()).expect("a batch");
        assert!(!wide.tile_uses_simd(400, 400), "i32 lanes past 327 bases");
    }

    #[test]
    fn the_simd_engine_handles_an_ungapped_stage() {
        let (t, q) = pair();
        // An ungapped stage builds no batch; the reference path runs.
        let params = WgaParams::lastz_baseline().with_filter_engine(FilterEngineKind::Simd);
        let ctx = FilterContext::new(&params, &t, &q);
        let hit = SeedHit::new(500, 497);
        assert_eq!(
            ctx.engine().filter_hit(&params, &t, &q, hit),
            run_filter(&params, &t, &q, hit)
        );
    }

    #[test]
    fn gapped_filter_passes_true_hit() {
        let (t, q) = flanked();
        let out = run_filter(&WgaParams::darwin_wga(), &t, &q, SeedHit::new(420, 420));
        let anchor = out.anchor.expect("true hit should pass");
        assert!(anchor.filter_score >= 4000);
        assert!(out.cells > 0);
    }

    #[test]
    fn gapped_filter_rejects_noise() {
        let (t, q) = flanked();
        // A hit in the mismatching flank region.
        let out = run_filter(&WgaParams::darwin_wga(), &t, &q, SeedHit::new(10, 10));
        assert!(out.anchor.is_none());
    }

    #[test]
    fn ungapped_filter_passes_true_hit() {
        let (t, q) = flanked();
        let out = run_filter(&WgaParams::lastz_baseline(), &t, &q, SeedHit::new(420, 420));
        assert!(out.anchor.is_some());
    }

    #[test]
    fn filter_near_sequence_edges_does_not_panic() {
        let (t, q) = flanked();
        for params in [WgaParams::darwin_wga(), WgaParams::lastz_baseline()] {
            let _ = run_filter(&params, &t, &q, SeedHit::new(0, 0));
            let last = SeedHit::new(t.len() - 20, q.len() - 20);
            let _ = run_filter(&params, &t, &q, last);
        }
    }
}
