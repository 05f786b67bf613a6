//! Pluggable BSW filter engines: scalar reference, batched wavefront,
//! and explicit SIMD.
//!
//! The filtering stage dominates pipeline runtime (§III-A), so it gets
//! three interchangeable implementations behind the [`FilterEngine`]
//! trait:
//!
//! * [`ScalarFilterEngine`] calls the row-major reference kernel
//!   ([`align::banded`]) per hit, allocating DP rows per tile — simple,
//!   and the oracle everything else is measured against;
//! * [`BatchedFilterEngine`] drives [`align::bsw_fast`]: the scoring is
//!   flattened **once** into a shared [`BswBatch`] ([`FilterContext`]),
//!   a tile's two windows are unpacked from the pair's packed planes
//!   into the engine's own 2 × `T_f` bytes ([`Sequence::window`]), and
//!   each worker reuses one [`WavefrontScratch`] across its whole batch
//!   of tiles — the software analogue of streaming tiles through the
//!   paper's systolic array;
//! * [`SimdFilterEngine`] drives [`align::bsw_simd`]: the same wavefront
//!   with the inner loop as explicit saturating `i16` vector lanes
//!   (8 per SSE2 vector, 16 per AVX2 vector), falling back per tile to
//!   the exact `i32` kernel when a tile could overflow 16 bits, and
//!   falling back entirely to the batched engine on hosts without
//!   x86-64 SIMD.
//!
//! All produce bit-identical [`FilterOutcome`]s (same scores, anchor
//! coordinates and cell counts); `tests/bsw_differential.rs` enforces
//! this over thousands of random and adversarial tiles. Selection is via
//! [`WgaParams::filter_engine`] / the CLI's `--filter-engine` flag.
//!
//! Usage shape (what every schedule does, around
//! `stages::filter_batch`): build one [`FilterContext`] per
//! chromosome pair and strand, share it read-only across workers, and
//! materialise one engine with [`FilterContext::engine`] per worker
//! and strand — its scratch serves every batch of hits that worker
//! filters there.

use crate::config::{FilterEngineKind, FilterStage, WgaParams};
use crate::stages::{gapped_outcome, run_filter_in, FilterOutcome, TileWindows};
use align::bsw_fast::{BswBatch, WavefrontScratch};
use align::bsw_simd::{BswSimdBatch, SimdScratch};
use genome::{Base, Sequence};
use seed::SeedHit;

/// One BSW filter implementation, stateful per worker.
///
/// Implementations may keep mutable scratch (the batched engine's
/// wavefront buffers), which is why filtering takes `&mut self`; create
/// one engine per worker and strand via [`FilterContext::engine`].
pub trait FilterEngine {
    /// Filters one seed hit, returning the anchor (if the tile passed
    /// the threshold) and the DP cells evaluated.
    fn filter_hit(
        &mut self,
        params: &WgaParams,
        target: &Sequence,
        query: &Sequence,
        hit: SeedHit,
    ) -> FilterOutcome;
}

/// Reference engine: per-hit scalar BSW (or ungapped extension),
/// delegating to [`crate::stages::run_filter`].
#[derive(Debug, Default)]
pub struct ScalarFilterEngine {
    windows: TileWindows,
}

impl FilterEngine for ScalarFilterEngine {
    fn filter_hit(
        &mut self,
        params: &WgaParams,
        target: &Sequence,
        query: &Sequence,
        hit: SeedHit,
    ) -> FilterOutcome {
        run_filter_in(params, target, query, hit, &mut self.windows)
    }
}

/// Batched wavefront engine: tiles run against a shared [`BswBatch`]
/// with this engine's private reusable scratch.
#[derive(Debug)]
pub struct BatchedFilterEngine<'c> {
    batch: &'c BswBatch,
    scratch: WavefrontScratch,
    windows: TileWindows,
}

impl FilterEngine for BatchedFilterEngine<'_> {
    fn filter_hit(
        &mut self,
        params: &WgaParams,
        target: &Sequence,
        query: &Sequence,
        hit: SeedHit,
    ) -> FilterOutcome {
        match params.filter {
            FilterStage::Gapped(f) => {
                let (t0, q0, t, q) = self.windows.around(f.tile_size, target, query, hit);
                let out = self.batch.run_tile(Base::codes_of(t), Base::codes_of(q), &mut self.scratch);
                gapped_outcome(&f, t0, q0, out)
            }
            // The batched kernel only accelerates the gapped DP; an
            // ungapped filter stage falls back to the reference path.
            FilterStage::Ungapped(_) => run_filter_in(params, target, query, hit, &mut self.windows),
        }
    }
}

/// Explicit-SIMD wavefront engine: tiles run against a shared
/// [`BswSimdBatch`] with this engine's private reusable scratch;
/// oversized tiles route to the exact `i32` kernel inside the batch.
#[derive(Debug)]
pub struct SimdFilterEngine<'c> {
    batch: &'c BswSimdBatch,
    scratch: SimdScratch,
    windows: TileWindows,
}

impl FilterEngine for SimdFilterEngine<'_> {
    fn filter_hit(
        &mut self,
        params: &WgaParams,
        target: &Sequence,
        query: &Sequence,
        hit: SeedHit,
    ) -> FilterOutcome {
        match params.filter {
            FilterStage::Gapped(f) => {
                let (t0, q0, t, q) = self.windows.around(f.tile_size, target, query, hit);
                let out = self.batch.run_tile(Base::codes_of(t), Base::codes_of(q), &mut self.scratch);
                gapped_outcome(&f, t0, q0, out)
            }
            // The SIMD kernel only accelerates the gapped DP; an
            // ungapped filter stage falls back to the reference path.
            FilterStage::Ungapped(_) => run_filter_in(params, target, query, hit, &mut self.windows),
        }
    }
}

/// The shared state behind a [`FilterContext`]: which engine family the
/// run selected, with its prepared scoring where one exists.
#[derive(Debug, Default)]
enum ContextState {
    /// Scalar engine (or an ungapped stage): no shared state needed.
    #[default]
    Scalar,
    Batched(BswBatch),
    Simd(BswSimdBatch),
}

/// Shared per-(pair, strand) filter state, built once and handed
/// read-only to every filter worker.
///
/// Holds the flattened scoring when the batched or SIMD engine is
/// selected for a gapped filter stage (nothing otherwise — scalar
/// filtering needs no shared state), and no part of the pair: engines
/// read each tile out of the sequences [`FilterEngine::filter_hit`] is
/// handed. `FilterContext` is `Sync`, so it is built once outside any
/// thread scope and each worker calls [`FilterContext::engine`] to get
/// its own mutable engine.
#[derive(Debug, Default)]
pub struct FilterContext {
    state: ContextState,
}

impl FilterContext {
    /// Prepares shared filter state for one chromosome pair and strand.
    ///
    /// Constant work: the pair is not read, let alone copied (its two
    /// arguments stay because `bench/`, which no change to the program
    /// may edit, calls this signature). A SIMD request on
    /// a host without x86-64 SIMD builds the batched context instead (the
    /// documented runtime fallback — the engines are bit-identical, so
    /// only throughput changes).
    pub fn new(params: &WgaParams, _target: &Sequence, _query: &Sequence) -> FilterContext {
        let state = match (params.filter_engine, params.filter) {
            (FilterEngineKind::Batched, FilterStage::Gapped(f)) => {
                ContextState::Batched(BswBatch::new(&params.scoring, &params.gaps, f.band))
            }
            (FilterEngineKind::Simd, FilterStage::Gapped(f)) => {
                let batch = BswSimdBatch::new(&params.scoring, &params.gaps, f.band);
                if batch.lanes() > 0 {
                    ContextState::Simd(batch)
                } else {
                    ContextState::Batched(BswBatch::new(&params.scoring, &params.gaps, f.band))
                }
            }
            _ => ContextState::Scalar,
        };
        FilterContext { state }
    }

    /// Materialises a fresh engine for one worker's batches of hits.
    ///
    /// Batched and SIMD contexts yield their engine with its own
    /// scratch; scalar contexts yield the stateless
    /// [`ScalarFilterEngine`].
    pub fn engine(&self) -> Box<dyn FilterEngine + Send + '_> {
        match &self.state {
            ContextState::Batched(batch) => Box::new(BatchedFilterEngine {
                batch,
                scratch: WavefrontScratch::new(),
                windows: TileWindows::default(),
            }),
            ContextState::Simd(batch) => Box::new(SimdFilterEngine {
                batch,
                scratch: SimdScratch::new(),
                windows: TileWindows::default(),
            }),
            ContextState::Scalar => Box::new(ScalarFilterEngine::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::run_filter;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (Sequence, Sequence) {
        let mut rng = StdRng::seed_from_u64(42);
        let p = SyntheticPair::generate(6000, &EvolutionParams::at_distance(0.25), &mut rng);
        (p.target.sequence, p.query.sequence)
    }

    #[test]
    fn engines_agree_on_every_hit() {
        let (t, q) = pair();
        for params in [
            WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar),
            WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Batched),
            WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Simd),
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
    fn scalar_params_build_no_batch_context() {
        let (t, q) = pair();
        let params = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
        let ctx = FilterContext::new(&params, &t, &q);
        assert!(matches!(ctx.state, ContextState::Scalar));
        let params = WgaParams::lastz_baseline();
        let ctx = FilterContext::new(&params, &t, &q);
        assert!(
            matches!(ctx.state, ContextState::Scalar),
            "ungapped stage never builds a batch"
        );
    }

    #[test]
    fn simd_params_build_simd_or_batched_context() {
        let (t, q) = pair();
        let params = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Simd);
        let ctx = FilterContext::new(&params, &t, &q);
        // On x86-64 the SIMD batch must materialise; elsewhere the
        // documented fallback is the batched engine.
        if cfg!(target_arch = "x86_64") {
            assert!(matches!(ctx.state, ContextState::Simd(_)));
        } else {
            assert!(matches!(ctx.state, ContextState::Batched(_)));
        }
    }

    #[test]
    fn batched_engine_handles_ungapped_fallback() {
        let (t, q) = pair();
        // Batched/SIMD engine requested but the stage is ungapped:
        // behaviour must match the reference path exactly.
        for kind in [FilterEngineKind::Batched, FilterEngineKind::Simd] {
            let params = WgaParams::lastz_baseline().with_filter_engine(kind);
            let ctx = FilterContext::new(&params, &t, &q);
            let mut engine = ctx.engine();
            let hit = SeedHit::new(500, 497);
            assert_eq!(
                engine.filter_hit(&params, &t, &q, hit),
                run_filter(&params, &t, &q, hit)
            );
        }
    }
}
