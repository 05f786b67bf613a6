//! Pipeline configuration (Table II) and per-run resource budgets.

use crate::error::{WgaError, WgaResult};
use align::gactx::TilingParams;
use align::xdrop::scores_fit_i32;
use genome::{GapPenalties, SubstitutionMatrix};
use seed::{DsoftParams, SeedPattern};

/// Resource budgets for one chromosome-pair run.
///
/// The paper's workloads are 100–137 Mbp genome pairs where filtering
/// dominates runtime (§III-A); a single repeat-dense chromosome can blow
/// up seed hits, and with them filter tiles, by orders of magnitude.
/// Budgets bound the filter's and the extension's work: when a budget
/// trips, the stage truncates *deterministically* (work is processed
/// best-first where a score exists, in stable positional order
/// otherwise), a [`crate::report::RunEvent::BudgetExceeded`] event is
/// recorded, and the run continues instead of OOMing or hanging.
///
/// All limits default to `None` (unbounded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum filter tiles per chromosome-pair run (both strands). Each
    /// seed hit handed to the filter is one tile (§III-A), so this is
    /// also the cap on the pair's seed hits.
    pub max_filter_tiles: Option<u64>,
    /// Maximum extension DP cells per chromosome-pair run. Checked
    /// before each anchor extension, so the cap may be overshot by at
    /// most one extension's cells.
    pub max_extension_cells: Option<u64>,
}

/// Gapped (BSW) filter parameters — Darwin-WGA's filtering stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedFilterParams {
    /// Filter tile size `T_f`.
    pub tile_size: usize,
    /// Band half-width `B`.
    pub band: usize,
    /// Filter threshold `H_f`: anchors scoring below are discarded.
    pub threshold: i64,
}

impl Default for GappedFilterParams {
    /// Table IIb with the `H_f` correction of §VI-B: `T_f = 320`,
    /// `B = 32`, `H_f = 4000` (the paper's table prints 3000 but the text
    /// adopts 4000 after the false-positive analysis).
    fn default() -> Self {
        GappedFilterParams {
            tile_size: 320,
            band: 32,
            threshold: 4000,
        }
    }
}

/// Ungapped (LASTZ-style) filter parameters — the baseline's filtering
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedFilterParams {
    /// X-drop value for the diagonal extension.
    pub xdrop: i32,
    /// Filter threshold (LASTZ default 3000 — "equivalent of at least 30
    /// matches", the red line of Fig. 2).
    pub threshold: i64,
}

impl Default for UngappedFilterParams {
    fn default() -> Self {
        UngappedFilterParams {
            xdrop: 910, // ten match-scores, LASTZ's default magnitude
            threshold: 3000,
        }
    }
}

/// Which filtering algorithm the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStage {
    /// Banded Smith-Waterman gapped filtering (Darwin-WGA).
    Gapped(GappedFilterParams),
    /// X-drop ungapped filtering (LASTZ baseline).
    Ungapped(UngappedFilterParams),
}

impl FilterStage {
    /// The stage's pass threshold.
    pub fn threshold(&self) -> i64 {
        match self {
            FilterStage::Gapped(p) => p.threshold,
            FilterStage::Ungapped(p) => p.threshold,
        }
    }
}

/// Which kernel the one filter engine runs the gapped DP on.
///
/// Both kernels compute the identical banded DP — same scores, same
/// anchor coordinates, same cell counts (enforced by the
/// differential-oracle harness in `tests/bsw_differential.rs`) — so this
/// is purely a performance choice, and not part of a journal's parameter
/// fingerprint. See [`crate::filter_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterEngineKind {
    /// Row-major scalar reference kernel ([`align::banded`]), allocating
    /// per tile. Kept as the oracle and for differential testing.
    Scalar,
    /// The prepared wavefront batch ([`align::bsw_fast::BswBatch`]):
    /// anti-diagonal DP over reused flat buffers, no per-tile allocation.
    /// A tile whose scores fit 16 bits runs in saturating `i16` lanes
    /// (8 per SSE2 vector, 16 per AVX2 vector, [`align::bsw_simd`]), any
    /// other tile — every tile on a host that is not x86-64 — in exact
    /// `i32` lanes. The default.
    #[default]
    Simd,
}

impl FilterEngineKind {
    /// The retired `batched` engine, kept for callers that still name it.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Batched: FilterEngineKind = FilterEngineKind::Simd;
}

impl std::str::FromStr for FilterEngineKind {
    type Err = String;

    /// Parses the CLI spelling: `scalar` or `simd`.
    fn from_str(s: &str) -> Result<FilterEngineKind, String> {
        match s {
            "scalar" => Ok(FilterEngineKind::Scalar),
            "simd" => Ok(FilterEngineKind::Simd),
            other => Err(format!(
                "unknown filter engine {other:?} (expected \"scalar\" or \"simd\")"
            )),
        }
    }
}

/// Full pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WgaParams {
    /// Substitution matrix `W` (Table IIa).
    pub scoring: SubstitutionMatrix,
    /// Affine gap penalties (Table IIa).
    pub gaps: GapPenalties,
    /// Spaced seed pattern (Fig. 5).
    pub seed_pattern: SeedPattern,
    /// D-SOFT seeding parameters.
    pub dsoft: DsoftParams,
    /// Repeat cap: seed words occurring more often are masked.
    pub max_seed_occurrences: usize,
    /// Filtering stage.
    pub filter: FilterStage,
    /// Which BSW implementation executes a gapped filtering stage
    /// (results are identical either way; ignored for ungapped
    /// filtering).
    pub filter_engine: FilterEngineKind,
    /// GACT-X tiled extension (Darwin-WGA's extension stage).
    pub extension: TilingParams,
    /// Extension threshold `H_e`: alignments scoring below are dropped.
    pub extension_threshold: i64,
    /// Also search the reverse-complement strand of the query.
    pub both_strands: bool,
    /// Per-run resource budgets (unbounded by default).
    pub budget: ResourceBudget,
    /// Bases per query range — the unit a strand is seeded and
    /// filtered in on every schedule (see the `shard` module). Purely a
    /// performance knob: canonical output is byte-identical for every
    /// size. Cuts are rounded up to whole D-SOFT chunks so
    /// diagonal-band counts never split across ranges.
    pub shard_bases: usize,
}

impl WgaParams {
    /// Darwin-WGA defaults (Table II): gapped filtering + GACT-X.
    ///
    /// # Examples
    ///
    /// ```
    /// use wga_core::config::{FilterStage, WgaParams};
    ///
    /// let p = WgaParams::darwin_wga();
    /// match p.filter {
    ///     FilterStage::Gapped(g) => {
    ///         assert_eq!(g.tile_size, 320);
    ///         assert_eq!(g.band, 32);
    ///     }
    ///     _ => unreachable!(),
    /// }
    /// assert_eq!(p.extension_threshold, 4000);
    /// ```
    pub fn darwin_wga() -> WgaParams {
        WgaParams {
            scoring: SubstitutionMatrix::darwin_wga(),
            gaps: GapPenalties::darwin_wga(),
            seed_pattern: SeedPattern::lastz_default(),
            dsoft: DsoftParams::default(),
            max_seed_occurrences: 1000,
            filter: FilterStage::Gapped(GappedFilterParams::default()),
            filter_engine: FilterEngineKind::default(),
            extension: TilingParams::gactx_default(),
            extension_threshold: 4000,
            both_strands: false,
            budget: ResourceBudget::default(),
            shard_bases: 2048,
        }
    }

    /// LASTZ-like baseline: identical scoring, seeding and extension, but
    /// *ungapped* filtering with LASTZ's default thresholds (3000).
    ///
    /// The extension stage is deliberately the same GACT-X configuration
    /// as [`WgaParams::darwin_wga`], so any sensitivity difference between
    /// the two pipelines is attributable to the filtering stage alone —
    /// the controlled comparison behind the paper's Table III claim that
    /// "the added sensitivity can be completely attributed to \[the\]
    /// gapped filtering stage" (§VI-B).
    pub fn lastz_baseline() -> WgaParams {
        WgaParams {
            filter: FilterStage::Ungapped(UngappedFilterParams::default()),
            extension_threshold: 3000,
            ..WgaParams::darwin_wga()
        }
    }

    /// Sets the filter threshold (`H_f`), preserving everything else.
    pub fn with_filter_threshold(mut self, threshold: i64) -> WgaParams {
        match &mut self.filter {
            FilterStage::Gapped(p) => p.threshold = threshold,
            FilterStage::Ungapped(p) => p.threshold = threshold,
        }
        self
    }

    /// Selects the BSW filter implementation, preserving everything else.
    pub fn with_filter_engine(mut self, engine: FilterEngineKind) -> WgaParams {
        self.filter_engine = engine;
        self
    }

    /// Rejects degenerate configurations with a typed error.
    ///
    /// Called by the assembly driver and the CLI, so library code never has to panic on a bad
    /// config deep inside a stage.
    ///
    /// # Errors
    ///
    /// Returns [`WgaError::Config`] naming the first degenerate field.
    ///
    /// # Examples
    ///
    /// ```
    /// use wga_core::config::WgaParams;
    ///
    /// assert!(WgaParams::darwin_wga().validate().is_ok());
    /// let mut p = WgaParams::darwin_wga();
    /// p.extension_threshold = -1;
    /// assert!(p.validate().is_err());
    /// ```
    pub fn validate(&self) -> WgaResult<()> {
        if self.seed_pattern.weight() == 0 {
            return Err(WgaError::config("seed pattern weight must be positive"));
        }
        if self.max_seed_occurrences == 0 {
            return Err(WgaError::config("max_seed_occurrences must be positive"));
        }
        if self.dsoft.chunk_size == 0 {
            return Err(WgaError::config("D-SOFT chunk size must be positive"));
        }
        if self.dsoft.bin_size == 0 {
            return Err(WgaError::config("D-SOFT bin size must be positive"));
        }
        if self.dsoft.threshold == 0 {
            return Err(WgaError::config("D-SOFT threshold must be positive"));
        }
        if self.dsoft.query_stride == 0 {
            return Err(WgaError::config("D-SOFT query stride must be positive"));
        }
        match self.filter {
            FilterStage::Gapped(f) => {
                if f.band == 0 {
                    return Err(WgaError::config("filter band width must be positive"));
                }
                if f.tile_size == 0 {
                    return Err(WgaError::config("filter tile size must be positive"));
                }
            }
            FilterStage::Ungapped(f) => {
                if f.xdrop < 0 {
                    return Err(WgaError::config("filter X-drop must be non-negative"));
                }
            }
        }
        let t = self.extension;
        if t.tile_size == 0 {
            return Err(WgaError::config("extension tile size must be positive"));
        }
        if t.overlap >= t.tile_size {
            return Err(WgaError::config(
                "extension overlap must be smaller than the tile size",
            ));
        }
        if t.y <= 0 {
            return Err(WgaError::config("extension X-drop Y must be positive"));
        }
        if !scores_fit_i32(t.tile_size, t.tile_size, &self.scoring, &self.gaps) {
            return Err(WgaError::config(
                "extension tile too large (or gap penalties negative) for the kernel's 32-bit scores",
            ));
        }
        if self.extension_threshold < 0 {
            return Err(WgaError::config(
                "extension_threshold must be non-negative (alignments are scored locally)",
            ));
        }
        if self.shard_bases == 0 {
            return Err(WgaError::config("shard_bases must be positive"));
        }
        Ok(())
    }
}

impl Default for WgaParams {
    fn default() -> Self {
        WgaParams::darwin_wga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darwin_defaults_match_table_2() {
        let p = WgaParams::darwin_wga();
        assert_eq!(p.gaps.open, 430);
        assert_eq!(p.gaps.extend, 30);
        assert_eq!(p.seed_pattern.weight(), 12);
        let t = p.extension;
        assert_eq!(t.tile_size, 1920);
        assert_eq!(t.overlap, 128);
        assert_eq!(t.y, 9430);
    }

    #[test]
    fn lastz_baseline_uses_ungapped_filter() {
        let p = WgaParams::lastz_baseline();
        assert!(matches!(p.filter, FilterStage::Ungapped(_)));
        assert_eq!(p.filter.threshold(), 3000);
        assert_eq!(p.extension_threshold, 3000);
    }

    fn assert_rejected(params: WgaParams, needle: &str) {
        let err = params.validate().expect_err("must reject");
        let text = err.to_string();
        assert!(text.contains(needle), "{text:?} lacks {needle:?}");
    }

    #[test]
    fn validate_accepts_shipped_configs() {
        for p in [WgaParams::darwin_wga(), WgaParams::lastz_baseline()] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_zero_band() {
        let mut p = WgaParams::darwin_wga();
        p.filter = FilterStage::Gapped(GappedFilterParams {
            band: 0,
            ..GappedFilterParams::default()
        });
        assert_rejected(p, "band");
    }

    #[test]
    fn validate_rejects_zero_filter_tile_size() {
        let mut p = WgaParams::darwin_wga();
        p.filter = FilterStage::Gapped(GappedFilterParams {
            tile_size: 0,
            ..GappedFilterParams::default()
        });
        assert_rejected(p, "tile size");
    }

    #[test]
    fn validate_rejects_zero_seed_occurrences() {
        let mut p = WgaParams::darwin_wga();
        p.max_seed_occurrences = 0;
        assert_rejected(p, "max_seed_occurrences");
    }

    #[test]
    fn validate_rejects_negative_extension_threshold() {
        let mut p = WgaParams::darwin_wga();
        p.extension_threshold = -1;
        assert_rejected(p, "extension_threshold");
    }

    #[test]
    fn validate_rejects_degenerate_dsoft() {
        for mutate in [
            (|p: &mut WgaParams| p.dsoft.chunk_size = 0) as fn(&mut WgaParams),
            |p| p.dsoft.bin_size = 0,
            |p| p.dsoft.threshold = 0,
            |p| p.dsoft.query_stride = 0,
        ] {
            let mut p = WgaParams::darwin_wga();
            mutate(&mut p);
            assert!(p.validate().is_err());
        }
    }

    #[test]
    fn validate_rejects_degenerate_extension() {
        let mut p = WgaParams::darwin_wga();
        p.extension = TilingParams {
            tile_size: 128,
            overlap: 128,
            y: 9430,
            edge_traceback: false,
        };
        assert_rejected(p, "overlap");
        let mut p = WgaParams::darwin_wga();
        p.extension = TilingParams::gact_with_memory(1 << 40);
        assert_rejected(p, "32-bit");
        let mut p = WgaParams::darwin_wga();
        p.extension = TilingParams {
            y: 0,
            ..TilingParams::gactx_default()
        };
        assert_rejected(p, "X-drop Y");
    }

    #[test]
    fn budget_defaults_unbounded() {
        let b = ResourceBudget::default();
        assert_eq!(b.max_filter_tiles, None);
        assert_eq!(b.max_extension_cells, None);
    }

    #[test]
    fn filter_engine_defaults_simd_and_parses() {
        use FilterEngineKind::{Scalar, Simd};
        assert_eq!(WgaParams::darwin_wga().filter_engine, Simd);
        assert_eq!(["scalar", "simd"].map(str::parse), [Ok(Scalar), Ok(Simd)]);
        assert!("avx".parse::<FilterEngineKind>().is_err());
        let p = WgaParams::darwin_wga().with_filter_engine(FilterEngineKind::Scalar);
        assert_eq!(p.filter_engine, FilterEngineKind::Scalar);
        p.validate().unwrap();
    }

    #[test]
    fn shard_bases_defaults_positive_and_validates() {
        let p = WgaParams::darwin_wga();
        assert!(p.shard_bases > 0);
        let p = WgaParams {
            shard_bases: 4096,
            ..p
        };
        p.validate().unwrap();
        let mut bad = WgaParams::darwin_wga();
        bad.shard_bases = 0;
        assert_rejected(bad, "shard_bases");
    }

    #[test]
    fn with_filter_threshold() {
        let p = WgaParams::darwin_wga().with_filter_threshold(3000);
        assert_eq!(p.filter.threshold(), 3000);
        let q = WgaParams::lastz_baseline().with_filter_threshold(500);
        assert_eq!(q.filter.threshold(), 500);
    }
}
