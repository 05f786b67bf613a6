//! Modeled-vs-measured drift scoring.
//!
//! `wga align --trace-out` records the accelerator cycle models' output
//! as `hwsim.bsw` / `hwsim.gactx` spans (cycles in the `cells` field),
//! computed from the run's own in-memory workload. This module
//! re-derives that workload *from the trace* — seed spans, counters,
//! extension tile spans — and replays it through the same models
//! ([`hwsim::perf::replay_trace_workload`], FPGA config, matching the
//! recording side in `wga align`). Any gap between recorded and
//! replayed cycles means the trace no longer captures the workload the
//! pipeline actually ran (a dropped span, a miscounted counter, a
//! changed model) — never timing noise, because both sides are pure
//! integer functions of the trace. That makes the score a safe CI
//! gate.

use crate::trace::TraceFile;
use hwsim::perf::{replay_trace_workload, ModeledCycles, Workload};
use hwsim::AcceleratorConfig;
use wga_core::obs::{Counter, HistKind, SpanName};

/// Drift of one offloaded stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftStage {
    /// Whether the trace carried a recorded span for this stage at all.
    pub present: bool,
    /// Cycles the run recorded (sum of the stage's `hwsim.*` span
    /// `cells`).
    pub recorded_cycles: u64,
    /// Cycles the replay of the trace-extracted workload yields.
    pub replayed_cycles: u64,
    /// `|recorded - replayed| * 10000 / max(recorded, 1)` — integer
    /// centi-percent error.
    pub drift_centi: u64,
}

fn stage(present: bool, recorded: u64, replayed: u64) -> DriftStage {
    DriftStage {
        present,
        recorded_cycles: recorded,
        replayed_cycles: replayed,
        drift_centi: recorded
            .abs_diff(replayed)
            .saturating_mul(10_000)
            / recorded.max(1),
    }
}

fn offmedian_centi(trace: &TraceFile, hist: HistKind) -> u64 {
    let Some(h) = trace.hists.get(&hist) else { return 0 };
    if h.total == 0 {
        return 0;
    }
    let Some(median_bucket) = h.hist.percentile_bucket(500) else { return 0 };
    let in_median = h
        .buckets
        .iter()
        .find(|(b, _)| *b == median_bucket)
        .map_or(0, |(_, c)| *c);
    h.total.saturating_sub(in_median).saturating_mul(10_000) / h.total
}

/// The full drift picture for one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drift {
    /// Workload shape extracted from the trace.
    pub workload: Workload,
    /// Cycle figures from replaying that workload.
    pub replayed: ModeledCycles,
    /// BSW (filter) stage drift.
    pub bsw: DriftStage,
    /// GACT-X (extension) stage drift.
    pub gactx: DriftStage,
    /// Share of filter tiles whose latency falls outside the median
    /// log2 bucket, centi-percent — a shape signal (reported, not
    /// gated: latency distributions move with the machine).
    pub filter_time_offmedian_centi: u64,
    /// Same for tile cell counts — this one is machine-independent.
    pub filter_cells_offmedian_centi: u64,
}

impl Drift {
    /// Extracts the workload from `trace`, replays it, and scores the
    /// gap against the recorded `hwsim.*` spans.
    pub fn compute(trace: &TraceFile) -> Drift {
        let seeds: u64 = trace.spans_named(SpanName::Seed).map(|s| s.cells).sum();
        let extension_tiles: u64 = trace.spans_named(SpanName::ExtendTile).map(|s| s.items).sum();
        let (workload, replayed) = replay_trace_workload(
            seeds,
            trace.counter(Counter::FilterTiles.as_str()),
            extension_tiles,
            trace.counter(Counter::ExtensionCells.as_str()),
            trace.counter(Counter::ExtensionRows.as_str()),
            &AcceleratorConfig::fpga(),
        );

        let bsw_spans: Vec<_> = trace.spans_named(SpanName::HwsimBsw).collect();
        let gactx_spans: Vec<_> = trace.spans_named(SpanName::HwsimGactx).collect();
        let bsw_recorded: u64 = bsw_spans.iter().map(|s| s.cells).sum();
        let gactx_recorded: u64 = gactx_spans.iter().map(|s| s.cells).sum();

        Drift {
            workload,
            replayed,
            bsw: stage(!bsw_spans.is_empty(), bsw_recorded, replayed.bsw_cycles),
            gactx: stage(!gactx_spans.is_empty(), gactx_recorded, replayed.gactx_cycles),
            filter_time_offmedian_centi: offmedian_centi(trace, HistKind::FilterTileNs),
            filter_cells_offmedian_centi: offmedian_centi(trace, HistKind::FilterTileCells),
        }
    }

    /// The largest gated drift score, or `None` when the trace carried
    /// no `hwsim.*` spans at all (a gate must treat that as an error,
    /// not a pass — otherwise a dropped span silently disables it).
    pub fn max_gated_centi(&self) -> Option<u64> {
        if !self.bsw.present && !self.gactx.present {
            return None;
        }
        let b = if self.bsw.present { self.bsw.drift_centi } else { 0 };
        let g = if self.gactx.present { self.gactx.drift_centi } else { 0 };
        Some(b.max(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with_hwsim(bsw_cycles: u64, gactx_cycles: u64) -> TraceFile {
        // Workload: 100 seeds, 10 filter tiles, 2 extension tiles,
        // 5000 cells, 40 rows — then hwsim spans claiming the given
        // cycle figures.
        let text = format!(
            concat!(
                "{{\"schema\":2}}\n",
                "{{\"span\":\"seed\",\"pair\":0,\"strand\":0,\"seq\":0,\"start_us\":0,\"dur_us\":5,\"items\":3,\"cells\":100}}\n",
                "{{\"span\":\"extend.tile\",\"pair\":0,\"strand\":2,\"seq\":0,\"start_us\":5,\"dur_us\":5,\"items\":2,\"cells\":5000}}\n",
                "{{\"span\":\"hwsim.bsw\",\"pair\":{nop},\"strand\":2,\"seq\":0,\"start_us\":10,\"dur_us\":0,\"items\":10,\"cells\":{bsw}}}\n",
                "{{\"span\":\"hwsim.gactx\",\"pair\":{nop},\"strand\":2,\"seq\":0,\"start_us\":10,\"dur_us\":0,\"items\":2,\"cells\":{gactx}}}\n",
                "{{\"counter\":\"filter.tiles\",\"value\":10}}\n",
                "{{\"counter\":\"extend.cells\",\"value\":5000}}\n",
                "{{\"counter\":\"extend.rows\",\"value\":40}}\n",
            ),
            nop = u64::MAX,
            bsw = bsw_cycles,
            gactx = gactx_cycles,
        );
        TraceFile::parse(&text).expect("trace parses")
    }

    #[test]
    fn self_consistent_trace_has_zero_drift() {
        let (_, modeled) = replay_trace_workload(100, 10, 2, 5000, 40, &AcceleratorConfig::fpga());
        let d = Drift::compute(&trace_with_hwsim(modeled.bsw_cycles, modeled.gactx_cycles));
        assert!(d.bsw.present && d.gactx.present);
        assert_eq!(d.bsw.drift_centi, 0);
        assert_eq!(d.gactx.drift_centi, 0);
        assert_eq!(d.max_gated_centi(), Some(0));
        assert_eq!(d.workload.seeds, 100);
        assert_eq!(d.workload.extension_rows, 40);
    }

    #[test]
    fn perturbed_cycles_score_nonzero() {
        let (_, modeled) = replay_trace_workload(100, 10, 2, 5000, 40, &AcceleratorConfig::fpga());
        // Inflate recorded BSW cycles by 10%: drift should be ~1000 centi.
        let recorded = modeled.bsw_cycles + modeled.bsw_cycles / 10;
        let d = Drift::compute(&trace_with_hwsim(recorded, modeled.gactx_cycles));
        assert!(d.bsw.drift_centi >= 900 && d.bsw.drift_centi <= 1000, "{}", d.bsw.drift_centi);
        assert_eq!(d.max_gated_centi(), Some(d.bsw.drift_centi));
    }

    #[test]
    fn missing_hwsim_spans_yield_no_gate_signal() {
        let t = TraceFile::parse("{\"schema\":2}\n").unwrap();
        let d = Drift::compute(&t);
        assert!(!d.bsw.present && !d.gactx.present);
        assert_eq!(d.max_gated_centi(), None);
    }

    #[test]
    fn offmedian_mass_is_scored() {
        let text = concat!(
            "{\"schema\":2}\n",
            "{\"hist\":\"filter.tile_cells\",\"total\":10,\"buckets\":[[3,9],[12,1]]}\n",
        );
        let d = Drift::compute(&TraceFile::parse(text).unwrap());
        // Median bucket is 3 (9 of 10 samples); 1 sample off-median.
        assert_eq!(d.filter_cells_offmedian_centi, 1_000);
        assert_eq!(d.filter_time_offmedian_centi, 0);
    }
}
