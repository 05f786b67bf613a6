//! Per-stage attribution over a parsed trace.
//!
//! Everything here is integer arithmetic over span fields, computed in
//! a fixed order, so the same trace always yields the same
//! [`Attribution`] — the invariant the byte-identical report rests on.

use crate::trace::TraceFile;
use std::collections::BTreeMap;
use wga_core::obs::{Span, SpanName, NO_PAIR, NO_SPAN};

/// Aggregate over every span of one stage (wire name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAgg {
    /// Wire name of the stage.
    pub stage: &'static str,
    /// Number of spans recorded.
    pub spans: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Sum of span `items`.
    pub items: u64,
    /// Sum of span `cells`.
    pub cells: u64,
}

/// Busy / queue-wait / idle split for one worker thread (schema-2
/// traces only; schema-1 traces have a single tid-0 worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerAgg {
    /// Thread id from the trace.
    pub tid: u64,
    /// Spans this worker recorded (all kinds).
    pub spans: u64,
    /// Microseconds inside top-level pipeline spans (excludes
    /// `queue.wait` and nested spans — a nested `extend.tile` is already
    /// covered by its `extend` lane).
    pub busy_us: u64,
    /// Microseconds inside `queue.wait` spans.
    pub wait_us: u64,
    /// Lifetime minus busy minus wait, saturating at zero.
    pub idle_us: u64,
}

/// Critical-path estimate for one pair: serial seed time, the slowest
/// filter batch (batches run concurrently), and extension commit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairPath {
    /// Pair id.
    pub pair: u64,
    /// Σ `seed` + `seed.table` durations for the pair.
    pub seed_us: u64,
    /// max `filter.batch` duration for the pair.
    pub filter_us: u64,
    /// Σ `extend` lane durations (falls back to Σ `extend.tile` when
    /// the trace predates lane spans).
    pub extend_us: u64,
    /// seed + filter + extend.
    pub total_us: u64,
}

/// One entry of a top-K slowest listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopSpan {
    /// Pair id (`u64::MAX` for pairless spans).
    pub pair: u64,
    /// Strand code.
    pub strand: u8,
    /// Sibling sequence number.
    pub seq: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Work items covered.
    pub items: u64,
    /// DP cells covered.
    pub cells: u64,
}

/// The full attribution derived from one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// One aggregate per known stage, in `SpanName::ALL` order
    /// (zero-span stages included, so the list shape is fixed).
    pub stages: Vec<StageAgg>,
    /// Seed share of seed+filter+extend stage time, centi-percent.
    pub seed_share_centi: u64,
    /// Filter share, centi-percent.
    pub filter_share_centi: u64,
    /// Extend share, centi-percent.
    pub extend_share_centi: u64,
    /// Per-worker busy/wait/idle, ascending tid.
    pub workers: Vec<WorkerAgg>,
    /// Distinct pairs seen in the trace.
    pub pairs: u64,
    /// The pair with the longest estimated critical path (ties break
    /// to the lowest pair id); `None` for a pairless trace.
    pub critical: Option<PairPath>,
    /// Trace wall clock: max end minus min start over every span.
    pub wall_us: u64,
    /// Slowest `filter.batch` spans, slowest first.
    pub top_filter_batches: Vec<TopSpan>,
    /// Slowest `extend.tile` spans, slowest first.
    pub top_extend_tiles: Vec<TopSpan>,
    /// `shard.spec_discard` counter value, nonzero only in a trace
    /// written while extension speculation ran. The JSON's
    /// `speculation` member keeps it; the table does not print it.
    pub spec_discard: u64,
    /// Number of `extend.tile` spans (committed extensions).
    pub extended_tiles: u64,
    /// Discarded speculative extensions as a share of all extension
    /// work, centi-percent: `discard * 10000 / (discard + committed)`.
    pub discard_centi: u64,
    /// Number of `fault` spans, one per injected fault.
    pub fault_spans: u64,
}

fn share_centi(part: u64, whole: u64) -> u64 {
    part.saturating_mul(10_000).checked_div(whole).unwrap_or(0)
}

fn end_us(span: &Span) -> u64 {
    span.start_us.saturating_add(span.dur_us)
}

fn top_k(trace: &TraceFile, name: SpanName, k: usize) -> Vec<TopSpan> {
    let mut ranked: Vec<&Span> = trace.spans_named(name).collect();
    ranked.sort_by_key(|s| (std::cmp::Reverse(s.dur_us), s.start_us, s.pair, s.seq, s.id));
    ranked
        .into_iter()
        .take(k)
        .map(|s| TopSpan {
            pair: s.pair,
            strand: s.strand,
            seq: s.seq,
            dur_us: s.dur_us,
            items: s.items,
            cells: s.cells,
        })
        .collect()
}

impl Attribution {
    /// Computes the attribution for `trace`, keeping the `k` slowest
    /// entries in the top listings.
    pub fn compute(trace: &TraceFile, k: usize) -> Attribution {
        let mut stages = Vec::with_capacity(SpanName::ALL.len());
        for name in SpanName::ALL {
            let mut agg = StageAgg {
                stage: name.as_str(),
                spans: 0,
                total_us: 0,
                items: 0,
                cells: 0,
            };
            for s in trace.spans_named(name) {
                agg.spans += 1;
                agg.total_us = agg.total_us.saturating_add(s.dur_us);
                agg.items = agg.items.saturating_add(s.items);
                agg.cells = agg.cells.saturating_add(s.cells);
            }
            stages.push(agg);
        }
        let stage_total = |name: SpanName| {
            stages
                .iter()
                .find(|a| a.stage == name.as_str())
                .map_or(0, |a| a.total_us)
        };
        let lane_total = stage_total(SpanName::Extend);
        let seed_t = stage_total(SpanName::Seed).saturating_add(stage_total(SpanName::SeedTable));
        let filter_t = stage_total(SpanName::FilterBatch);
        let extend_t = if lane_total > 0 {
            lane_total
        } else {
            stage_total(SpanName::ExtendTile)
        };
        let pipeline_t = seed_t.saturating_add(filter_t).saturating_add(extend_t);

        // Per-worker busy/wait/idle. Busy counts only top-level
        // pipeline spans: queue.wait is wait, and a span with a parent
        // is already inside its parent's duration.
        let mut workers: BTreeMap<u64, (u64, u64, u64, u64, u64)> = BTreeMap::new();
        for s in &trace.spans {
            let w = workers.entry(s.tid).or_insert((0, 0, 0, u64::MAX, 0));
            w.0 += 1;
            if s.name == SpanName::QueueWait {
                w.2 = w.2.saturating_add(s.dur_us);
            } else if s.parent == NO_SPAN {
                w.1 = w.1.saturating_add(s.dur_us);
            }
            w.3 = w.3.min(s.start_us);
            w.4 = w.4.max(end_us(s));
        }
        let workers: Vec<WorkerAgg> = workers
            .into_iter()
            .map(|(tid, (spans, busy, wait, first, last))| WorkerAgg {
                tid,
                spans,
                busy_us: busy,
                wait_us: wait,
                idle_us: (last - first).saturating_sub(busy).saturating_sub(wait),
            })
            .collect();

        // Critical path per pair.
        let mut per_pair: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
        for s in &trace.spans {
            if s.pair == NO_PAIR {
                continue;
            }
            let p = per_pair.entry(s.pair).or_insert((0, 0, 0, 0));
            match s.name {
                SpanName::Seed | SpanName::SeedTable => p.0 = p.0.saturating_add(s.dur_us),
                SpanName::FilterBatch => p.1 = p.1.max(s.dur_us),
                SpanName::Extend => p.2 = p.2.saturating_add(s.dur_us),
                SpanName::ExtendTile => p.3 = p.3.saturating_add(s.dur_us),
                _ => {}
            }
        }
        let pairs = per_pair.len() as u64;
        let mut critical: Option<PairPath> = None;
        for (&pair, &(seed_us, filter_us, lanes, tiles)) in &per_pair {
            let extend_us = if lanes > 0 { lanes } else { tiles };
            let total_us = seed_us.saturating_add(filter_us).saturating_add(extend_us);
            let better = critical.as_ref().is_none_or(|c| total_us > c.total_us);
            if better {
                critical = Some(PairPath {
                    pair,
                    seed_us,
                    filter_us,
                    extend_us,
                    total_us,
                });
            }
        }

        let first = trace.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let wall_us = trace
            .spans
            .iter()
            .map(end_us)
            .max()
            .map_or(0, |last| last - first);

        let extended_tiles = trace.spans_named(SpanName::ExtendTile).count() as u64;
        let spec_discard = trace.counter("shard.spec_discard");
        let fault_spans = trace.spans_named(SpanName::Fault).count() as u64;

        Attribution {
            stages,
            seed_share_centi: share_centi(seed_t, pipeline_t),
            filter_share_centi: share_centi(filter_t, pipeline_t),
            extend_share_centi: share_centi(extend_t, pipeline_t),
            workers,
            pairs,
            critical,
            wall_us,
            top_filter_batches: top_k(trace, SpanName::FilterBatch, k),
            top_extend_tiles: top_k(trace, SpanName::ExtendTile, k),
            spec_discard,
            extended_tiles,
            discard_centi: share_centi(spec_discard, spec_discard.saturating_add(extended_tiles)),
            fault_spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceFile;

    fn span(name: &str, pair: u64, seq: u64, start: u64, dur: u64, parent: u64) -> String {
        format!(
            "{{\"span\":\"{name}\",\"pair\":{pair},\"strand\":2,\"seq\":{seq},\"start_us\":{start},\"dur_us\":{dur},\"items\":1,\"cells\":10,\"tid\":1,\"id\":{},\"parent\":{parent}}}",
            seq + 100
        )
    }

    fn mini_trace() -> TraceFile {
        let lines = vec![
            "{\"schema\":2}".to_string(),
            span("seed", 0, 0, 0, 10, 0),
            span("filter.batch", 0, 0, 10, 30, 0),
            span("filter.batch", 0, 1, 10, 20, 0),
            span("extend", 0, 0, 40, 25, 0),
            span("extend.tile", 0, 0, 41, 12, 100),
            span("extend.tile", 0, 1, 53, 11, 100),
            span("seed", 1, 0, 0, 5, 0),
            span("filter.batch", 1, 0, 5, 8, 0),
            "{\"counter\":\"shard.spec_discard\",\"value\":2}".to_string(),
        ];
        TraceFile::parse(&lines.join("\n")).expect("trace parses")
    }

    #[test]
    fn stages_cover_all_span_names_in_fixed_order() {
        let a = Attribution::compute(&mini_trace(), 5);
        assert_eq!(a.stages.len(), wga_core::obs::SpanName::ALL.len());
        assert_eq!(a.stages[0].stage, "seed");
        assert_eq!(a.stages[0].spans, 2);
        assert_eq!(a.stages[0].total_us, 15);
        let cp = a.stages.iter().find(|s| s.stage == "checkpoint").unwrap();
        assert_eq!(cp.spans, 0, "zero-span stages stay in the list");
    }

    #[test]
    fn shares_use_lane_time_and_sum_below_100pct() {
        let a = Attribution::compute(&mini_trace(), 5);
        // seed 15, filter 58, extend(lane) 25 => denom 98.
        assert_eq!(a.seed_share_centi, 15 * 10_000 / 98);
        assert_eq!(a.filter_share_centi, 58 * 10_000 / 98);
        assert_eq!(a.extend_share_centi, 25 * 10_000 / 98);
        assert!(a.seed_share_centi + a.filter_share_centi + a.extend_share_centi <= 10_000);
    }

    #[test]
    fn critical_path_picks_heaviest_pair_with_max_batch() {
        let a = Attribution::compute(&mini_trace(), 5);
        assert_eq!(a.pairs, 2);
        let c = a.critical.expect("has pairs");
        // pair 0: seed 10 + max-batch 30 + lane 25 = 65; pair 1: 5 + 8 = 13.
        assert_eq!(c.pair, 0);
        assert_eq!(c.total_us, 65);
        assert_eq!(c.filter_us, 30);
    }

    #[test]
    fn nested_tiles_do_not_double_count_busy() {
        let a = Attribution::compute(&mini_trace(), 5);
        assert_eq!(a.workers.len(), 1);
        let w = &a.workers[0];
        // Busy is top-level spans only: 10+30+20+25+5+8 = 98 (tiles nested under lane).
        assert_eq!(w.busy_us, 98);
        assert_eq!(w.wait_us, 0);
        assert_eq!(w.spans, 8);
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let a = Attribution::compute(&mini_trace(), 1);
        assert_eq!(a.top_filter_batches.len(), 1);
        assert_eq!(a.top_filter_batches[0].dur_us, 30);
        assert_eq!(a.top_extend_tiles[0].dur_us, 12);
    }

    #[test]
    fn speculation_rollup_uses_committed_tiles() {
        let a = Attribution::compute(&mini_trace(), 5);
        assert_eq!(a.spec_discard, 2);
        assert_eq!(a.extended_tiles, 2);
        assert_eq!(a.discard_centi, 5_000);
    }

    #[test]
    fn empty_trace_attributes_to_zero() {
        let t = TraceFile::parse("{\"schema\":2}\n").unwrap();
        let a = Attribution::compute(&t, 5);
        assert_eq!(a.pairs, 0);
        assert!(a.critical.is_none());
        assert_eq!(a.wall_us, 0);
        assert_eq!(a.seed_share_centi, 0);
    }
}
