//! The `profile_report.json` artifact and its human rendering.
//!
//! The JSON is one `wga_core::json` object, one top-level member a line,
//! with a fixed field order and integer-only values (shares are
//! centi-percent, durations are microseconds, cycles are cycles), so
//! the same trace always produces byte-identical output — that is what
//! lets CI diff reports across commits. The human table is a rendering
//! of the same numbers.

use crate::analyze::{Attribution, TopSpan};
use crate::trace::TraceFile;
use hwsim::perf::{modeled_cycles, ModeledCycles, Workload};
use hwsim::AcceleratorConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wga_core::json::Json;
use wga_core::obs::{Counter, SpanName};

/// Version of the report layout itself (bump on field changes).
///
/// * 1 — the modeled cycles scored against `hwsim.*` spans the run
///   recorded from the same figures.
/// * 2 — a `modeled` member: the workload's cycles, nothing to score.
pub const PROFILE_SCHEMA: u64 = 2;

/// Everything `wga profile report` derives from one trace.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Schema the trace declared.
    pub trace_schema: u64,
    /// Total span lines in the trace.
    pub total_spans: u64,
    /// Funnel counters, by wire name.
    pub counters: BTreeMap<String, u64>,
    /// Per-stage / per-worker / critical-path attribution.
    pub attr: Attribution,
    /// The workload the trace counts.
    pub workload: Workload,
    /// That workload rolled through the FPGA cycle models.
    pub modeled: ModeledCycles,
}

/// Formats centi-percent as `12.34%`.
pub fn fmt_centi(centi: u64) -> String {
    format!("{}.{:02}%", centi / 100, centi % 100)
}

fn top_json(entries: &[TopSpan]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|t| {
                Json::obj([
                    ("pair", t.pair.into()),
                    ("strand", u64::from(t.strand).into()),
                    ("seq", t.seq.into()),
                    ("dur_us", t.dur_us.into()),
                    ("items", t.items.into()),
                    ("cells", t.cells.into()),
                ])
            })
            .collect(),
    )
}

/// The workload a trace counts: seeds from the `seed` spans' `cells`,
/// the rest from the funnel counters (from the `extend.tile` spans'
/// `items` in traces older than the `extend.tiles` counter).
fn workload(trace: &TraceFile) -> Workload {
    let extension_tiles = match trace.counters.get(Counter::ExtensionTiles.as_str()) {
        Some(&tiles) => tiles,
        None => trace
            .spans_named(SpanName::ExtendTile)
            .map(|s| s.items)
            .sum(),
    };
    Workload {
        seeds: trace.spans_named(SpanName::Seed).map(|s| s.cells).sum(),
        filter_tiles: trace.counter(Counter::FilterTiles.as_str()),
        extension_tiles,
        extension_cells: trace.counter(Counter::ExtensionCells.as_str()),
        extension_rows: trace.counter(Counter::ExtensionRows.as_str()),
    }
}

impl ProfileReport {
    /// Builds the report for `trace`, keeping `top_k` entries in the
    /// slowest-span listings.
    pub fn build(trace: &TraceFile, top_k: usize) -> ProfileReport {
        let workload = workload(trace);
        ProfileReport {
            trace_schema: trace.schema,
            total_spans: trace.spans.len() as u64,
            counters: trace.counters.clone(),
            attr: Attribution::compute(trace, top_k),
            workload,
            modeled: modeled_cycles(&workload, &AcceleratorConfig::fpga()),
        }
    }

    /// Serialises the report: fixed field order, integers only, one
    /// top-level member per line. Byte-identical for identical traces.
    pub fn to_json(&self) -> String {
        self.to_doc().to_lines()
    }

    /// The report as one JSON object, the members [`ProfileReport::to_json`]
    /// writes a line each.
    pub fn to_doc(&self) -> Json {
        let (a, m) = (&self.attr, &self.modeled);
        let stages = a.stages.iter().map(|s| {
            Json::obj([
                ("stage", s.stage.into()),
                ("spans", s.spans.into()),
                ("total_us", s.total_us.into()),
                ("items", s.items.into()),
                ("cells", s.cells.into()),
            ])
        });
        let workers = a.workers.iter().map(|w| {
            Json::obj([
                ("tid", w.tid.into()),
                ("spans", w.spans.into()),
                ("busy_us", w.busy_us.into()),
                ("wait_us", w.wait_us.into()),
                ("idle_us", w.idle_us.into()),
            ])
        });
        // A pairless trace reports pair u64::MAX with all-zero legs.
        let (cp_pair, cp_seed, cp_filter, cp_extend, cp_total) = match &a.critical {
            Some(c) => (c.pair, c.seed_us, c.filter_us, c.extend_us, c.total_us),
            None => (u64::MAX, 0, 0, 0, 0),
        };
        Json::obj([
            ("profile_schema", PROFILE_SCHEMA.into()),
            ("trace_schema", self.trace_schema.into()),
            ("total_spans", self.total_spans.into()),
            ("workload", (&self.workload).into()),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, &v)| (name.clone(), v.into()))
                        .collect(),
                ),
            ),
            ("stages", Json::Arr(stages.collect())),
            (
                "shares",
                Json::obj([
                    ("seed_centi", a.seed_share_centi.into()),
                    ("filter_centi", a.filter_share_centi.into()),
                    ("extend_centi", a.extend_share_centi.into()),
                ]),
            ),
            ("workers", Json::Arr(workers.collect())),
            (
                "critical_path",
                Json::obj([
                    ("pairs", a.pairs.into()),
                    ("pair", cp_pair.into()),
                    ("seed_us", cp_seed.into()),
                    ("filter_us", cp_filter.into()),
                    ("extend_us", cp_extend.into()),
                    ("total_us", cp_total.into()),
                    ("wall_us", a.wall_us.into()),
                ]),
            ),
            ("top_filter_batches", top_json(&a.top_filter_batches)),
            ("top_extend_tiles", top_json(&a.top_extend_tiles)),
            (
                "speculation",
                Json::obj([
                    ("spec_discard", a.spec_discard.into()),
                    ("extended", a.extended_tiles.into()),
                    ("discard_centi", a.discard_centi.into()),
                ]),
            ),
            ("faults", Json::obj([("spans", a.fault_spans.into())])),
            (
                "modeled",
                Json::obj([
                    ("bsw_cycles", m.bsw_cycles.into()),
                    ("gactx_cycles", m.gactx_cycles.into()),
                ]),
            ),
        ])
    }

    /// Renders the human-readable table `wga profile report` prints.
    pub fn render_table(&self) -> String {
        let (a, m) = (&self.attr, &self.modeled);
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "trace: schema {}, {} spans, {} pairs, wall {} us",
            self.trace_schema, self.total_spans, a.pairs, a.wall_us
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>12} {:>12} {:>16}",
            "stage", "spans", "total_us", "items", "cells"
        );
        for s in &a.stages {
            if s.spans == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>12} {:>12} {:>16}",
                s.stage, s.spans, s.total_us, s.items, s.cells
            );
        }
        let _ = writeln!(
            out,
            "shares: seed {}  filter {}  extend {}",
            fmt_centi(a.seed_share_centi),
            fmt_centi(a.filter_share_centi),
            fmt_centi(a.extend_share_centi)
        );
        for w in &a.workers {
            let _ = writeln!(
                out,
                "worker tid {:>3}: {:>5} spans, busy {} us, queue-wait {} us, idle {} us",
                w.tid, w.spans, w.busy_us, w.wait_us, w.idle_us
            );
        }
        if let Some(c) = &a.critical {
            let _ = writeln!(
                out,
                "critical path: pair {} — seed {} us + slowest filter batch {} us + extend {} us = {} us",
                c.pair, c.seed_us, c.filter_us, c.extend_us, c.total_us
            );
        }
        if !a.top_filter_batches.is_empty() {
            let _ = writeln!(out, "slowest filter batches:");
            for t in &a.top_filter_batches {
                let _ = writeln!(
                    out,
                    "  pair {:>4} strand {} seq {:>4}: {} us ({} items, {} cells)",
                    t.pair, t.strand, t.seq, t.dur_us, t.items, t.cells
                );
            }
        }
        if !a.top_extend_tiles.is_empty() {
            let _ = writeln!(out, "slowest extension tiles:");
            for t in &a.top_extend_tiles {
                let _ = writeln!(
                    out,
                    "  pair {:>4} strand {} seq {:>4}: {} us ({} tiles, {} cells)",
                    t.pair, t.strand, t.seq, t.dur_us, t.items, t.cells
                );
            }
        }
        if a.fault_spans > 0 {
            let _ = writeln!(out, "faults: {} injected-fault spans", a.fault_spans);
        }
        let _ = writeln!(
            out,
            "modeled on the FPGA: BSW {} cycles for {} tiles, GACT-X {} cycles for {} tiles",
            m.bsw_cycles, m.bsw_tiles, m.gactx_cycles, m.gactx_tiles
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"schema\":2}\n",
        "{\"span\":\"seed\",\"pair\":0,\"strand\":0,\"seq\":0,\"start_us\":0,\"dur_us\":10,\"items\":3,\"cells\":100,\"tid\":1,\"id\":5,\"parent\":0}\n",
        "{\"span\":\"filter.batch\",\"pair\":0,\"strand\":0,\"seq\":0,\"start_us\":10,\"dur_us\":20,\"items\":4,\"cells\":400,\"tid\":1,\"id\":6,\"parent\":0}\n",
        "{\"counter\":\"filter.tiles\",\"value\":4}\n",
        "{\"counter\":\"pairs.done\",\"value\":1}\n",
    );

    #[test]
    fn json_is_byte_stable_and_integer_only() {
        let t = TraceFile::parse(TRACE).unwrap();
        let r1 = ProfileReport::build(&t, 5).to_json();
        let r2 = ProfileReport::build(&TraceFile::parse(TRACE).unwrap(), 5).to_json();
        assert_eq!(r1, r2, "same trace must yield byte-identical reports");
        // Integer-only: no digit.digit anywhere (stage names like
        // "seed.table" legitimately contain dots between letters).
        let bytes = r1.as_bytes();
        for i in 1..bytes.len().saturating_sub(1) {
            if bytes[i] == b'.' {
                assert!(
                    !(bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit()),
                    "float-looking value in report JSON near byte {i}"
                );
            }
        }
        assert!(r1.contains("\"profile_schema\":2"));
        assert!(r1.contains("\"trace_schema\":2"));
        // Valid JSON, and parsed it renders back to the same bytes.
        let doc = wga_core::json::parse(&r1).expect("report is valid JSON");
        assert_eq!(doc.to_lines(), r1);
    }

    #[test]
    fn table_mentions_key_sections() {
        let t = TraceFile::parse(TRACE).unwrap();
        let table = ProfileReport::build(&t, 5).render_table();
        assert!(table.contains("shares:"));
        assert!(table.contains("modeled on the FPGA: BSW"));
        assert!(table.contains("filter.batch"));
    }

    /// Code 3 named the pop of a collector's queue the dataflow executor
    /// no longer has: a trace written before still reads, and its wait
    /// is a wait like any other.
    #[test]
    fn a_retired_queue_code_still_reports() {
        let collector_wait = "{\"span\":\"queue.wait\",\"pair\":0,\"strand\":2,\"seq\":3,\"start_us\":30,\"dur_us\":7,\"items\":0,\"cells\":0,\"tid\":2,\"id\":7,\"parent\":0}\n";
        let t = TraceFile::parse(&format!("{TRACE}{collector_wait}")).unwrap();
        assert_eq!(t.spans.len(), 3);
        let report = ProfileReport::build(&t, 5);
        let waiter = report.attr.workers.iter().find(|w| w.tid == 2);
        assert_eq!(waiter.map(|w| (w.spans, w.wait_us)), Some((1, 7)));
        assert!(report.to_json().contains("\"stage\":\"queue.wait\""));
        assert!(report.render_table().contains("worker tid   2"));
    }

    #[test]
    fn centi_formatting_is_fixed_width_fraction() {
        assert_eq!(fmt_centi(0), "0.00%");
        assert_eq!(fmt_centi(5), "0.05%");
        assert_eq!(fmt_centi(1234), "12.34%");
        assert_eq!(fmt_centi(10_000), "100.00%");
    }
}
