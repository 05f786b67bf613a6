//! The `profile_report.json` artifact and its human rendering.
//!
//! The JSON is one `wga_core::json` object, one top-level member a line,
//! with a fixed field order and integer-only values (shares and drift
//! are centi-percent, durations are microseconds, cycles are cycles), so
//! the same trace always produces byte-identical output — that is what
//! lets CI diff reports across commits. The human table is a rendering
//! of the same numbers.

use crate::analyze::{Attribution, TopSpan};
use crate::drift::{Drift, DriftStage};
use crate::trace::TraceFile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wga_core::json::Json;

/// Version of the report layout itself (bump on field changes).
pub const PROFILE_SCHEMA: u64 = 1;

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
    /// Modeled-vs-measured drift scores.
    pub drift: Drift,
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

fn drift_json(s: &DriftStage) -> Json {
    Json::obj([
        ("present", u64::from(s.present).into()),
        ("recorded_cycles", s.recorded_cycles.into()),
        ("replayed_cycles", s.replayed_cycles.into()),
        ("drift_centi", s.drift_centi.into()),
    ])
}

impl ProfileReport {
    /// Builds the report for `trace`, keeping `top_k` entries in the
    /// slowest-span listings.
    pub fn build(trace: &TraceFile, top_k: usize) -> ProfileReport {
        ProfileReport {
            trace_schema: trace.schema,
            total_spans: trace.spans.len() as u64,
            counters: trace.counters.clone(),
            attr: Attribution::compute(trace, top_k),
            drift: Drift::compute(trace),
        }
    }

    /// Serialises the report: fixed field order, integers only, one
    /// top-level member per line. Byte-identical for identical traces.
    pub fn to_json(&self) -> String {
        let a = &self.attr;
        let d = &self.drift;
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
            ("workload", (&d.workload).into()),
            (
                "counters",
                Json::Obj(self.counters.iter().map(|(name, &v)| (name.clone(), v.into())).collect()),
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
                "drift",
                Json::obj([
                    ("bsw", drift_json(&d.bsw)),
                    ("gactx", drift_json(&d.gactx)),
                    ("filter_time_offmedian_centi", d.filter_time_offmedian_centi.into()),
                    ("filter_cells_offmedian_centi", d.filter_cells_offmedian_centi.into()),
                ]),
            ),
        ])
        .to_lines()
    }

    /// Renders the human-readable table `wga profile report` prints.
    pub fn render_table(&self) -> String {
        let a = &self.attr;
        let d = &self.drift;
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
        let _ = writeln!(
            out,
            "speculation: {} discarded vs {} committed extensions ({} of extension work)",
            a.spec_discard,
            a.extended_tiles,
            fmt_centi(a.discard_centi)
        );
        if a.fault_spans > 0 {
            let _ = writeln!(out, "faults: {} injected-fault spans", a.fault_spans);
        }
        for (name, s) in [("bsw", &d.bsw), ("gactx", &d.gactx)] {
            if s.present {
                let _ = writeln!(
                    out,
                    "drift {name}: recorded {} cycles, replayed {} cycles — {}",
                    s.recorded_cycles,
                    s.replayed_cycles,
                    fmt_centi(s.drift_centi)
                );
            } else {
                let _ = writeln!(out, "drift {name}: no hwsim span in trace");
            }
        }
        let _ = writeln!(
            out,
            "filter shape: off-median time {}  off-median cells {}",
            fmt_centi(d.filter_time_offmedian_centi),
            fmt_centi(d.filter_cells_offmedian_centi)
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
        assert!(r1.contains("\"profile_schema\":1"));
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
        assert!(table.contains("drift bsw: no hwsim span in trace"));
        assert!(table.contains("filter.batch"));
    }

    #[test]
    fn centi_formatting_is_fixed_width_fraction() {
        assert_eq!(fmt_centi(0), "0.00%");
        assert_eq!(fmt_centi(5), "0.05%");
        assert_eq!(fmt_centi(1234), "12.34%");
        assert_eq!(fmt_centi(10_000), "100.00%");
    }
}
