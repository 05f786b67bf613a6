//! Streaming, schema-validated reader for `--trace-out` JSONL.
//!
//! One pass over the input, one [`SpanRec`] per span line; counter and
//! histogram lines land in sorted maps. Validation is strict — every
//! line must be the schema header, a span, a counter or a histogram,
//! names must come from the observability layer's taxonomy, integer
//! fields must be present and non-negative, and histogram buckets must
//! be ascending and sum to their totals — so everything downstream
//! (attribution, drift, the report) can assume a well-formed timeline.

use crate::ProfileError;
use std::collections::BTreeMap;
use std::io::BufRead;
use wga_core::journal::json::{self, Json};
use wga_core::obs::{Counter, HistKind, Log2Histogram, SpanName, TRACE_SCHEMA};

/// One span line of the trace. Mirrors `wga_core::obs::Span` with the
/// name as a string and the schema-2 fields defaulted for schema-1
/// traces (`tid`/`id`/`parent` = 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Wire name (`seed`, `filter.batch`, `extend.tile`, …).
    pub name: String,
    /// Pair id, `u64::MAX` for pairless spans.
    pub pair: u64,
    /// Strand code (0 fwd, 1 rev, 2 n/a).
    pub strand: u8,
    /// Sibling sequence number (batch index, anchor index, queue code…).
    pub seq: u64,
    /// Microseconds since the observation epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Work items covered.
    pub items: u64,
    /// DP cells covered (or modeled cycles for `hwsim.*` spans).
    pub cells: u64,
    /// Recording worker thread (schema 2; 0 in schema 1).
    pub tid: u64,
    /// Process-unique span id (schema 2; 0 in schema 1).
    pub id: u64,
    /// Enclosing span id, 0 for top-level spans.
    pub parent: u64,
}

impl SpanRec {
    /// End of the span on the trace clock.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// One parsed histogram line: total plus the sparse ascending buckets,
/// also materialised as a [`Log2Histogram`] for percentile queries.
#[derive(Debug)]
pub struct HistRec {
    /// Declared sample total (equals the bucket sum — validated).
    pub total: u64,
    /// Sparse `(bucket, count)` pairs, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// The same distribution as a queryable histogram.
    pub hist: Log2Histogram,
}

/// A fully parsed and validated trace.
#[derive(Debug)]
pub struct TraceFile {
    /// Schema the trace declared (1 when headerless).
    pub schema: u64,
    /// Every span, in file order (the writer's stable timeline order).
    pub spans: Vec<SpanRec>,
    /// Funnel counters by wire name; known counters missing from the
    /// trace (older schemas) are present with value 0.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by wire name.
    pub hists: BTreeMap<String, HistRec>,
}

fn req_int(doc: &Json, key: &str, line: usize) -> Result<u64, ProfileError> {
    let v = doc
        .get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| ProfileError::at(line, format!("missing integer field {key:?}")))?;
    u64::try_from(v).map_err(|_| ProfileError::at(line, format!("field {key:?} out of range: {v}")))
}

fn opt_int(doc: &Json, key: &str, line: usize) -> Result<u64, ProfileError> {
    match doc.get(key) {
        None => Ok(0),
        Some(v) => {
            let v = v
                .as_int()
                .ok_or_else(|| ProfileError::at(line, format!("field {key:?} is not an integer")))?;
            u64::try_from(v)
                .map_err(|_| ProfileError::at(line, format!("field {key:?} out of range: {v}")))
        }
    }
}

impl TraceFile {
    /// Reads and validates a whole trace from `reader`.
    pub fn read<R: BufRead>(reader: R) -> Result<TraceFile, ProfileError> {
        let known_spans: Vec<&str> = SpanName::ALL.iter().map(|n| n.as_str()).collect();
        // Traces written while extension still speculated carry a
        // `shard.spec_discard` counter the recorder no longer has; it
        // stays readable (and reads 0 from traces without it).
        let known_counters: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.as_str())
            .chain(["shard.spec_discard"])
            .collect();
        let known_hists: Vec<&str> = HistKind::ALL.iter().map(|h| h.as_str()).collect();

        let mut schema: Option<u64> = None;
        let mut spans = Vec::new();
        let mut counters: BTreeMap<String, u64> = known_counters
            .iter()
            .map(|c| (c.to_string(), 0u64))
            .collect();
        let mut seen_counters: BTreeMap<String, ()> = BTreeMap::new();
        let mut hists: BTreeMap<String, HistRec> = BTreeMap::new();

        for (idx, line) in reader.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.map_err(|e| ProfileError::at(lineno, format!("read failed: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            let doc = json::parse(&line)
                .map_err(|e| ProfileError::at(lineno, format!("invalid JSON: {e}")))?;

            if let Some(v) = doc.get("schema") {
                if lineno != 1 {
                    return Err(ProfileError::at(lineno, "schema header must be the first line"));
                }
                let declared = v
                    .as_int()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| ProfileError::at(lineno, "schema version is not an integer"))?;
                if declared == 0 || declared > TRACE_SCHEMA {
                    return Err(ProfileError::at(
                        lineno,
                        format!(
                            "unsupported trace schema {declared} (this reader supports 1..={TRACE_SCHEMA})"
                        ),
                    ));
                }
                schema = Some(declared);
            } else if let Some(name) = doc.get("span").and_then(Json::as_str) {
                if !known_spans.contains(&name) {
                    return Err(ProfileError::at(lineno, format!("unknown span name {name:?}")));
                }
                let strand = req_int(&doc, "strand", lineno)?;
                if strand > 2 {
                    return Err(ProfileError::at(lineno, format!("strand code out of range: {strand}")));
                }
                spans.push(SpanRec {
                    name: name.to_string(),
                    pair: req_int(&doc, "pair", lineno)?,
                    strand: strand as u8,
                    seq: req_int(&doc, "seq", lineno)?,
                    start_us: req_int(&doc, "start_us", lineno)?,
                    dur_us: req_int(&doc, "dur_us", lineno)?,
                    items: req_int(&doc, "items", lineno)?,
                    cells: req_int(&doc, "cells", lineno)?,
                    tid: opt_int(&doc, "tid", lineno)?,
                    id: opt_int(&doc, "id", lineno)?,
                    parent: opt_int(&doc, "parent", lineno)?,
                });
            } else if let Some(name) = doc.get("counter").and_then(Json::as_str) {
                if !known_counters.contains(&name) {
                    return Err(ProfileError::at(lineno, format!("unknown counter {name:?}")));
                }
                if seen_counters.insert(name.to_string(), ()).is_some() {
                    return Err(ProfileError::at(lineno, format!("duplicate counter line {name:?}")));
                }
                let value = req_int(&doc, "value", lineno)?;
                counters.insert(name.to_string(), value);
            } else if let Some(name) = doc.get("hist").and_then(Json::as_str) {
                if !known_hists.contains(&name) {
                    return Err(ProfileError::at(lineno, format!("unknown histogram {name:?}")));
                }
                if hists.contains_key(name) {
                    return Err(ProfileError::at(lineno, format!("duplicate histogram line {name:?}")));
                }
                let total = req_int(&doc, "total", lineno)?;
                let entries = doc
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProfileError::at(lineno, "histogram without buckets array"))?;
                let mut buckets = Vec::with_capacity(entries.len());
                let hist = Log2Histogram::new();
                let mut sum = 0u64;
                let mut last: Option<usize> = None;
                for entry in entries {
                    let pair = entry
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| ProfileError::at(lineno, "bucket entry is not [index, count]"))?;
                    let bucket = pair
                        .first()
                        .and_then(Json::as_int)
                        .and_then(|v| usize::try_from(v).ok())
                        .ok_or_else(|| ProfileError::at(lineno, "bucket index is not an integer"))?;
                    let count = pair
                        .get(1)
                        .and_then(Json::as_int)
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| ProfileError::at(lineno, "bucket count is not an integer"))?;
                    if count == 0 {
                        return Err(ProfileError::at(lineno, "empty buckets must be omitted"));
                    }
                    if last.is_some_and(|l| bucket <= l) {
                        return Err(ProfileError::at(lineno, "buckets not strictly ascending"));
                    }
                    last = Some(bucket);
                    sum = sum.saturating_add(count);
                    hist.record_bucket(bucket, count);
                    buckets.push((bucket, count));
                }
                if sum != total {
                    return Err(ProfileError::at(
                        lineno,
                        format!("bucket counts sum to {sum}, total says {total}"),
                    ));
                }
                hists.insert(name.to_string(), HistRec { total, buckets, hist });
            } else {
                return Err(ProfileError::at(
                    lineno,
                    "line is neither a schema header, a span, a counter, nor a histogram",
                ));
            }
        }

        Ok(TraceFile {
            schema: schema.unwrap_or(1),
            spans,
            counters,
            hists,
        })
    }

    /// Parses a trace held in memory.
    pub fn parse(text: &str) -> Result<TraceFile, ProfileError> {
        TraceFile::read(text.as_bytes())
    }

    /// Counter value by wire name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every span with the given wire name, in file order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"{"schema":2}
{"span":"seed","pair":0,"strand":0,"seq":0,"start_us":10,"dur_us":5,"items":3,"cells":40,"tid":1,"id":1099511627777,"parent":0}
{"counter":"pairs.done","value":1}
{"hist":"filter.tile_ns","total":3,"buckets":[[2,1],[5,2]]}
"#;

    #[test]
    fn parses_schema_2_lines() {
        let t = TraceFile::parse(MINI).expect("parses");
        assert_eq!(t.schema, 2);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].cells, 40);
        assert_eq!(t.spans[0].tid, 1);
        assert_eq!(t.counter("pairs.done"), 1);
        assert_eq!(t.counter("filter.tiles"), 0, "missing counters default to 0");
        assert_eq!(t.hists["filter.tile_ns"].total, 3);
        assert_eq!(t.hists["filter.tile_ns"].hist.percentile_bucket(1000), Some(5));
    }

    #[test]
    fn headerless_trace_is_schema_1() {
        let body = MINI.lines().skip(1).collect::<Vec<_>>().join("\n");
        let t = TraceFile::parse(&body).expect("parses");
        assert_eq!(t.schema, 1);
    }

    #[test]
    fn schema_1_spans_default_new_fields() {
        let t = TraceFile::parse(
            r#"{"span":"seed","pair":0,"strand":0,"seq":0,"start_us":1,"dur_us":2,"items":3,"cells":4}"#,
        )
        .expect("parses");
        assert_eq!(t.spans[0].tid, 0);
        assert_eq!(t.spans[0].id, 0);
        assert_eq!(t.spans[0].parent, 0);
    }

    #[test]
    fn unknown_major_is_rejected() {
        let err = TraceFile::parse("{\"schema\":99}\n").unwrap_err();
        assert!(err.msg.contains("unsupported trace schema 99"), "{err}");
    }

    #[test]
    fn late_schema_header_is_rejected() {
        let input = format!("{}{}", MINI.lines().nth(1).map(|l| format!("{l}\n")).unwrap_or_default(), "{\"schema\":2}\n");
        let err = TraceFile::parse(&input).unwrap_err();
        assert!(err.msg.contains("first line"), "{err}");
    }

    #[test]
    fn junk_lines_are_rejected() {
        assert!(TraceFile::parse("{\"other\":1}\n").is_err());
        assert!(TraceFile::parse("not json\n").is_err());
        let err = TraceFile::parse(
            r#"{"span":"bogus","pair":0,"strand":0,"seq":0,"start_us":1,"dur_us":2,"items":3,"cells":4}"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown span name"), "{err}");
    }

    #[test]
    fn bad_histograms_are_rejected() {
        let descending = r#"{"hist":"filter.tile_ns","total":2,"buckets":[[5,1],[2,1]]}"#;
        assert!(TraceFile::parse(descending).is_err());
        let bad_total = r#"{"hist":"filter.tile_ns","total":5,"buckets":[[2,1]]}"#;
        assert!(TraceFile::parse(bad_total).is_err());
    }
}
