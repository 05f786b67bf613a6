//! Streaming, schema-validated reader for `--trace-out` JSONL.
//!
//! One pass over the input, each line read by `wga_core::obs`'s own
//! [`TraceLine::from_json`] — the module that writes trace lines is the
//! one that defines them — into [`Span`]s, counters and histograms.
//! Validation is strict — every line must be the schema header, a span,
//! a counter or a histogram, names must come from the observability
//! layer's taxonomy, integer fields must be present and non-negative,
//! and histogram buckets must be ascending and sum to their totals — so
//! everything downstream (attribution, drift, the report) can assume a
//! well-formed timeline.

use crate::ProfileError;
use std::collections::BTreeMap;
use std::io::BufRead;
use wga_core::json;
use wga_core::obs::{Counter, HistKind, Log2Histogram, Span, SpanName, TraceLine, TRACE_SCHEMA};

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
    /// Schema-1 spans carry `tid`/`id`/`parent` 0.
    pub spans: Vec<Span>,
    /// Funnel counters by wire name; known counters missing from the
    /// trace (older schemas) are present with value 0.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by kind.
    pub hists: BTreeMap<HistKind, HistRec>,
}

impl TraceFile {
    /// Reads and validates a whole trace from `reader`.
    pub fn read<R: BufRead>(reader: R) -> Result<TraceFile, ProfileError> {
        // Traces written while extension still speculated carry a
        // `shard.spec_discard` counter the recorder no longer has; it
        // stays readable (and reads 0 from traces without it).
        let known_counters: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.as_str())
            .chain(["shard.spec_discard"])
            .collect();

        let mut schema: Option<u64> = None;
        let mut spans = Vec::new();
        let mut counters: BTreeMap<String, u64> = known_counters
            .iter()
            .map(|c| (c.to_string(), 0u64))
            .collect();
        let mut seen_counters: BTreeMap<String, ()> = BTreeMap::new();
        let mut hists: BTreeMap<HistKind, HistRec> = BTreeMap::new();

        for (idx, line) in reader.lines().enumerate() {
            let lineno = idx + 1;
            let at = |msg: String| ProfileError::at(lineno, msg);
            let line = line.map_err(|e| at(format!("read failed: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            let doc = json::parse(&line).map_err(|e| at(format!("invalid JSON: {e}")))?;
            match TraceLine::from_json(&doc).map_err(at)? {
                TraceLine::Schema(declared) => {
                    if lineno != 1 {
                        return Err(at("schema header must be the first line".into()));
                    }
                    if declared == 0 || declared > TRACE_SCHEMA {
                        return Err(at(format!(
                            "unsupported trace schema {declared} (this reader supports 1..={TRACE_SCHEMA})"
                        )));
                    }
                    schema = Some(declared);
                }
                TraceLine::Span(span) => spans.push(span),
                TraceLine::Counter(name, value) => {
                    if !known_counters.contains(&name.as_str()) {
                        return Err(at(format!("unknown counter {name:?}")));
                    }
                    if seen_counters.insert(name.clone(), ()).is_some() {
                        return Err(at(format!("duplicate counter line {name:?}")));
                    }
                    counters.insert(name, value);
                }
                TraceLine::Hist(kind, total, buckets) => {
                    if hists.contains_key(&kind) {
                        return Err(at(format!("duplicate histogram line {:?}", kind.as_str())));
                    }
                    let hist = Log2Histogram::new();
                    let mut sum = 0u64;
                    let mut last: Option<usize> = None;
                    for &(bucket, count) in &buckets {
                        if count == 0 {
                            return Err(at("empty buckets must be omitted".into()));
                        }
                        if last.is_some_and(|l| bucket <= l) {
                            return Err(at("buckets not strictly ascending".into()));
                        }
                        last = Some(bucket);
                        sum = sum.saturating_add(count);
                        hist.record_bucket(bucket, count);
                    }
                    if sum != total {
                        return Err(at(format!("bucket counts sum to {sum}, total says {total}")));
                    }
                    hists.insert(kind, HistRec { total, buckets, hist });
                }
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

    /// Every span with the given name, in file order.
    pub fn spans_named(&self, name: SpanName) -> impl Iterator<Item = &Span> {
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
        assert_eq!(t.hists[&HistKind::FilterTileNs].total, 3);
        assert_eq!(t.hists[&HistKind::FilterTileNs].hist.percentile_bucket(1000), Some(5));
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
