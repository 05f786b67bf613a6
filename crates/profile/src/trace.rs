//! Streaming, schema-validated reader for `--trace-out` JSONL.
//!
//! One pass over the input, each line read by `wga_core::obs`'s own
//! [`TraceLine::from_json`] — the module that writes trace lines is the
//! one that defines them — and folded into [`Span`]s and counters, the
//! same fold a live recorder's [`TraceRecorder::lines`] go through
//! ([`TraceFile::from_lines`]). Validation is strict — every line must
//! be the schema header, a span or a counter, names must come from the
//! observability layer's taxonomy, and integer fields must be present
//! and non-negative — so everything downstream (attribution, the
//! report) can assume a well-formed timeline. The retired lines of
//! older traces, which `from_json` reads as nothing, are skipped.
//!
//! [`TraceRecorder::lines`]: wga_core::obs::TraceRecorder::lines

use crate::ProfileError;
use std::collections::BTreeMap;
use std::io::BufRead;
use wga_core::json;
use wga_core::obs::{Counter, Span, SpanName, TraceLine, TRACE_SCHEMA};

/// A fully parsed and validated trace.
#[derive(Debug)]
pub struct TraceFile {
    /// Schema the trace declared (1 when headerless).
    pub schema: u64,
    /// Every span, in file order (the writer's stable timeline order).
    /// Schema-1 spans carry `tid`/`id`/`parent` 0.
    pub spans: Vec<Span>,
    /// Funnel counters by wire name; known counters missing from the
    /// trace (older schemas) are present with value 0, except
    /// `extend.tiles`, which is present only in traces that carry it.
    pub counters: BTreeMap<String, u64>,
}

impl TraceFile {
    /// Reads and validates a whole trace from `reader`.
    pub fn read<R: BufRead>(reader: R) -> Result<TraceFile, ProfileError> {
        let lines = reader.lines().enumerate().map(|(idx, line)| {
            let lineno = idx + 1;
            let at = |msg: String| ProfileError::at(lineno, msg);
            let line = line.map_err(|e| at(format!("read failed: {e}")))?;
            if line.trim().is_empty() {
                return Ok(None);
            }
            let doc = json::parse(&line).map_err(|e| at(format!("invalid JSON: {e}")))?;
            let line = TraceLine::from_json(&doc).map_err(at)?;
            Ok(line.map(|line| (lineno, line)))
        });
        TraceFile::fold(lines)
    }

    /// The trace of a live recorder's [`TraceRecorder::lines`], folded as
    /// [`TraceFile::read`] folds a file's, with no text in between.
    ///
    /// [`TraceRecorder::lines`]: wga_core::obs::TraceRecorder::lines
    pub fn from_lines(
        lines: impl IntoIterator<Item = TraceLine>,
    ) -> Result<TraceFile, ProfileError> {
        TraceFile::fold((1..).zip(lines).map(|line| Ok(Some(line))))
    }

    /// Folds `(line number, line)`s into spans and counters, validating
    /// their order and names; `None` is a line with nothing to fold.
    fn fold(
        lines: impl Iterator<Item = Result<Option<(usize, TraceLine)>, ProfileError>>,
    ) -> Result<TraceFile, ProfileError> {
        // Traces written while extension still speculated carry a
        // `shard.spec_discard` counter the recorder no longer has; it
        // stays readable (and reads 0 from traces without it).
        let known_counters: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.as_str())
            .chain(["shard.spec_discard"])
            .collect();

        let mut schema: Option<u64> = None;
        // A recorder's lines know their count, a file's do not.
        let mut spans = Vec::with_capacity(lines.size_hint().0);
        // `extend.tiles` is newer than the profile report: its absence is
        // what tells the report's workload to sum `extend.tile` spans.
        let mut counters: BTreeMap<String, u64> = known_counters
            .iter()
            .filter(|c| **c != Counter::ExtensionTiles.as_str())
            .map(|c| (c.to_string(), 0u64))
            .collect();
        let mut seen_counters: BTreeMap<String, ()> = BTreeMap::new();

        for line in lines {
            let Some((lineno, line)) = line? else {
                continue;
            };
            let at = |msg: String| ProfileError::at(lineno, msg);
            match line {
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
            }
        }

        Ok(TraceFile {
            schema: schema.unwrap_or(1),
            spans,
            counters,
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
        assert_eq!(
            t.counter("filter.tiles"),
            0,
            "missing counters default to 0"
        );
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
    fn retired_hwsim_and_hist_lines_are_skipped() {
        let hwsim = r#"{"span":"hwsim.bsw","pair":0,"strand":2,"seq":0,"start_us":9,"dur_us":0,"items":3,"cells":7}"#;
        // Malformed as a histogram, too: a skipped line is not validated.
        let hist = r#"{"hist":"filter.tile_ns","total":5,"buckets":[[5,1],[2,1]]}"#;
        let t = TraceFile::parse(&format!("{MINI}{hwsim}\n{hist}\n")).expect("parses");
        assert_eq!(t.spans.len(), 1);
    }

    /// A recorder's lines fold into the trace its rendered text reads
    /// back as.
    #[test]
    fn recorder_lines_fold_as_their_text_reads() {
        use wga_core::obs::{Obs, TraceRecorder, STRAND_FWD};

        let recorder = TraceRecorder::new();
        let mut buf = Obs::new(&recorder).with_pair(2).buffer();
        for seq in 0..3 {
            let timer = buf.start();
            buf.finish(timer, SpanName::FilterBatch, STRAND_FWD, seq, 4, 40);
        }
        buf.flush();
        let mut text = Vec::new();
        recorder.write_trace(&mut text).expect("written");
        let read = TraceFile::read(&text[..]).expect("parses");
        let folded = TraceFile::from_lines(recorder.lines()).expect("folds");
        assert_eq!(read.spans.len(), 3);
        assert_eq!(
            (read.schema, read.spans, read.counters),
            (folded.schema, folded.spans, folded.counters)
        );
    }

    #[test]
    fn unknown_major_is_rejected() {
        let err = TraceFile::parse("{\"schema\":99}\n").unwrap_err();
        assert!(err.msg.contains("unsupported trace schema 99"), "{err}");
    }

    #[test]
    fn late_schema_header_is_rejected() {
        let input = format!(
            "{}{}",
            MINI.lines()
                .nth(1)
                .map(|l| format!("{l}\n"))
                .unwrap_or_default(),
            "{\"schema\":2}\n"
        );
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
}
