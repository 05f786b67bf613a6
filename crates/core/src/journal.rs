//! Checkpoint journal for assembly-scale runs.
//!
//! Every chromosome pair of a genome-vs-genome run is an independent
//! LASTZ-style invocation (§V-B), so hours of completed work must not be
//! lost to one late crash. The journal is a JSON-lines file: a header
//! record binding the journal to the run's parameters, then one record
//! per *completed* chromosome pair (alignments, workload, timings,
//! outcome), each fsync'd before the pair is considered durable. On
//! resume, [`crate::genome_pipeline::align_assemblies_with`] replays the
//! journaled pairs and recomputes only the rest, producing a report
//! identical to an uninterrupted run.
//!
//! The encoding is a self-contained JSON subset (objects, arrays,
//! strings, integers) written and parsed by this module — the workspace
//! deliberately has no JSON dependency. Since format version 2 every
//! record carries a trailing CRC32C over its own bytes, so bit rot is
//! detected rather than silently decoded; version-1 journals (no CRC)
//! still decode. Damage is tolerated, not fatal: a torn final line
//! (crash mid-append) is dropped, a corrupt *interior* record is
//! skipped — its pair simply re-runs on resume — and both are counted
//! in [`JournalStats`]. Only a header mismatch (wrong format, wrong
//! parameter fingerprint) aborts the resume.

use crate::config::WgaParams;
use crate::error::{WgaError, WgaResult};
use crate::report::{
    BudgetKind, FunnelCounters, RunEvent, RunOutcome, StageKind, StageTimings, Strand, WgaAlignment,
};
use align::{AlignOp, Alignment, Cigar};
use hwsim::Workload;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Journal format marker.
const FORMAT: &str = "wga-journal";
/// Journal format version written to new headers (2 = CRC'd records).
const VERSION: i128 = 2;

/// CRC32C (Castagnoli) lookup table, built at compile time. The
/// reflected polynomial matches the SSE4.2 `crc32` instruction and the
/// iSCSI/ext4 convention, so journals are checkable with standard
/// tooling.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i as usize] = crc;
        i += 1;
    }
    table
};

/// CRC32C (Castagnoli) of `bytes` — the per-record checksum appended to
/// every journal line since format version 2. Table-driven and
/// integer-only.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// What recovery found in an existing journal, surfaced at resume time
/// (and in the assembly report) so damage is visible without being
/// fatal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Pair records successfully recovered.
    pub records_recovered: u64,
    /// Interior records dropped for failing to parse or failing their
    /// CRC check; their pairs re-run on resume.
    pub corrupt_records_skipped: u64,
    /// Whether a torn final line (crash mid-append) was dropped.
    pub torn_tail_dropped: bool,
}

/// One completed chromosome pair as stored in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRecord {
    /// Target chromosome name.
    pub target_chrom: String,
    /// Query chromosome name.
    pub query_chrom: String,
    /// Completed or degraded (failed pairs are *not* journaled, so a
    /// resume retries them).
    pub outcome: RunOutcome,
    /// The pair's workload counters.
    pub workload: Workload,
    /// The pair's stage timings (microsecond granularity).
    pub timings: StageTimings,
    /// The pair's funnel counters. Records written before this field
    /// existed decode as all-zero counters.
    pub counters: FunnelCounters,
    /// The pair's alignments, best score first.
    pub alignments: Vec<WgaAlignment>,
}

impl PairRecord {
    /// The record of a pair that produced nothing. Never journaled (a
    /// rerun retries the pair); it is what the run's report folds in.
    pub(crate) fn failed(target_chrom: &str, query_chrom: &str, error: String) -> PairRecord {
        PairRecord {
            target_chrom: target_chrom.to_string(),
            query_chrom: query_chrom.to_string(),
            outcome: RunOutcome::Failed { error },
            workload: Workload::default(),
            timings: StageTimings::default(),
            counters: FunnelCounters::default(),
            alignments: Vec::new(),
        }
    }
}

/// Fingerprint of a parameter set, stored in the journal header so a
/// resume with different parameters is rejected instead of silently
/// mixing results. FNV-1a over the canonical debug rendering.
pub fn params_fingerprint(params: &WgaParams) -> String {
    let repr = format!("{params:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in repr.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// An open checkpoint journal: the records recovered from disk plus an
/// append handle for new completions.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    recovered: HashMap<(String, String), PairRecord>,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) a journal at `path` for a run with the given
    /// parameter fingerprint, recovering previously completed pairs.
    ///
    /// Damaged records are tolerated: a torn final line (crash
    /// mid-append) is dropped, and a corrupt interior record — bad
    /// JSON or a CRC mismatch — is skipped so its pair re-runs. Both
    /// are counted in [`Journal::stats`] and pruned from the file so
    /// the damage does not accumulate across resumes.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] on filesystem failure; [`WgaError::Checkpoint`]
    /// when the journal belongs to a run with different parameters or
    /// is not a wga journal at all.
    pub fn open(path: &Path, fingerprint: &str) -> WgaResult<Journal> {
        let display = path.display().to_string();
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(WgaError::io(&display, e)),
        };

        let mut recovered = HashMap::new();
        let mut stats = JournalStats::default();
        let mut needs_header = true;
        let mut rewrite: Option<String> = None;
        if let Some(text) = existing {
            let lines: Vec<&str> = text.lines().collect();
            let mut nonempty = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.trim().is_empty());
            if let Some((header_no, header)) = nonempty.next() {
                needs_header = false;
                check_header(header, fingerprint)
                    .map_err(|m| WgaError::checkpoint(&display, format!("line {}: {m}", header_no + 1)))?;
                let rest: Vec<(usize, &&str)> = nonempty.collect();
                let last_idx = rest.len().saturating_sub(1);
                let mut kept: Vec<&str> = vec![*header];
                let mut dropped_any = false;
                for (i, (line_no, line)) in rest.iter().enumerate() {
                    match decode_record(line) {
                        Ok(rec) => {
                            kept.push(**line);
                            recovered.insert(
                                (rec.target_chrom.clone(), rec.query_chrom.clone()),
                                rec,
                            );
                        }
                        // A torn final line is the signature of a crash
                        // mid-append: recover everything before it.
                        Err(_) if i == last_idx => {
                            stats.torn_tail_dropped = true;
                            dropped_any = true;
                        }
                        // A corrupt interior record is damage, not a
                        // crash artifact — skip it (the pair re-runs)
                        // and count it instead of aborting the resume.
                        Err(m) => {
                            eprintln!(
                                "[wga] warning: {display}: line {}: \
                                 skipping corrupt journal record ({m})",
                                line_no + 1
                            );
                            stats.corrupt_records_skipped += 1;
                            dropped_any = true;
                        }
                    }
                }
                // The file still contains the dropped bytes; appending
                // after a torn tail would corrupt the next record, so
                // shrink the journal back to its valid lines (in
                // original record order) before reopening for append.
                if dropped_any {
                    let mut content = String::with_capacity(text.len());
                    for line in kept {
                        content.push_str(line);
                        content.push('\n');
                    }
                    rewrite = Some(content);
                }
            }
        }
        stats.records_recovered = recovered.len() as u64;
        if let Some(content) = &rewrite {
            std::fs::write(path, content).map_err(|e| WgaError::io(&display, e))?;
        }

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| WgaError::io(&display, e))?;
        if needs_header {
            let mut line = String::new();
            line.push_str("{\"format\":");
            push_str_json(&mut line, FORMAT);
            line.push_str(",\"version\":");
            line.push_str(&VERSION.to_string());
            line.push_str(",\"params_fingerprint\":");
            push_str_json(&mut line, fingerprint);
            line.push_str("}\n");
            file.write_all(line.as_bytes())
                .and_then(|()| file.sync_data())
                .map_err(|e| WgaError::io(&display, e))?;
        }

        Ok(Journal {
            path: path.to_path_buf(),
            file,
            recovered,
            stats,
        })
    }

    /// What recovery found at open time: records kept, corrupt records
    /// skipped, torn tail dropped.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Removes and returns the recovered record for one chromosome pair,
    /// if the journal has it.
    pub fn take(&mut self, target_chrom: &str, query_chrom: &str) -> Option<PairRecord> {
        self.recovered
            .remove(&(target_chrom.to_string(), query_chrom.to_string()))
    }

    /// Appends one completed pair and syncs it to disk before returning,
    /// so a crash after `append` never loses the pair.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] when the write or fsync fails.
    pub fn append(&mut self, record: &PairRecord) -> WgaResult<()> {
        let line = encode_record(record);
        let display = self.path.display().to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| WgaError::io(display, e))
    }
}

fn check_header(line: &str, fingerprint: &str) -> Result<(), String> {
    let value = json::parse(line)?;
    match value.get("format").and_then(json::Json::as_str) {
        Some(FORMAT) => {}
        _ => return Err("not a wga journal".into()),
    }
    match value.get("version").and_then(json::Json::as_int) {
        // Version 1 journals predate per-record CRCs; their records
        // simply skip the CRC check.
        Some(1 | VERSION) => {}
        Some(v) => return Err(format!("unsupported journal version {v}")),
        None => return Err("missing journal version".into()),
    }
    match value.get("params_fingerprint").and_then(json::Json::as_str) {
        Some(f) if f == fingerprint => Ok(()),
        Some(_) => Err(
            "journal was written with different parameters; delete it or rerun with the \
             original configuration"
                .into(),
        ),
        None => Err("missing parameter fingerprint".into()),
    }
}

// --- Encoding -----------------------------------------------------------

fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field(out: &mut String, key: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_str_json(out, key);
    out.push(':');
}

fn encode_workload(out: &mut String, w: &Workload) {
    out.push_str(&format!(
        "{{\"seeds\":{},\"filter_tiles\":{},\"extension_tiles\":{},\"extension_cells\":{},\"extension_rows\":{}}}",
        w.seeds, w.filter_tiles, w.extension_tiles, w.extension_cells, w.extension_rows
    ));
}

fn encode_timings(out: &mut String, t: &StageTimings) {
    out.push_str(&format!(
        "{{\"seeding\":{},\"filtering\":{},\"extension\":{}}}",
        t.seeding.as_micros(),
        t.filtering.as_micros(),
        t.extension.as_micros()
    ));
}

fn encode_counters(out: &mut String, c: &FunnelCounters) {
    out.push_str(&format!(
        "{{\"raw_seed_hits\":{},\"filter_cells\":{},\"anchors_passed\":{},\"anchors_absorbed\":{},\"alignments_kept\":{},\"faults_injected\":{},\"retries\":{},\"stalls_detected\":{}}}",
        c.raw_seed_hits, c.filter_cells, c.anchors_passed, c.anchors_absorbed, c.alignments_kept,
        c.faults_injected, c.retries, c.stalls_detected
    ));
}

fn budget_kind_name(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::SeedHits => "seed_hits",
        BudgetKind::FilterTiles => "filter_tiles",
        BudgetKind::ExtensionCells => "extension_cells",
        BudgetKind::Deadline => "deadline",
    }
}

fn stage_kind_name(stage: StageKind) -> &'static str {
    match stage {
        StageKind::Seeding => "seeding",
        StageKind::Filtering => "filtering",
        StageKind::Extension => "extension",
    }
}

fn encode_event(out: &mut String, event: &RunEvent) {
    match event {
        RunEvent::BudgetExceeded {
            budget,
            stage,
            limit,
            observed,
        } => {
            out.push_str(&format!(
                "{{\"type\":\"budget\",\"budget\":\"{}\",\"stage\":\"{}\",\"limit\":{limit},\"observed\":{observed}}}",
                budget_kind_name(*budget),
                stage_kind_name(*stage)
            ));
        }
        RunEvent::BatchFailed {
            stage,
            batch,
            items,
            message,
        } => {
            out.push_str(&format!(
                "{{\"type\":\"batch_failed\",\"stage\":\"{}\",\"batch\":{batch},\"items\":{items},\"message\":",
                stage_kind_name(*stage)
            ));
            push_str_json(out, message);
            out.push('}');
        }
    }
}

fn encode_outcome(out: &mut String, outcome: &RunOutcome) {
    match outcome {
        RunOutcome::Completed => out.push_str("{\"status\":\"completed\"}"),
        RunOutcome::Degraded { events } => {
            out.push_str("{\"status\":\"degraded\",\"events\":[");
            for (i, event) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_event(out, event);
            }
            out.push_str("]}");
        }
        RunOutcome::Failed { error } => {
            out.push_str("{\"status\":\"failed\",\"error\":");
            push_str_json(out, error);
            out.push('}');
        }
    }
}

fn encode_alignment(out: &mut String, wa: &WgaAlignment) {
    let a = &wa.alignment;
    out.push_str(&format!(
        "{{\"t\":{},\"q\":{},\"score\":{},\"strand\":\"{}\",\"cigar\":",
        a.target_start,
        a.query_start,
        a.score,
        match wa.strand {
            Strand::Forward => '+',
            Strand::Reverse => '-',
        }
    ));
    push_str_json(out, &a.cigar.to_string());
    out.push('}');
}

fn encode_record(record: &PairRecord) -> String {
    let mut out = String::with_capacity(256 + record.alignments.len() * 48);
    out.push('{');
    let mut first = true;
    push_field(&mut out, "target_chrom", &mut first);
    push_str_json(&mut out, &record.target_chrom);
    push_field(&mut out, "query_chrom", &mut first);
    push_str_json(&mut out, &record.query_chrom);
    push_field(&mut out, "outcome", &mut first);
    encode_outcome(&mut out, &record.outcome);
    push_field(&mut out, "workload", &mut first);
    encode_workload(&mut out, &record.workload);
    push_field(&mut out, "timings_us", &mut first);
    encode_timings(&mut out, &record.timings);
    push_field(&mut out, "counters", &mut first);
    encode_counters(&mut out, &record.counters);
    push_field(&mut out, "alignments", &mut first);
    out.push('[');
    for (i, wa) in record.alignments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_alignment(&mut out, wa);
    }
    out.push(']');
    out.push('}');
    // Self-checksum: CRC32C over the record *without* the crc field,
    // appended as the final member. decode strips the suffix, restores
    // the '}' and recomputes.
    let crc = crc32c(out.as_bytes());
    out.pop();
    out.push_str(&format!(",\"crc\":{crc}}}\n"));
    out
}

// --- Decoding -----------------------------------------------------------

fn field<'j>(obj: &'j json::Json, key: &str) -> Result<&'j json::Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field(obj: &json::Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn u64_field(obj: &json::Json, key: &str) -> Result<u64, String> {
    let n = field(obj, key)?
        .as_int()
        .ok_or_else(|| format!("field {key:?} is not an integer"))?;
    u64::try_from(n).map_err(|_| format!("field {key:?} out of range"))
}

fn i64_field(obj: &json::Json, key: &str) -> Result<i64, String> {
    let n = field(obj, key)?
        .as_int()
        .ok_or_else(|| format!("field {key:?} is not an integer"))?;
    i64::try_from(n).map_err(|_| format!("field {key:?} out of range"))
}

fn decode_budget_kind(name: &str) -> Result<BudgetKind, String> {
    match name {
        "seed_hits" => Ok(BudgetKind::SeedHits),
        "filter_tiles" => Ok(BudgetKind::FilterTiles),
        "extension_cells" => Ok(BudgetKind::ExtensionCells),
        "deadline" => Ok(BudgetKind::Deadline),
        other => Err(format!("unknown budget kind {other:?}")),
    }
}

fn decode_stage_kind(name: &str) -> Result<StageKind, String> {
    match name {
        "seeding" => Ok(StageKind::Seeding),
        "filtering" => Ok(StageKind::Filtering),
        "extension" => Ok(StageKind::Extension),
        other => Err(format!("unknown stage kind {other:?}")),
    }
}

fn decode_event(value: &json::Json) -> Result<RunEvent, String> {
    match str_field(value, "type")?.as_str() {
        "budget" => Ok(RunEvent::BudgetExceeded {
            budget: decode_budget_kind(&str_field(value, "budget")?)?,
            stage: decode_stage_kind(&str_field(value, "stage")?)?,
            limit: u64_field(value, "limit")?,
            observed: u64_field(value, "observed")?,
        }),
        "batch_failed" => Ok(RunEvent::BatchFailed {
            stage: decode_stage_kind(&str_field(value, "stage")?)?,
            batch: u64_field(value, "batch")? as usize,
            items: u64_field(value, "items")?,
            message: str_field(value, "message")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

fn decode_outcome(value: &json::Json) -> Result<RunOutcome, String> {
    match str_field(value, "status")?.as_str() {
        "completed" => Ok(RunOutcome::Completed),
        "degraded" => {
            let events = field(value, "events")?
                .as_arr()
                .ok_or("events is not an array")?
                .iter()
                .map(decode_event)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RunOutcome::Degraded { events })
        }
        "failed" => Ok(RunOutcome::Failed {
            error: str_field(value, "error")?,
        }),
        other => Err(format!("unknown outcome status {other:?}")),
    }
}

fn decode_cigar(text: &str) -> Result<Cigar, String> {
    let mut cigar = Cigar::new();
    if text == "*" {
        return Ok(cigar);
    }
    let mut count: u64 = 0;
    let mut saw_digit = false;
    for c in text.chars() {
        match c {
            '0'..='9' => {
                saw_digit = true;
                count = count * 10 + (c as u64 - '0' as u64);
                if count > u32::MAX as u64 {
                    return Err("cigar run length out of range".into());
                }
            }
            '=' | 'X' | 'I' | 'D' => {
                if !saw_digit {
                    return Err(format!("cigar op {c:?} without a run length"));
                }
                let op = match c {
                    '=' => AlignOp::Match,
                    'X' => AlignOp::Subst,
                    'I' => AlignOp::Insert,
                    _ => AlignOp::Delete,
                };
                cigar.push(op, count as u32);
                count = 0;
                saw_digit = false;
            }
            other => return Err(format!("unexpected cigar character {other:?}")),
        }
    }
    if saw_digit {
        return Err("cigar ends mid-run".into());
    }
    Ok(cigar)
}

fn decode_alignment(value: &json::Json) -> Result<WgaAlignment, String> {
    let target_start = u64_field(value, "t")? as usize;
    let query_start = u64_field(value, "q")? as usize;
    let score = i64_field(value, "score")?;
    let strand = match str_field(value, "strand")?.as_str() {
        "+" => Strand::Forward,
        "-" => Strand::Reverse,
        other => return Err(format!("unknown strand {other:?}")),
    };
    let cigar = decode_cigar(&str_field(value, "cigar")?)?;
    Ok(WgaAlignment {
        alignment: Alignment::new(target_start, query_start, cigar, score),
        strand,
    })
}

fn decode_workload(value: &json::Json) -> Result<Workload, String> {
    Ok(Workload {
        seeds: u64_field(value, "seeds")?,
        filter_tiles: u64_field(value, "filter_tiles")?,
        extension_tiles: u64_field(value, "extension_tiles")?,
        extension_cells: u64_field(value, "extension_cells")?,
        extension_rows: u64_field(value, "extension_rows")?,
    })
}

/// Decodes the funnel counters. Tolerant on two axes so old journals
/// stay readable: a missing `counters` object (records predating the
/// field) and missing individual keys (counters added later) both decode
/// as zero.
fn decode_counters(value: Option<&json::Json>) -> Result<FunnelCounters, String> {
    let Some(value) = value else {
        return Ok(FunnelCounters::default());
    };
    let opt = |key: &str| -> Result<u64, String> {
        match value.get(key) {
            None => Ok(0),
            Some(v) => {
                let n = v
                    .as_int()
                    .ok_or_else(|| format!("field {key:?} is not an integer"))?;
                u64::try_from(n).map_err(|_| format!("field {key:?} out of range"))
            }
        }
    };
    Ok(FunnelCounters {
        raw_seed_hits: opt("raw_seed_hits")?,
        filter_cells: opt("filter_cells")?,
        anchors_passed: opt("anchors_passed")?,
        anchors_absorbed: opt("anchors_absorbed")?,
        alignments_kept: opt("alignments_kept")?,
        faults_injected: opt("faults_injected")?,
        retries: opt("retries")?,
        stalls_detected: opt("stalls_detected")?,
    })
}

fn decode_timings(value: &json::Json) -> Result<StageTimings, String> {
    Ok(StageTimings {
        seeding: Duration::from_micros(u64_field(value, "seeding")?),
        filtering: Duration::from_micros(u64_field(value, "filtering")?),
        extension: Duration::from_micros(u64_field(value, "extension")?),
    })
}

/// Checks the trailing `,"crc":N` self-checksum of an encoded record
/// line. `expected` is the parsed crc field value; the checksum covers
/// the record with that trailing field stripped and the closing brace
/// restored.
fn verify_crc(line: &str, expected: u32) -> Result<(), String> {
    let idx = line
        .rfind(",\"crc\":")
        .ok_or("crc field present but not trailing")?;
    let mut body = String::with_capacity(idx + 1);
    body.push_str(&line[..idx]);
    body.push('}');
    let actual = crc32c(body.as_bytes());
    if actual == expected {
        Ok(())
    } else {
        Err(format!("crc mismatch (stored {expected}, computed {actual})"))
    }
}

fn decode_record(line: &str) -> Result<PairRecord, String> {
    let value = json::parse(line)?;
    // Version-2 records carry a CRC; version-1 records (no crc field)
    // are accepted unchecked.
    if let Some(crc) = value.get("crc") {
        let expected = crc
            .as_int()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("crc field is not a u32")?;
        verify_crc(line, expected)?;
    }
    let alignments = field(&value, "alignments")?
        .as_arr()
        .ok_or("alignments is not an array")?
        .iter()
        .map(decode_alignment)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PairRecord {
        target_chrom: str_field(&value, "target_chrom")?,
        query_chrom: str_field(&value, "query_chrom")?,
        outcome: decode_outcome(field(&value, "outcome")?)?,
        workload: decode_workload(field(&value, "workload")?)?,
        timings: decode_timings(field(&value, "timings_us")?)?,
        counters: decode_counters(value.get("counters"))?,
        alignments,
    })
}

// --- Minimal JSON subset ------------------------------------------------

/// Minimal dependency-free JSON subset used by the journal and by tools
/// that validate this workspace's JSON artefacts (trace lines,
/// `--metrics-out` payloads, `profile_report.json`).
///
/// Supports objects, arrays, strings, integers, booleans and `null` —
/// no floats, which every JSON producer in this workspace avoids.
pub mod json {
    /// A parsed JSON value. Numbers are integers only — the journal never
    /// writes floats.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Integer (the journal emits no floats).
        Int(i128),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Json>),
        /// Object, in source order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object member lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an integer.
        pub fn as_int(&self) -> Option<i128> {
            match self {
                Json::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parses one JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'t> {
        bytes: &'t [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}",
                    byte as char, self.pos
                ))
            }
        }

        fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected value at byte {}", self.pos)),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut value = 0u32;
            for _ in 0..4 {
                let b = self
                    .peek()
                    .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
                let digit = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                value = value * 16 + digit;
                self.pos += 1;
            }
            Ok(value)
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Consume a run of plain bytes in one go.
                while self
                    .peek()
                    .is_some_and(|b| b != b'"' && b != b'\\')
                {
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid utf-8 near byte {start}"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escape = self
                            .peek()
                            .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                        self.pos += 1;
                        match escape {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let code = if (0xd800..0xdc00).contains(&hi) {
                                    // Surrogate pair: expect \uXXXX low half.
                                    self.expect(b'\\')?;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("unpaired surrogate".into());
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    hi
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or("bad \\u escape codepoint")?,
                                );
                            }
                            other => {
                                return Err(format!("unknown escape \\{}", other as char));
                            }
                        }
                    }
                    None => return Err("unterminated string".into()),
                    // The scan loop above stops only on `"`, `\` or
                    // end-of-input, but a corrupt journal deserves an
                    // error, not a crash.
                    Some(other) => {
                        return Err(format!(
                            "unexpected byte {:#04x} in string at byte {}",
                            other, self.pos
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> PairRecord {
        let mut cigar = Cigar::new();
        cigar.push(AlignOp::Match, 20);
        cigar.push(AlignOp::Insert, 2);
        cigar.push(AlignOp::Subst, 1);
        PairRecord {
            target_chrom: "chr\"I\\".into(),
            query_chrom: "chr1".into(),
            outcome: RunOutcome::Degraded {
                events: vec![
                    RunEvent::BudgetExceeded {
                        budget: BudgetKind::FilterTiles,
                        stage: StageKind::Filtering,
                        limit: 100,
                        observed: 250,
                    },
                    RunEvent::BatchFailed {
                        stage: StageKind::Filtering,
                        batch: 3,
                        items: 7,
                        message: "panicked at\nline".into(),
                    },
                ],
            },
            workload: Workload {
                seeds: 10,
                filter_tiles: 20,
                extension_tiles: 3,
                extension_cells: 4000,
                extension_rows: 40,
            },
            timings: StageTimings {
                seeding: Duration::from_micros(1500),
                filtering: Duration::from_micros(2500),
                extension: Duration::from_micros(3500),
            },
            counters: FunnelCounters {
                raw_seed_hits: 25,
                filter_cells: 6400,
                anchors_passed: 3,
                anchors_absorbed: 1,
                alignments_kept: 1,
                faults_injected: 1,
                retries: 1,
                stalls_detected: 0,
            },
            alignments: vec![WgaAlignment {
                alignment: Alignment::new(5, 9, cigar, 1234),
                strand: Strand::Reverse,
            }],
        }
    }

    #[test]
    fn record_round_trips() {
        let record = sample_record();
        let line = encode_record(&record);
        assert!(line.ends_with('\n'));
        let parsed = decode_record(line.trim_end()).unwrap();
        assert_eq!(parsed, record);
    }

    /// Reverts an encoded line to its version-1 form: no crc field.
    fn strip_crc(line: &str) -> String {
        let trimmed = line.trim_end();
        let idx = trimmed.rfind(",\"crc\":").expect("encoded line has a crc");
        format!("{}}}", &trimmed[..idx])
    }

    #[test]
    fn record_without_counters_decodes_as_zero() {
        // A version-1 journal line written before the counters field
        // (or the crc) existed.
        let record = sample_record();
        let line = strip_crc(&encode_record(&record));
        let counters_json = {
            let mut buf = String::new();
            encode_counters(&mut buf, &record.counters);
            buf
        };
        let legacy = line.replace(&format!(",\"counters\":{counters_json}"), "");
        assert_ne!(legacy, line, "counters field should have been stripped");
        let parsed = decode_record(legacy.trim_end()).unwrap();
        assert_eq!(parsed.counters, FunnelCounters::default());
        assert_eq!(parsed.workload, record.workload);
        assert_eq!(parsed.alignments, record.alignments);
    }

    #[test]
    fn record_without_crc_decodes_unchecked() {
        // Version-1 records have no crc member and must decode as-is.
        let record = sample_record();
        let legacy = strip_crc(&encode_record(&record));
        assert_eq!(decode_record(&legacy).unwrap(), record);
        // So must records carrying a counter the struct no longer has —
        // the waste of speculative extension, or the hits filtered, which
        // always equalled `workload.filter_tiles` — with or without
        // their own checksum.
        for (now, then) in [
            ("\"stalls_detected\":0}", "\"stalls_detected\":0,\"spec_discard\":2}"),
            ("\"raw_seed_hits\":25,", "\"raw_seed_hits\":25,\"hits_filtered\":20,"),
        ] {
            let old = legacy.replace(now, then);
            assert_ne!(old, legacy);
            assert_eq!(decode_record(&old).unwrap(), record);
            let crc = crc32c(old.as_bytes());
            let sealed = format!("{},\"crc\":{crc}}}", &old[..old.len() - 1]);
            assert_eq!(decode_record(&sealed).unwrap(), record);
        }
    }

    #[test]
    fn crc32c_matches_reference_vector() {
        // The canonical CRC32C check value (iSCSI, RFC 3720).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn flipped_byte_fails_the_crc() {
        let line = encode_record(&sample_record());
        let trimmed = line.trim_end();
        assert!(decode_record(trimmed).is_ok());
        // Flip one digit of the score: still valid JSON, so only the
        // checksum can catch it.
        let tampered = trimmed.replace("\"score\":1234", "\"score\":1235");
        assert_ne!(tampered, trimmed);
        let err = decode_record(&tampered).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");
    }

    #[test]
    fn cigar_round_trips_and_rejects_garbage() {
        for text in ["*", "10=", "3=2I1X4D"] {
            let cigar = decode_cigar(text).unwrap();
            let rendered = cigar.to_string();
            assert_eq!(rendered, text);
        }
        assert!(decode_cigar("10").is_err());
        assert!(decode_cigar("=").is_err());
        assert!(decode_cigar("3M").is_err()); // only extended ops
    }

    #[test]
    fn journal_resume_recovers_completed_pairs() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wga-journal-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let params = WgaParams::darwin_wga();
        let fp = params_fingerprint(&params);
        {
            let mut journal = Journal::open(&path, &fp).unwrap();
            assert_eq!(journal.recovered.len(), 0);
            journal.append(&sample_record()).unwrap();
        }
        // Simulate a torn final line from a crash mid-append.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"target_chrom\":\"chrII\",\"query_ch").unwrap();
        }
        let mut journal = Journal::open(&path, &fp).unwrap();
        assert_eq!(journal.recovered.len(), 1);
        let rec = journal.take("chr\"I\\", "chr1").unwrap();
        assert_eq!(rec, sample_record());
        assert!(journal.take("chr\"I\\", "chr1").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_rejects_foreign_fingerprint() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wga-journal-fp-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fp_a = params_fingerprint(&WgaParams::darwin_wga());
        let fp_b = params_fingerprint(&WgaParams::lastz_baseline());
        assert_ne!(fp_a, fp_b);
        drop(Journal::open(&path, &fp_a).unwrap());
        let err = Journal::open(&path, &fp_b).unwrap_err();
        assert!(matches!(err, WgaError::Checkpoint { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// The fingerprint hashes `WgaParams`' `Debug` rendering, so a
    /// renamed field or a changed derive silently orphans every journal
    /// written before it. These are the values the parent of PR 21
    /// wrote: while they hold, its `--checkpoint` journals still resume.
    #[test]
    fn fingerprints_of_the_two_presets_are_pinned() {
        assert_eq!(params_fingerprint(&WgaParams::darwin_wga()), "c101066a06e1bd8f");
        assert_eq!(params_fingerprint(&WgaParams::lastz_baseline()), "5f947ee48ae4fce9");
    }

    #[test]
    fn corrupt_interior_record_is_skipped_and_counted() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wga-journal-corrupt-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fp = params_fingerprint(&WgaParams::darwin_wga());
        {
            let mut journal = Journal::open(&path, &fp).unwrap();
            journal.append(&sample_record()).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A corrupt line *followed by* a valid line is interior
            // corruption, not a torn tail.
            f.write_all(b"{garbage\n").unwrap();
            let mut rec = sample_record();
            rec.target_chrom = "chrII".into();
            f.write_all(encode_record(&rec).as_bytes()).unwrap();
        }
        let journal = Journal::open(&path, &fp).unwrap();
        assert_eq!(journal.recovered.len(), 2, "both valid records survive");
        let stats = journal.stats();
        assert_eq!(stats.records_recovered, 2);
        assert_eq!(stats.corrupt_records_skipped, 1);
        assert!(!stats.torn_tail_dropped);
        drop(journal);
        // The corrupt line was pruned on open, so a second resume is
        // clean.
        let journal = Journal::open(&path, &fp).unwrap();
        assert_eq!(journal.stats().corrupt_records_skipped, 0);
        assert_eq!(journal.recovered.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_rotted_interior_record_reruns_its_pair() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wga-journal-bitrot-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fp = params_fingerprint(&WgaParams::darwin_wga());
        {
            let mut journal = Journal::open(&path, &fp).unwrap();
            journal.append(&sample_record()).unwrap();
            let mut rec = sample_record();
            rec.target_chrom = "chrII".into();
            journal.append(&rec).unwrap();
        }
        // Flip bytes mid-file: turn the first record's score into a
        // different (still valid) number. Only the CRC can notice.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"score\":1234", "\"score\":9999", 1);
        assert_ne!(tampered, text);
        std::fs::write(&path, tampered).unwrap();

        let mut journal = Journal::open(&path, &fp).unwrap();
        assert_eq!(journal.stats().corrupt_records_skipped, 1);
        assert!(
            journal.take("chr\"I\\", "chr1").is_none(),
            "the damaged pair must re-run, not resume"
        );
        assert!(journal.take("chrII", "chr1").is_some(), "undamaged pair resumes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_trailing() {
        let v = json::parse(r#"{"a":"xA\n\"","b":[1,-2],"c":null}"#).unwrap();
        assert_eq!(v.get("a").and_then(json::Json::as_str), Some("xA\n\""));
        let arr = v.get("b").and_then(json::Json::as_arr).unwrap();
        assert_eq!(arr[1].as_int(), Some(-2));
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse(r#"{"a":}"#).is_err());
    }
}
