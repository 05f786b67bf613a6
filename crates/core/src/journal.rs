//! Checkpoint journal for assembly-scale runs.
//!
//! Every chromosome pair of a genome-vs-genome run is an independent
//! LASTZ-style invocation (§V-B), so hours of completed work must not be
//! lost to one late crash. The journal is a JSON-lines file: a header
//! record binding the journal to the run's parameters, then one record
//! per *completed* chromosome pair (alignments, workload, timings,
//! outcome), each fsync'd before the pair is considered durable. On
//! resume, [`crate::genome_pipeline::align_assemblies_observed`] replays the
//! journaled pairs and recomputes only the rest, producing a report
//! identical to an uninterrupted run.
//!
//! Every line is one [`crate::json`] object, rendered and parsed there
//! (the workspace deliberately has no JSON dependency). Since format
//! version 2 every record carries a trailing CRC32C over its own bytes,
//! so bit rot is detected rather than silently decoded; version-1
//! journals (no CRC) still decode. Damage is tolerated, not fatal: a
//! torn final line (crash mid-append) is dropped, a corrupt *interior*
//! record is skipped — its pair simply re-runs on resume — and both are
//! counted in [`JournalStats`]. Only a header mismatch (wrong format,
//! wrong parameter fingerprint) aborts the resume.

use crate::config::{ResourceBudget, WgaParams};
use crate::durable;
use crate::error::{WgaError, WgaResult};
use crate::json::{self, Json};
use crate::report::{
    BudgetKind, FunnelCounters, RunEvent, RunOutcome, StageTimings, Strand, WgaAlignment,
};
use align::cigar::MAX_RUN;
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
const VERSION: u64 = 2;

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
    /// resume computes them again).
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
    /// rerun computes the pair again); it is what the run's report folds in.
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
/// mixing results. FNV-1a over a fixed rendering of `params`: the text
/// `WgaParams`' derived `Debug` printed when the fingerprint was pinned,
/// written out field by field so that a later change to the struct
/// cannot orphan the journals written before it. Nested values keep
/// their `Debug`. The output-neutral knobs — the filter engine and the
/// query range size — are printed at their [`WgaParams::darwin_wga`]
/// defaults, and `max_seed_hits: None` and `deadline: None` stand for
/// retired budgets, so a journal resumes whichever engine and range size
/// wrote it, and one written under a retired budget is refused. The
/// destructuring names every field, so a new one does not compile until
/// it is rendered or declared output-neutral here.
pub fn params_fingerprint(params: &WgaParams) -> String {
    let WgaParams {
        scoring,
        gaps,
        seed_pattern,
        dsoft,
        max_seed_occurrences,
        filter,
        filter_engine: _,
        extension,
        extension_threshold,
        both_strands,
        budget:
            ResourceBudget {
                max_filter_tiles,
                max_extension_cells,
            },
        shard_bases: _,
    } = params;
    let repr = format!(
        "WgaParams {{ scoring: {scoring:?}, gaps: {gaps:?}, seed_pattern: {seed_pattern:?}, \
         dsoft: {dsoft:?}, max_seed_occurrences: {max_seed_occurrences:?}, filter: {filter:?}, \
         filter_engine: Simd, extension: GactX({extension:?}), \
         extension_threshold: {extension_threshold:?}, both_strands: {both_strands:?}, \
         budget: ResourceBudget {{ max_seed_hits: None, \
         max_filter_tiles: {max_filter_tiles:?}, max_extension_cells: {max_extension_cells:?}, \
         deadline: None }}, shard_bases: 2048 }}"
    );
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
    /// are counted in [`Journal::stats`] and pruned from the file
    /// (rewritten whole by [`durable::write_atomic`]) so the damage
    /// does not accumulate across resumes.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] on filesystem failure; [`WgaError::Checkpoint`]
    /// when the journal belongs to a run with different parameters or
    /// is not a wga journal at all.
    pub fn open(path: &Path, fingerprint: &str) -> WgaResult<Journal> {
        let display = path.display().to_string();
        // A byte that is not UTF-8 is damage to its line, which then
        // fails to decode like any other corrupt record.
        let existing = match std::fs::read(path) {
            Ok(bytes) => Some(String::from_utf8_lossy(&bytes).into_owned()),
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
                check_header(header, fingerprint).map_err(|m| {
                    WgaError::checkpoint(&display, format!("line {}: {m}", header_no + 1))
                })?;
                let rest: Vec<(usize, &&str)> = nonempty.collect();
                let last_idx = rest.len().saturating_sub(1);
                let mut kept: Vec<&str> = vec![*header];
                let mut dropped_any = false;
                for (i, (line_no, line)) in rest.iter().enumerate() {
                    match decode_record(line) {
                        Ok(rec) => {
                            kept.push(**line);
                            recovered
                                .insert((rec.target_chrom.clone(), rec.query_chrom.clone()), rec);
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
                // original record order) before reopening for append —
                // atomically, so a crash mid-repair leaves the old file
                // or the repaired one, never a short or headerless one.
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
            durable::write_atomic(path, content.as_bytes())?;
        }

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| WgaError::io(&display, e))?;
        if needs_header {
            let header = Json::obj([
                ("format", FORMAT.into()),
                ("version", VERSION.into()),
                ("params_fingerprint", fingerprint.into()),
            ]);
            file.write_all(format!("{header}\n").as_bytes())
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
    if value.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Err("not a wga journal".into());
    }
    match value.get_u64("version")? {
        // Version 1 journals predate per-record CRCs; their records
        // simply skip the CRC check.
        Some(1 | VERSION) => {}
        Some(v) => return Err(format!("unsupported journal version {v}")),
        None => return Err("missing journal version".into()),
    }
    match value.get("params_fingerprint").and_then(Json::as_str) {
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

/// The five workload counters, as the journal and `profile_report.json`
/// both write them.
impl From<&Workload> for Json {
    fn from(w: &Workload) -> Json {
        Json::obj([
            ("seeds", w.seeds.into()),
            ("filter_tiles", w.filter_tiles.into()),
            ("extension_tiles", w.extension_tiles.into()),
            ("extension_cells", w.extension_cells.into()),
            ("extension_rows", w.extension_rows.into()),
        ])
    }
}

fn micros(d: Duration) -> Json {
    Json::Int(d.as_micros() as i128)
}

/// A budget's journal name and that of the stage it truncates, which
/// every record still spells out for the readers that decoded it.
fn budget_kind_names(kind: BudgetKind) -> (&'static str, &'static str) {
    match kind {
        BudgetKind::FilterTiles => ("filter_tiles", "filtering"),
        BudgetKind::ExtensionCells => ("extension_cells", "extension"),
    }
}

fn encode_event(event: &RunEvent) -> Json {
    match event {
        RunEvent::BudgetExceeded {
            budget,
            limit,
            observed,
        } => {
            let (budget, stage) = budget_kind_names(*budget);
            Json::obj([
                ("type", "budget".into()),
                ("budget", budget.into()),
                ("stage", stage.into()),
                ("limit", (*limit).into()),
                ("observed", (*observed).into()),
            ])
        }
        RunEvent::BatchFailed {
            batch,
            items,
            message,
        } => Json::obj([
            ("type", "batch_failed".into()),
            ("stage", "filtering".into()),
            ("batch", (*batch).into()),
            ("items", (*items).into()),
            ("message", message.as_str().into()),
        ]),
    }
}

fn encode_outcome(outcome: &RunOutcome) -> Json {
    match outcome {
        RunOutcome::Completed => Json::obj([("status", "completed".into())]),
        RunOutcome::Degraded { events } => Json::obj([
            ("status", "degraded".into()),
            (
                "events",
                Json::Arr(events.iter().map(encode_event).collect()),
            ),
        ]),
        RunOutcome::Failed { error } => Json::obj([
            ("status", "failed".into()),
            ("error", error.as_str().into()),
        ]),
    }
}

fn encode_alignment(wa: &WgaAlignment) -> Json {
    let a = &wa.alignment;
    let strand = match wa.strand {
        Strand::Forward => "+",
        Strand::Reverse => "-",
    };
    Json::obj([
        ("t", a.target_start.into()),
        ("q", a.query_start.into()),
        ("score", Json::Int(a.score.into())),
        ("strand", strand.into()),
        ("cigar", a.cigar.to_string().as_str().into()),
    ])
}

fn encode_record(record: &PairRecord) -> String {
    let (t, c) = (&record.timings, &record.counters);
    let mut line = Json::obj([
        ("target_chrom", record.target_chrom.as_str().into()),
        ("query_chrom", record.query_chrom.as_str().into()),
        ("outcome", encode_outcome(&record.outcome)),
        ("workload", (&record.workload).into()),
        (
            "timings_us",
            Json::obj([
                ("seeding", micros(t.seeding)),
                ("filtering", micros(t.filtering)),
                ("extension", micros(t.extension)),
            ]),
        ),
        (
            "counters",
            Json::obj([
                ("raw_seed_hits", c.raw_seed_hits.into()),
                ("filter_cells", c.filter_cells.into()),
                ("anchors_passed", c.anchors_passed.into()),
                ("anchors_absorbed", c.anchors_absorbed.into()),
                ("alignments_kept", c.alignments_kept.into()),
                // Fixed, so version-2 records keep their bytes and old
                // readers find the members they expect; decoding ignores
                // them. A journaled pair met no injected fault (one fails
                // its pair), and nothing retries or watches for stalls.
                ("faults_injected", 0u64.into()),
                ("retries", 0u64.into()),
                ("stalls_detected", 0u64.into()),
            ]),
        ),
        (
            "alignments",
            Json::Arr(record.alignments.iter().map(encode_alignment).collect()),
        ),
    ]);
    // Self-checksum: CRC32C over the record *without* the crc member,
    // which goes last. decode strips it, restores the '}' and recomputes.
    let crc = crc32c(line.to_string().as_bytes());
    line.push("crc", u64::from(crc).into());
    format!("{line}\n")
}

// --- Decoding -----------------------------------------------------------

fn decode_budget_kind(name: &str) -> Result<BudgetKind, String> {
    match name {
        "filter_tiles" => Ok(BudgetKind::FilterTiles),
        "extension_cells" => Ok(BudgetKind::ExtensionCells),
        other => Err(format!("unknown budget kind {other:?}")),
    }
}

/// The `"stage"` member is not read: it follows from the event.
fn decode_event(value: &Json) -> Result<RunEvent, String> {
    match value.str("type")? {
        "budget" => Ok(RunEvent::BudgetExceeded {
            budget: decode_budget_kind(value.str("budget")?)?,
            limit: value.u64("limit")?,
            observed: value.u64("observed")?,
        }),
        "batch_failed" => Ok(RunEvent::BatchFailed {
            batch: value.u64("batch")? as usize,
            items: value.u64("items")?,
            message: value.str("message")?.to_string(),
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

fn decode_outcome(value: &Json) -> Result<RunOutcome, String> {
    match value.str("status")? {
        "completed" => Ok(RunOutcome::Completed),
        "degraded" => Ok(RunOutcome::Degraded {
            events: value
                .arr("events")?
                .iter()
                .map(decode_event)
                .collect::<Result<_, _>>()?,
        }),
        "failed" => Ok(RunOutcome::Failed {
            error: value.str("error")?.to_string(),
        }),
        other => Err(format!("unknown outcome status {other:?}")),
    }
}

/// Parses a CIGAR's text form into a CIGAR holding exactly its runs. A
/// run longer than [`MAX_RUN`] is out of range: `Display` never prints
/// one, so no journal holds one.
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
                if count > MAX_RUN as u64 {
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
    cigar.shrink_to_fit();
    Ok(cigar)
}

fn decode_alignment(value: &Json) -> Result<WgaAlignment, String> {
    let strand = match value.str("strand")? {
        "+" => Strand::Forward,
        "-" => Strand::Reverse,
        other => return Err(format!("unknown strand {other:?}")),
    };
    let (t, q) = (value.u64("t")? as usize, value.u64("q")? as usize);
    let cigar = decode_cigar(value.str("cigar")?)?;
    if t.checked_add(cigar.target_len()).is_none() || q.checked_add(cigar.query_len()).is_none() {
        return Err("alignment ends past the largest position".into());
    }
    Ok(WgaAlignment {
        alignment: Alignment::new(t, q, cigar, value.i64("score")?),
        strand,
    })
}

fn decode_workload(value: &Json) -> Result<Workload, String> {
    Ok(Workload {
        seeds: value.u64("seeds")?,
        filter_tiles: value.u64("filter_tiles")?,
        extension_tiles: value.u64("extension_tiles")?,
        extension_cells: value.u64("extension_cells")?,
        extension_rows: value.u64("extension_rows")?,
    })
}

/// Decodes the funnel counters. Tolerant on two axes so old journals
/// stay readable: a missing `counters` object (records predating the
/// field) and missing individual keys (counters added later) both decode
/// as zero.
fn decode_counters(value: Option<&Json>) -> Result<FunnelCounters, String> {
    let Some(value) = value else {
        return Ok(FunnelCounters::default());
    };
    let opt = |key: &str| value.get_u64(key).map(Option::unwrap_or_default);
    Ok(FunnelCounters {
        raw_seed_hits: opt("raw_seed_hits")?,
        filter_cells: opt("filter_cells")?,
        anchors_passed: opt("anchors_passed")?,
        anchors_absorbed: opt("anchors_absorbed")?,
        alignments_kept: opt("alignments_kept")?,
    })
}

fn decode_timings(value: &Json) -> Result<StageTimings, String> {
    Ok(StageTimings {
        seeding: Duration::from_micros(value.u64("seeding")?),
        filtering: Duration::from_micros(value.u64("filtering")?),
        extension: Duration::from_micros(value.u64("extension")?),
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
        Err(format!(
            "crc mismatch (stored {expected}, computed {actual})"
        ))
    }
}

fn decode_record(line: &str) -> Result<PairRecord, String> {
    let value = json::parse(line)?;
    // Version-2 records carry a CRC; version-1 records (no crc field)
    // are accepted unchecked.
    if let Some(crc) = value.get_u64("crc")? {
        verify_crc(
            line,
            u32::try_from(crc).map_err(|_| "crc field is not a u32")?,
        )?;
    }
    Ok(PairRecord {
        target_chrom: value.str("target_chrom")?.to_string(),
        query_chrom: value.str("query_chrom")?.to_string(),
        outcome: decode_outcome(value.member("outcome")?)?,
        workload: decode_workload(value.member("workload")?)?,
        timings: decode_timings(value.member("timings_us")?)?,
        counters: decode_counters(value.get("counters"))?,
        alignments: value
            .arr("alignments")?
            .iter()
            .map(decode_alignment)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterEngineKind;
    use align::gactx::TilingParams;

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
                        limit: 100,
                        observed: 250,
                    },
                    RunEvent::BatchFailed {
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
        let start = line
            .find(",\"counters\":")
            .expect("encoded line has counters");
        let end = start + line[start..].find('}').expect("counters object closes") + 1;
        let legacy = format!("{}{}", &line[..start], &line[end..]);
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
        // the waste of speculative extension, the hits filtered, which
        // always equalled `workload.filter_tiles`, or a stall, retry or
        // fault count other than the fixed 0 — with or without their own
        // checksum.
        for (now, then) in [
            ("\"stalls_detected\":0}", "\"stalls_detected\":4}"),
            ("\"retries\":0,", "\"retries\":3,"),
            ("\"faults_injected\":0,", "\"faults_injected\":2,"),
            (
                "\"stalls_detected\":0}",
                "\"stalls_detected\":0,\"spec_discard\":2}",
            ),
            (
                "\"raw_seed_hits\":25,",
                "\"raw_seed_hits\":25,\"hits_filtered\":20,",
            ),
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
    fn cigar_runs_past_the_longest_run_are_out_of_range() {
        // Two runs that would sum past `u32::MAX` never reach `push`.
        let err = decode_cigar("4294967295=1=").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(decode_cigar(&format!("{}X", MAX_RUN as u64 + 1)).is_err());
        // The longest run, and a longer one printed split, round-trip.
        for text in [format!("{MAX_RUN}="), format!("{MAX_RUN}D{MAX_RUN}D7D2=")] {
            let cigar = decode_cigar(&text).unwrap();
            assert_eq!(cigar.to_string(), text);
            assert_eq!(cigar.heap_bytes(), 4 * cigar.runs().len());
        }
    }

    /// A journal's inode: a repair written in place keeps it, one
    /// renamed over the journal does not.
    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(path).unwrap().ino()
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
            f.write_all(b"{\"target_chrom\":\"chrII\",\"query_ch")
                .unwrap();
        }
        #[cfg(unix)]
        let torn = inode(&path);
        let mut journal = Journal::open(&path, &fp).unwrap();
        assert!(journal.stats().torn_tail_dropped);
        #[cfg(unix)]
        assert_ne!(inode(&path), torn, "the repair is renamed into place");
        assert!(!durable::tmp_path(&path).exists());
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

    /// A changed rendering silently orphans every journal written before
    /// it. The presets' values date from when the filter engine left the
    /// fingerprint. The third, with both remaining budgets set, both
    /// strands and a non-default tiling, is what the rendering gave while
    /// a seed-hit budget could still be set. While they hold, those
    /// journals still resume.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(
            params_fingerprint(&WgaParams::darwin_wga()),
            "c101066a06e1bd8f"
        );
        assert_eq!(
            params_fingerprint(&WgaParams::lastz_baseline()),
            "5f947ee48ae4fce9"
        );
        let budgeted = WgaParams {
            extension: TilingParams {
                tile_size: 1024,
                overlap: 64,
                y: 5000,
                edge_traceback: true,
            },
            both_strands: true,
            budget: ResourceBudget {
                max_filter_tiles: Some(50_000),
                max_extension_cells: Some(1 << 30),
            },
            ..WgaParams::darwin_wga()
        };
        assert_eq!(params_fingerprint(&budgeted), "3dc4edb959035bcc");
    }

    /// A record with one event of each kind production builds encodes to
    /// the bytes it did while every event carried its stage, so journals
    /// written before and after resume each other.
    #[test]
    fn degraded_record_bytes_are_pinned() {
        let record = PairRecord {
            target_chrom: "chrI".into(),
            query_chrom: "chr1".into(),
            outcome: RunOutcome::Degraded {
                events: vec![
                    RunEvent::BudgetExceeded {
                        budget: BudgetKind::FilterTiles,
                        limit: 100,
                        observed: 250,
                    },
                    RunEvent::BudgetExceeded {
                        budget: BudgetKind::ExtensionCells,
                        limit: 4000,
                        observed: 4100,
                    },
                    RunEvent::BatchFailed {
                        batch: 3,
                        items: 7,
                        message: "injected".into(),
                    },
                ],
            },
            workload: Workload::default(),
            timings: StageTimings::default(),
            counters: FunnelCounters::default(),
            alignments: Vec::new(),
        };
        let line = concat!(
            r#"{"target_chrom":"chrI","query_chrom":"chr1","outcome":{"status":"degraded","events":["#,
            r#"{"type":"budget","budget":"filter_tiles","stage":"filtering","limit":100,"observed":250},"#,
            r#"{"type":"budget","budget":"extension_cells","stage":"extension","limit":4000,"observed":4100},"#,
            r#"{"type":"batch_failed","stage":"filtering","batch":3,"items":7,"message":"injected"}]},"#,
            r#""workload":{"seeds":0,"filter_tiles":0,"extension_tiles":0,"extension_cells":0,"extension_rows":0},"#,
            r#""timings_us":{"seeding":0,"filtering":0,"extension":0},"#,
            r#""counters":{"raw_seed_hits":0,"filter_cells":0,"anchors_passed":0,"anchors_absorbed":0,"#,
            r#""alignments_kept":0,"faults_injected":0,"retries":0,"stalls_detected":0},"#,
            r#""alignments":[],"crc":1315370280}"#,
            "\n"
        );
        assert_eq!(encode_record(&record), line);
        assert_eq!(decode_record(line.trim_end()).unwrap(), record);
    }

    #[test]
    fn output_neutral_knobs_leave_the_fingerprint_alone() {
        let fp = params_fingerprint(&WgaParams::darwin_wga());
        for engine in [FilterEngineKind::Scalar, FilterEngineKind::Simd] {
            let params = WgaParams {
                shard_bases: 512,
                ..WgaParams::darwin_wga().with_filter_engine(engine)
            };
            assert_eq!(params_fingerprint(&params), fp, "{engine:?}");
        }
        let tighter = WgaParams::darwin_wga().with_filter_threshold(4001);
        assert_ne!(
            params_fingerprint(&tighter),
            fp,
            "output-changing fields still count"
        );
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
        #[cfg(unix)]
        let damaged = inode(&path);
        let journal = Journal::open(&path, &fp).unwrap();
        #[cfg(unix)]
        assert_ne!(inode(&path), damaged, "the repair is renamed into place");
        assert!(!durable::tmp_path(&path).exists());
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
        assert!(
            journal.take("chrII", "chr1").is_some(),
            "undamaged pair resumes"
        );
        let _ = std::fs::remove_file(&path);
    }
}
