//! Output checkers: every MAF block against the FASTA it claims to come
//! from, every PAF record against its stated lengths, and the
//! `matched_bp` counters that read the output files themselves.

use crate::fasta::{self, Record};
use std::collections::BTreeMap;

/// What a MAF file that passed [`check_maf`] contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MafSummary {
    pub blocks: u64,
    /// Columns where target and query carry the same base.
    pub matched_bp: u64,
    /// Target intervals `(sequence name, start, end)` of every block, for exon recall.
    pub target_intervals: Vec<(String, usize, usize)>,
}

struct SeqLine<'a> {
    name: &'a str,
    start: usize,
    size: usize,
    strand: u8,
    src_size: usize,
    text: &'a [u8],
}

fn parse_seq_line(line: &str) -> Result<SeqLine<'_>, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let &[_, name, start, size, strand, src_size, text] = fields.as_slice() else {
        return Err(format!("expected 7 fields in '{}'", clip(line)));
    };
    let number = |what: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("bad {what} '{v}' in '{}'", clip(line)))
    };
    let strand = match strand {
        "+" => b'+',
        "-" => b'-',
        other => return Err(format!("bad strand '{other}' in '{}'", clip(line))),
    };
    Ok(SeqLine {
        name,
        start: number("start", start)?,
        size: number("size", size)?,
        strand,
        src_size: number("srcSize", src_size)?,
        text: text.as_bytes(),
    })
}

fn clip(line: &str) -> &str {
    line.get(..60).unwrap_or(line)
}

fn complement(base: u8) -> u8 {
    match base {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        b'T' => b'A',
        other => other,
    }
}

/// Checks that the ungapped text of `line` is what `records` hold at the
/// line's coordinates and strand. MAF counts `-` strand coordinates on
/// the reverse complement of the source.
fn check_against_source(
    line: &SeqLine<'_>,
    sequences: &BTreeMap<&str, &[u8]>,
) -> Result<(), String> {
    let source = sequences
        .get(line.name)
        .ok_or_else(|| format!("sequence '{}' is not in the FASTA", line.name))?;
    if line.src_size != source.len() {
        return Err(format!(
            "'{}': srcSize {} but the FASTA has {}",
            line.name,
            line.src_size,
            source.len()
        ));
    }
    let end = line
        .start
        .checked_add(line.size)
        .filter(|&end| end <= source.len())
        .ok_or_else(|| {
            format!(
                "'{}': {}+{} runs past {}",
                line.name,
                line.start,
                line.size,
                source.len()
            )
        })?;
    let ungapped: Vec<u8> = line
        .text
        .iter()
        .filter(|&&b| b != b'-')
        .map(|b| b.to_ascii_uppercase())
        .collect();
    let expected: Vec<u8> = if line.strand == b'+' {
        source[line.start..end].to_vec()
    } else {
        let (lo, hi) = (source.len() - end, source.len() - line.start);
        source[lo..hi]
            .iter()
            .rev()
            .map(|&b| complement(b))
            .collect()
    };
    if ungapped != expected {
        return Err(format!(
            "'{}' {}..{} {}: the block's text is not the FASTA's",
            line.name, line.start, end, line.strand as char
        ));
    }
    Ok(())
}

/// Parses a MAF file of pairwise blocks (target line first) and checks
/// every block against the two FASTA files the aligner was given.
pub fn check_maf(text: &str, target: &[Record], query: &[Record]) -> Result<MafSummary, String> {
    let mut lines = text.lines().enumerate().peekable();
    match lines.next() {
        Some((_, first)) if first.starts_with("##maf") => {}
        _ => return Err("missing ##maf header".into()),
    }
    let (target, query) = (fasta::by_name(target), fasta::by_name(query));
    let mut summary = MafSummary {
        blocks: 0,
        matched_bp: 0,
        target_intervals: Vec::new(),
    };
    while let Some((index, line)) = lines.next() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("MAF line {}: {e}", index + 1);
        if !line.starts_with("a ") && line != "a" {
            return Err(at(format!("expected an 'a' line, found '{}'", clip(line))));
        }
        let mut seq_line = || match lines.next() {
            Some((_, l)) if l.starts_with("s ") => parse_seq_line(l),
            _ => Err("block has fewer than two 's' lines".to_string()),
        };
        let t = seq_line().map_err(at)?;
        let q = seq_line().map_err(at)?;
        if t.strand != b'+' {
            return Err(at("target line on the '-' strand".into()));
        }
        if t.text.len() != q.text.len() {
            return Err(at("the two texts differ in length".into()));
        }
        check_against_source(&t, &target).map_err(at)?;
        check_against_source(&q, &query).map_err(at)?;
        summary.blocks += 1;
        summary.matched_bp += t
            .text
            .iter()
            .zip(q.text)
            .filter(|(a, b)| **a != b'-' && a.eq_ignore_ascii_case(b))
            .count() as u64;
        summary
            .target_intervals
            .push((t.name.to_string(), t.start, t.start + t.size));
    }
    Ok(summary)
}

/// Looks a sequence's true length up by name.
pub type LengthOf<'a> = &'a dyn Fn(&str) -> Option<usize>;

/// What a PAF file that passed [`check_paf`] contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PafSummary {
    pub records: u64,
    /// Sum of column 10, the matching bases.
    pub matched_bp: u64,
}

/// Parses PAF text and checks every record's intervals against its
/// stated sequence lengths. `lengths`, when given, maps `wga many`'s
/// `<genome>.<chromosome>` names to the true lengths, and the stated
/// lengths must agree with it.
pub fn check_paf(text: &str, lengths: Option<LengthOf<'_>>) -> Result<PafSummary, String> {
    let mut summary = PafSummary {
        records: 0,
        matched_bp: 0,
    };
    for (index, line) in text.lines().enumerate() {
        let at = |e: String| format!("PAF line {}: {e}", index + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 12 {
            return Err(at(format!(
                "{} columns, expected at least 12",
                fields.len()
            )));
        }
        let number = |column: usize| -> Result<usize, String> {
            fields[column].parse().map_err(|_| {
                at(format!(
                    "column {} is not a number: '{}'",
                    column + 1,
                    fields[column]
                ))
            })
        };
        if fields[4] != "+" && fields[4] != "-" {
            return Err(at(format!("bad strand '{}'", fields[4])));
        }
        for (name, len, start, end) in [(0, 1, 2, 3), (5, 6, 7, 8)] {
            let (len_v, start_v, end_v) = (number(len)?, number(start)?, number(end)?);
            if start_v > end_v || end_v > len_v {
                return Err(at(format!(
                    "{}: {start_v}..{end_v} outside 0..{len_v}",
                    fields[name]
                )));
            }
            if let Some(lengths) = lengths {
                match lengths(fields[name]) {
                    Some(actual) if actual == len_v => {}
                    Some(actual) => {
                        return Err(at(format!(
                            "{}: stated length {len_v}, the FASTA has {actual}",
                            fields[name]
                        )))
                    }
                    None => {
                        return Err(at(format!(
                            "sequence '{}' is not in any FASTA",
                            fields[name]
                        )))
                    }
                }
            }
        }
        let (matches, columns) = (number(9)?, number(10)?);
        if matches > columns {
            return Err(at(format!("{matches} matches in {columns} columns")));
        }
        summary.records += 1;
        summary.matched_bp += matches as u64;
    }
    Ok(summary)
}

/// Share of the exons in `exons_tsv` (`wga generate`'s
/// `chrom label start end` table, in unrotated target coordinates) that
/// the blocks cover to at least half, in percent.
///
/// `rotation_q32` is the rotation the target FASTA was written with;
/// `length_of` gives each target sequence's length. An exon the cut
/// falls inside is left out of both counts. `None` when no exon is left.
pub fn exon_recall_pct(
    exons_tsv: &str,
    intervals: &[(String, usize, usize)],
    rotation_q32: u32,
    length_of: LengthOf<'_>,
) -> Option<f64> {
    let (mut found, mut total) = (0u64, 0u64);
    for line in exons_tsv.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let &[chrom, _, start, end] = fields.as_slice() else {
            continue;
        };
        let (Ok(start), Ok(end)) = (start.parse::<usize>(), end.parse::<usize>()) else {
            continue;
        };
        let Some(len) = length_of(chrom) else {
            continue;
        };
        let cut = fasta::rotation_offset(len, rotation_q32);
        if end <= start || end > len || (start < cut && cut < end) {
            continue;
        }
        let width = end - start;
        let start = (start + len - cut) % len;
        let end = start + width;
        let mut covered = vec![false; width];
        for (name, s, e) in intervals {
            if name == chrom {
                for position in (*s).max(start)..(*e).min(end) {
                    covered[position - start] = true;
                }
            }
        }
        total += 1;
        if covered.iter().filter(|&&c| c).count() * 2 >= covered.len() {
            found += 1;
        }
    }
    (total > 0).then(|| found as f64 * 100.0 / total as f64)
}
