//! Minimal FASTA reading and writing, and the seed's rotation.

use std::collections::BTreeMap;
use std::path::Path;

/// One FASTA record: the header line without `>`, and the bases in upper case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub header: String,
    pub bases: Vec<u8>,
}

impl Record {
    /// The sequence name: the header up to the first blank.
    pub fn name(&self) -> &str {
        self.header.split_whitespace().next().unwrap_or("")
    }
}

/// Parses FASTA text. Sequence before the first header is an error.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut records: Vec<Record> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if let Some(header) = line.strip_prefix('>') {
            records.push(Record {
                header: header.to_string(),
                bases: Vec::new(),
            });
        } else if !line.is_empty() {
            let record = records
                .last_mut()
                .ok_or_else(|| format!("line {}: sequence before the first header", index + 1))?;
            record
                .bases
                .extend(line.bytes().map(|b| b.to_ascii_uppercase()));
        }
    }
    Ok(records)
}

/// Reads and parses one FASTA file.
pub fn read(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders records as FASTA, 70 bases a line as `wga generate` writes them.
pub fn render(records: &[Record]) -> String {
    let mut out = String::new();
    for record in records {
        out.push('>');
        out.push_str(&record.header);
        out.push('\n');
        for line in record.bases.chunks(70) {
            out.extend(line.iter().map(|&b| b as char));
            out.push('\n');
        }
    }
    out
}

/// Sequences by name, for the output checkers.
pub fn by_name(records: &[Record]) -> BTreeMap<&str, &[u8]> {
    records
        .iter()
        .map(|r| (r.name(), r.bases.as_slice()))
        .collect()
}

/// The rotation a ledger seed stands for, as a 32-bit fixed-point share
/// of each sequence's length.
///
/// Seed 1 is no rotation, so the default run aligns exactly what
/// `wga generate` wrote. Every further seed steps by the golden ratio,
/// which spreads any run of seeds evenly around the circle.
pub fn rotation_q32(seed: u64) -> u32 {
    (seed.wrapping_sub(1).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF) as u32
}

/// Where a sequence of `len` bases is cut for rotation `q32`.
pub fn rotation_offset(len: usize, q32: u32) -> usize {
    ((len as u128 * q32 as u128) >> 32) as usize
}

/// Rotates every record left by its [`rotation_offset`]: the bases from
/// the cut to the end, then the bases before the cut. The bases, their
/// order around the circle and every homology stay what they were; tile,
/// bin and chunk boundaries all fall somewhere else.
pub fn rotate(records: &mut [Record], q32: u32) {
    for record in records {
        let offset = rotation_offset(record.bases.len(), q32);
        record.bases.rotate_left(offset);
    }
}
