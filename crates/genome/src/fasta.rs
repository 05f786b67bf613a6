//! Minimal FASTA reading and writing.
//!
//! Darwin-WGA consumes plain (uncompressed) FASTA with one or more records;
//! record names are the first whitespace-delimited token of the header.

use crate::alphabet::Base;
use crate::sequence::Sequence;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A named FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record name (first token of the `>` header).
    pub name: String,
    /// Full header line without the leading `>`.
    pub description: String,
    /// The sequence.
    pub sequence: Sequence,
}

/// Error produced while parsing FASTA input.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Sequence data appeared before any `>` header.
    MissingHeader {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A sequence line contained an invalid character.
    InvalidBase {
        /// 1-based line number of the offending line.
        line: usize,
        /// The invalid byte.
        byte: u8,
    },
    /// Two records share the same name (first header token).
    DuplicateName {
        /// The repeated record name.
        name: String,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "i/o error: {e}"),
            FastaError::MissingHeader { line } => {
                write!(f, "line {line}: sequence data before any '>' header")
            }
            FastaError::InvalidBase { line, byte } => {
                write!(f, "line {line}: invalid sequence byte {:#04x}", byte)
            }
            FastaError::DuplicateName { name } => {
                write!(f, "duplicate record name {name:?}")
            }
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Reads all records from FASTA input.
///
/// A `&mut R` may be passed for readers that should remain usable afterwards.
///
/// # Errors
///
/// Returns [`FastaError`] on I/O failure, on sequence data before the first
/// header, or on invalid sequence characters.
///
/// # Examples
///
/// ```
/// let input = b">chr1 test\nACGT\nacgt\n>chr2\nTTTT\n";
/// let records = genome::fasta::read(&input[..])?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].name, "chr1");
/// assert_eq!(records[0].sequence.len(), 8);
/// # Ok::<(), genome::fasta::FastaError>(())
/// ```
pub fn read<R: BufRead>(reader: R) -> Result<Vec<Record>, FastaError> {
    read_sized(reader, 0)
}

/// [`read`] for input of a known size: `byte_len` is how many bytes the
/// reader will yield (a file's length), and each record's sequence is
/// allocated once, at the bytes still unread when its header is met —
/// its own length for a one-record file — instead of growing there by
/// doubling, a transient of twice the chromosome and more. A hint that
/// is too small (0: none) only brings the growth back.
///
/// # Errors
///
/// As [`read`].
pub fn read_sized<R: BufRead>(mut reader: R, byte_len: usize) -> Result<Vec<Record>, FastaError> {
    let mut records: Vec<Record> = Vec::new();
    let mut current: Option<Record> = None;
    let mut consumed = 0usize;
    // A finished record gives back its slack: a 187 kb chromosome
    // would otherwise sit in a 256 KiB block for the whole run.
    let mut finish = |record: Option<Record>| {
        if let Some(mut record) = record {
            record.sequence.shrink_to_fit();
            records.push(record);
        }
    };
    // One buffer for every line, read as bytes: a sequence line need not
    // be UTF-8 to be reported for what is wrong with it.
    let mut buffer = Vec::new();
    let mut number = 0usize;
    loop {
        buffer.clear();
        let read = reader.read_until(b'\n', &mut buffer)?;
        if read == 0 {
            break;
        }
        consumed += read;
        number += 1;
        let line = buffer.trim_ascii_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix(b">") {
            finish(current.take());
            let description = std::str::from_utf8(header)
                .map_err(|_| {
                    let reason = format!("line {number}: header is not valid UTF-8");
                    io::Error::new(io::ErrorKind::InvalidData, reason)
                })?
                .trim()
                .to_string();
            let name = description
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string();
            let mut sequence = Sequence::new();
            sequence.reserve_hint(byte_len.saturating_sub(consumed));
            current = Some(Record {
                name,
                description,
                sequence,
            });
        } else {
            let rec = current
                .as_mut()
                .ok_or(FastaError::MissingHeader { line: number })?;
            for &byte in line {
                if byte.is_ascii_whitespace() {
                    continue;
                }
                let base =
                    Base::from_ascii(byte).ok_or(FastaError::InvalidBase { line: number, byte })?;
                rec.sequence.push(base);
            }
        }
    }
    finish(current.take());
    Ok(records)
}

/// Writes records as FASTA with 70-column wrapping. The text is laid out
/// from the sequences' packed planes straight into one buffer of
/// [`CHUNK`] bytes, handed to `writer` in one `write_all` each time it
/// fills: an unbuffered `File` is a write every 64 KiB, not one a line,
/// and nothing as long as the sequence is held besides the sequence.
///
/// A `&mut W` may be passed for writers that should remain usable afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write<W: Write>(mut writer: W, records: &[Record]) -> io::Result<()> {
    const COLUMNS: usize = 70;
    let mut text = Vec::with_capacity(CHUNK + COLUMNS);
    for rec in records {
        let header = if rec.description.is_empty() {
            &rec.name
        } else {
            &rec.description
        };
        text.push(b'>');
        text.extend_from_slice(header.as_bytes());
        text.push(b'\n');
        let mut column = 0;
        for (letters, count) in rec.sequence.letters() {
            let mut letters = &letters[..count];
            while !letters.is_empty() {
                let (line, rest) = letters.split_at(letters.len().min(COLUMNS - column));
                text.extend_from_slice(line);
                column += line.len();
                if column == COLUMNS {
                    text.push(b'\n');
                    column = 0;
                }
                letters = rest;
            }
            if text.len() >= CHUNK {
                writer.write_all(&text)?;
                text.clear();
            }
        }
        if column > 0 {
            text.push(b'\n');
        }
    }
    writer.write_all(&text)?;
    writer.flush()
}

/// Bytes of FASTA text [`write`] gathers before it writes them: enough
/// that a write is rare, few enough that the buffer's pages are touched
/// once and reused, not one fresh page every 4 KiB of the file.
const CHUNK: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_multi_record() {
        let input = b">a desc here\nACGT\nACGT\n\n>b\nNNNN\n";
        let recs = read(&input[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "a");
        assert_eq!(recs[0].description, "a desc here");
        assert_eq!(recs[0].sequence.to_string(), "ACGTACGT");
        assert_eq!(recs[1].sequence.to_string(), "NNNN");
    }

    #[test]
    fn read_rejects_headerless_data() {
        let err = read(&b"ACGT\n"[..]).unwrap_err();
        assert!(matches!(err, FastaError::MissingHeader { line: 1 }));
    }

    #[test]
    fn read_rejects_bad_byte() {
        let err = read(&b">a\nAC-T\n"[..]).unwrap_err();
        match err {
            FastaError::InvalidBase { line, byte } => {
                assert_eq!(line, 2);
                assert_eq!(byte, b'-');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_utf8_sequence_byte_is_an_invalid_base_with_its_line() {
        let err = read(&b">a\nACGT\n\nAC\xffT\n"[..]).unwrap_err();
        assert!(
            matches!(
                err,
                FastaError::InvalidBase {
                    line: 4,
                    byte: 0xff
                }
            ),
            "{err}"
        );
        // In a header the line number is all there is to say.
        let err = read(&b">a\nACGT\n>b\xff\nAC\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn read_sized_equals_read_whatever_the_hint() {
        let input = b">chr1 test\nACGT\nacgt\n\n>chr2\nTTTT\n>empty\n";
        let expected = read(&input[..]).unwrap();
        for byte_len in [0, 3, input.len(), 10 * input.len(), usize::MAX] {
            assert_eq!(
                read_sized(&input[..], byte_len).unwrap(),
                expected,
                "hint {byte_len}"
            );
        }
    }

    #[test]
    fn write_read_round_trip() {
        let recs = vec![
            Record {
                name: "chrX".into(),
                description: "chrX synthetic".into(),
                sequence: "ACGT".repeat(40).parse().unwrap(),
            },
            Record {
                name: "chrY".into(),
                description: String::new(),
                sequence: "GATTACA".parse().unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write(&mut buf, &recs).unwrap();
        let parsed = read(&buf[..]).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].sequence, recs[0].sequence);
        assert_eq!(parsed[1].name, "chrY");
        assert_eq!(parsed[1].sequence, recs[1].sequence);
        // wrapped at 70 columns
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().all(|l| l.len() <= 70));
    }
}
