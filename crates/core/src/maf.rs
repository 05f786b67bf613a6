//! MAF (Multiple Alignment Format) output (§V-E).
//!
//! Both LASTZ and Darwin-WGA emit MAF, which AXTCHAIN then post-processes
//! into chains. One alignment becomes an `a` block with two `s` lines
//! (target first), aligned columns padded with `-` at gaps.

use crate::report::{Strand, WgaAlignment};
use align::AlignOp;
use genome::Sequence;
use std::io::{self, Write};

/// Writes alignments as MAF.
///
/// Reverse-strand alignments report `-` strand and coordinates on the
/// reverse-complemented query, with `srcSize` letting consumers map back,
/// exactly as the MAF spec defines.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use align::{AlignOp, Alignment, Cigar};
/// use genome::Sequence;
/// use wga_core::maf::write_maf;
/// use wga_core::report::{Strand, WgaAlignment};
///
/// let t: Sequence = "ACGT".parse()?;
/// let q: Sequence = "ACGT".parse()?;
/// let mut cigar = Cigar::new();
/// cigar.push(AlignOp::Match, 4);
/// let alignments = vec![WgaAlignment {
///     alignment: Alignment::new(0, 0, cigar, 382),
///     strand: Strand::Forward,
/// }];
/// let mut out = Vec::new();
/// write_maf(&mut out, "chrT", &t, "chrQ", &q, &alignments)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("a score=382"));
/// assert!(text.contains("s chrT 0 4 + 4 ACGT"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_maf<W: Write>(
    mut writer: W,
    target_name: &str,
    target: &Sequence,
    query_name: &str,
    query: &Sequence,
    alignments: &[WgaAlignment],
) -> io::Result<()> {
    writeln!(writer, "##maf version=1 scoring=darwin-wga")?;
    write_maf_blocks(writer, target_name, target, query_name, query, alignments)
}

/// Writes MAF alignment blocks without the `##maf` header — for callers
/// assembling one file from several chromosome pairs.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_maf_blocks<'a, W: Write>(
    mut writer: W,
    target_name: &str,
    target: &Sequence,
    query_name: &str,
    query: &Sequence,
    alignments: impl IntoIterator<Item = &'a WgaAlignment>,
) -> io::Result<()> {
    // One alignment's two spans at a time, unpacked a byte a base.
    let (mut t_bases, mut q_bases) = (Vec::new(), Vec::new());
    for wa in alignments {
        let a = &wa.alignment;
        let t_span = target.window(a.target_start..a.target_end, false, &mut t_bases);
        let q_span = query.window(a.query_start..a.query_end, false, &mut q_bases);
        let (mut t, mut q) = (0, 0);
        let mut t_text = String::with_capacity(a.cigar.len());
        let mut q_text = String::with_capacity(a.cigar.len());
        for op in a.cigar.iter_ops() {
            match op {
                AlignOp::Match | AlignOp::Subst => {
                    t_text.push(char::from(t_span[t]));
                    q_text.push(char::from(q_span[q]));
                    t += 1;
                    q += 1;
                }
                AlignOp::Insert => {
                    t_text.push('-');
                    q_text.push(char::from(q_span[q]));
                    q += 1;
                }
                AlignOp::Delete => {
                    t_text.push(char::from(t_span[t]));
                    q_text.push('-');
                    t += 1;
                }
            }
        }
        let strand = match wa.strand {
            Strand::Forward => '+',
            Strand::Reverse => '-',
        };
        writeln!(writer, "a score={}", a.score)?;
        writeln!(
            writer,
            "s {} {} {} + {} {}",
            target_name,
            a.target_start,
            a.target_span(),
            target.len(),
            t_text
        )?;
        writeln!(
            writer,
            "s {} {} {} {} {} {}",
            query_name,
            a.query_start,
            a.query_span(),
            strand,
            query.len(),
            q_text
        )?;
        writeln!(writer)?;
    }
    Ok(())
}

/// A parsed MAF block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MafBlock {
    /// Score from the `a` line.
    pub score: i64,
    /// Target name, start, span, source size.
    pub target: MafSeqLine,
    /// Query name, start, span, source size and strand.
    pub query: MafSeqLine,
    /// The reconstructed alignment (coordinates as in the `s` lines).
    pub alignment: Alignment,
    /// Query strand.
    pub strand: Strand,
}

/// One `s` line's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MafSeqLine {
    /// Sequence name.
    pub name: String,
    /// Start coordinate.
    pub start: usize,
    /// Aligned span (bases consumed).
    pub span: usize,
    /// Source sequence length.
    pub src_size: usize,
}

use align::{Alignment, Cigar};
use std::io::BufRead;

/// Reads MAF blocks produced by [`write_maf`] (or compatible pairwise
/// MAF).
///
/// The CIGAR is rebuilt from the aligned texts, so a written-then-read
/// alignment round-trips exactly.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn read_maf<R: BufRead>(reader: R) -> Result<Vec<MafBlock>, String> {
    let mut blocks = Vec::new();
    let mut lines = reader.lines().enumerate();
    while let Some((idx, line)) = lines.next() {
        let line = line.map_err(|e| format!("line {}: {e}", idx + 1))?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(score_text) = line.strip_prefix("a score=") else {
            return Err(format!("line {}: expected 'a score=' block", idx + 1));
        };
        let score: i64 = score_text
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad score", idx + 1))?;
        let (t_meta, t_text) = parse_s_line(&mut lines)?;
        let (q_meta, q_text) = parse_s_line(&mut lines)?;
        if t_text.chars().count() != q_text.chars().count() {
            return Err(format!(
                "block at line {}: aligned texts differ in length",
                idx + 1
            ));
        }
        let mut cigar = Cigar::new();
        for (tc, qc) in t_text.chars().zip(q_text.chars()) {
            let op = match (tc, qc) {
                ('-', '-') => return Err("double-gap column".into()),
                ('-', _) => AlignOp::Insert,
                (_, '-') => AlignOp::Delete,
                (a, b) if a.eq_ignore_ascii_case(&b) && a != 'N' && a != 'n' => AlignOp::Match,
                _ => AlignOp::Subst,
            };
            cigar.push(op, 1);
        }
        let alignment = Alignment::new(t_meta.0.start, q_meta.0.start, cigar, score);
        blocks.push(MafBlock {
            score,
            strand: if q_meta.1 {
                Strand::Reverse
            } else {
                Strand::Forward
            },
            target: t_meta.0,
            query: q_meta.0,
            alignment,
        });
    }
    Ok(blocks)
}

type SLine = ((MafSeqLine, bool), String);

fn parse_s_line<I>(lines: &mut I) -> Result<SLine, String>
where
    I: Iterator<Item = (usize, std::io::Result<String>)>,
{
    for (idx, line) in lines.by_ref() {
        let line = line.map_err(|e| format!("line {}: {e}", idx + 1))?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("s") {
            return Err(format!("line {}: expected 's' line", idx + 1));
        }
        let err = |what: &str| format!("line {}: bad {what}", idx + 1);
        let name = parts.next().ok_or_else(|| err("name"))?.to_string();
        let start: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("start"))?;
        let span: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("span"))?;
        let reverse = match parts.next() {
            Some("+") => false,
            Some("-") => true,
            _ => return Err(err("strand")),
        };
        let src_size: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("srcSize"))?;
        let text = parts.next().ok_or_else(|| err("text"))?.to_string();
        let bases = text.chars().filter(|&c| c != '-').count();
        if span != bases {
            return Err(format!(
                "line {}: span {span} is not the text's {bases} bases",
                idx + 1
            ));
        }
        if start.checked_add(span).is_none_or(|end| end > src_size) {
            return Err(format!(
                "line {}: start {start} + span {span} passes srcSize {src_size}",
                idx + 1
            ));
        }
        return Ok((
            (
                MafSeqLine {
                    name,
                    start,
                    span,
                    src_size,
                },
                reverse,
            ),
            text,
        ));
    }
    Err("unexpected end of file inside a block".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_maf_round_trips_written_output() {
        let t: Sequence = "AACCGGTTAACC".parse().unwrap();
        let q: Sequence = "AACGGTTTAACC".parse().unwrap();
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 3);
        c.push(AlignOp::Delete, 1);
        c.push(AlignOp::Match, 4);
        c.push(AlignOp::Insert, 1);
        c.push(AlignOp::Match, 4);
        let alignments = vec![WgaAlignment {
            alignment: Alignment::new(0, 0, c, 555),
            strand: Strand::Forward,
        }];
        let mut out = Vec::new();
        write_maf(&mut out, "chrT", &t, "chrQ", &q, &alignments).unwrap();
        let blocks = read_maf(&out[..]).unwrap();
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.score, 555);
        assert_eq!(b.target.name, "chrT");
        assert_eq!(b.query.name, "chrQ");
        assert_eq!(b.alignment, alignments[0].alignment);
        assert_eq!(b.strand, Strand::Forward);
        assert_eq!(b.target.src_size, 12);
    }

    #[test]
    fn read_maf_rejects_malformed_input() {
        assert!(read_maf(
            &b"a score=zzz
"[..]
        )
        .is_err());
        assert!(read_maf(
            &b"bogus line
"[..]
        )
        .is_err());
        assert!(read_maf(
            &b"a score=5
s only three
"[..]
        )
        .is_err());
        // Mismatched aligned-text lengths.
        let bad = b"a score=5
s t 0 2 + 2 AC
s q 0 3 + 3 ACG
";
        assert!(read_maf(&bad[..]).is_err());
    }

    /// An `s` line must agree with its own text and source size, and a
    /// block's two texts must have as many columns: each crafted block
    /// below is refused with its line named, never turned into an
    /// alignment whose end overflows or runs past its sequence.
    #[test]
    fn read_maf_rejects_s_lines_that_disagree_with_their_text() {
        let query = "s q 0 2 + 2 AC\n";
        for (target, line) in [
            ("s t 18446744073709551615 2 + 9 AC\n", 2),
            ("s t 1 2 + 2 AC\n", 2),
            ("s t 0 3 + 9 AC\n", 2),
            ("s t 0 2 * 9 AC\n", 2),
        ] {
            let maf = format!("a score=5\n{target}{query}");
            let error = read_maf(maf.as_bytes()).expect_err(target);
            assert!(
                error.starts_with(&format!("line {line}:")),
                "{target}: {error}"
            );
        }
        let columns = "a score=5\ns t 0 1 + 1 \u{e9}\ns q 0 2 + 2 AA\n";
        let error = read_maf(columns.as_bytes()).expect_err("one column against two");
        assert!(error.contains("line 1"), "{error}");
    }

    #[test]
    fn gapped_alignment_pads_with_dashes() {
        let t: Sequence = "AACCGGTT".parse().unwrap();
        let q: Sequence = "AACGGTT".parse().unwrap();
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 3);
        c.push(AlignOp::Delete, 1);
        c.push(AlignOp::Match, 4);
        let alignments = vec![WgaAlignment {
            alignment: Alignment::new(0, 0, c, 100),
            strand: Strand::Forward,
        }];
        let mut out = Vec::new();
        write_maf(&mut out, "t", &t, "q", &q, &alignments).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("AACCGGTT"), "{text}");
        assert!(text.contains("AAC-GGTT"), "{text}");
        assert!(text.starts_with("##maf"));
    }

    #[test]
    fn reverse_strand_marked() {
        let t: Sequence = "ACGT".parse().unwrap();
        let q: Sequence = "ACGT".parse().unwrap();
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 4);
        let alignments = vec![WgaAlignment {
            alignment: Alignment::new(0, 0, c, 1),
            strand: Strand::Reverse,
        }];
        let mut out = Vec::new();
        write_maf(&mut out, "t", &t, "q", &q, &alignments).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s q 0 4 - 4 ACGT"), "{text}");
    }
}
