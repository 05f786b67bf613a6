//! PAF (Pairwise mApping Format) emission for the many-genome report.
//!
//! One line per surviving alignment, 12 mandatory tab-separated
//! columns, minimap2 conventions: query first, all coordinates 0-based
//! half-open **on the forward strand** of each sequence. The aligner
//! stores reverse-strand alignments against the reverse-complemented
//! query, so `-` lines flip their query interval to forward-strand
//! coordinates (`qlen - end, qlen - start`); the canonical report keeps
//! the raw orientation, and the round-trip test in `tests/paf_golden.rs`
//! pins the two views against each other. Sequence names are
//! `<genome>.<chromosome>` so one PAF spans the whole genome set
//! without name collisions.

use super::{ManyPair, ManyReport};
use crate::genome_pipeline::by_score;
use crate::journal::PairRecord;
use crate::report::{Strand, WgaAlignment};
use genome::assembly::Assembly;
use std::collections::BTreeMap;

/// Mapping quality emitted for every line: the pipeline scores but does
/// not yet rank competing placements, and PAF reserves 255 for
/// "missing".
const MAPQ: u32 = 255;

/// Renders the report's (already deduplicated) alignments as PAF text,
/// in canonical report order. `genomes` supplies sequence lengths;
/// alignments naming a genome or chromosome outside the set are
/// skipped (unreachable when the report came from the same set).
pub fn paf_text(report: &ManyReport, genomes: &[Assembly]) -> String {
    let mut lengths: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for genome in genomes {
        for chrom in genome.chromosomes() {
            lengths.insert(
                (genome.name.as_str(), chrom.name.as_str()),
                chrom.sequence.len(),
            );
        }
    }
    let mut out = String::new();
    for pair in &report.pairs {
        for (record, a) in by_score(&pair.records) {
            let t_len = lengths.get(&(pair.target_genome.as_str(), record.target_chrom.as_str()));
            let q_len = lengths.get(&(pair.query_genome.as_str(), record.query_chrom.as_str()));
            if let (Some(&t_len), Some(&q_len)) = (t_len, q_len) {
                out.push_str(&paf_line((pair, record, a), t_len, q_len));
                out.push('\n');
            }
        }
    }
    out
}

fn paf_line(
    (pair, record, a): (&ManyPair, &PairRecord, &WgaAlignment),
    t_len: usize,
    q_len: usize,
) -> String {
    let aln = &a.alignment;
    let (strand, q_start, q_end) = match a.strand {
        Strand::Forward => ('+', aln.query_start, aln.query_end),
        // Alignment coordinates are on the reverse complement; PAF
        // wants the forward strand, which mirrors the interval.
        Strand::Reverse => (
            '-',
            q_len.saturating_sub(aln.query_end),
            q_len.saturating_sub(aln.query_start),
        ),
    };
    format!(
        "{}.{}\t{}\t{}\t{}\t{}\t{}.{}\t{}\t{}\t{}\t{}\t{}\t{}",
        pair.query_genome,
        record.query_chrom,
        q_len,
        q_start,
        q_end,
        strand,
        pair.target_genome,
        record.target_chrom,
        t_len,
        aln.target_start,
        aln.target_end,
        aln.matches(),
        aln.cigar.len(),
        MAPQ
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::alignment::Alignment;
    use align::cigar::{AlignOp, Cigar};

    fn genome(name: &str, chrom: &str, len: usize) -> Assembly {
        let mut a = Assembly::new(name);
        let seq: genome::Sequence = "ACGT".repeat(len / 4).parse().unwrap();
        a.push(chrom, seq);
        a
    }

    fn alignment(strand: Strand) -> WgaAlignment {
        let mut cigar = Cigar::new();
        cigar.push(AlignOp::Match, 10);
        cigar.push(AlignOp::Delete, 2);
        cigar.push(AlignOp::Match, 10);
        WgaAlignment {
            alignment: Alignment::new(8, 4, cigar, 77),
            strand,
        }
    }

    /// One genome pair, `ga` × `gb`, whose one chromosome pair holds
    /// `alignments`.
    fn report_with(alignments: Vec<WgaAlignment>) -> ManyReport {
        let mut record = PairRecord::failed("chrI", "chr1", String::new());
        record.outcome = crate::report::RunOutcome::Completed;
        record.alignments = alignments;
        ManyReport {
            pairs: vec![ManyPair {
                target_genome: "ga".into(),
                query_genome: "gb".into(),
                scheduled: true,
                shared: 0,
                records: vec![record],
            }],
            ..ManyReport::default()
        }
    }

    #[test]
    fn forward_line_has_twelve_columns_and_raw_coords() {
        let genomes = vec![genome("ga", "chrI", 100), genome("gb", "chr1", 80)];
        let text = paf_text(&report_with(vec![alignment(Strand::Forward)]), &genomes);
        let cols: Vec<&str> = text.trim_end().split('\t').collect();
        assert_eq!(cols.len(), 12, "{text:?}");
        assert_eq!(cols[0], "gb.chr1");
        assert_eq!(cols[1], "80");
        assert_eq!(cols[2], "4");
        assert_eq!(cols[3], "24"); // 4 + 20 query-consuming ops
        assert_eq!(cols[4], "+");
        assert_eq!(cols[5], "ga.chrI");
        assert_eq!(cols[6], "100");
        assert_eq!(cols[7], "8");
        assert_eq!(cols[8], "30"); // 8 + 22 target-consuming ops
        assert_eq!(cols[11], "255");
    }

    #[test]
    fn reverse_line_flips_query_to_forward_strand() {
        let genomes = vec![genome("ga", "chrI", 100), genome("gb", "chr1", 80)];
        let text = paf_text(&report_with(vec![alignment(Strand::Reverse)]), &genomes);
        let cols: Vec<&str> = text.trim_end().split('\t').collect();
        assert_eq!(cols[4], "-");
        // Raw reverse-complement interval [4, 24) mirrors to [56, 76).
        assert_eq!(cols[2], "56");
        assert_eq!(cols[3], "76");
        // Target side is unaffected by strand.
        assert_eq!(cols[7], "8");
        assert_eq!(cols[8], "30");
    }

    #[test]
    fn unknown_names_are_skipped() {
        let genomes = vec![genome("ga", "chrI", 100)];
        let text = paf_text(&report_with(vec![alignment(Strand::Forward)]), &genomes);
        assert!(text.is_empty());
    }
}
