//! Text-mode genome-browser tracks (Figs. 3 and 9).
//!
//! The paper's qualitative figures are UCSC browser snapshots: a gene
//! track above chain tracks, thick blocks for aligning bases, thin lines
//! for single-sided gaps, double lines for double-sided gaps. This module
//! renders the same view as text, one row per chain:
//!
//! ```text
//! genes   ====        =======         ====
//! chain 1 ██████──────██████══════════████
//! ```
//!
//! Legend: `█` aligning bases, `─` gap in the query only, `═` double-sided
//! gap, space = outside the chain.

use crate::chainer::Chain;
use align::Alignment;
use genome::annotation::Interval;

/// Renders a browser-style view of a target region.
///
/// `width` is the character width of the rendered tracks; `region` is the
/// half-open target interval shown.
pub fn render(
    region: (usize, usize),
    width: usize,
    genes: &[Interval],
    chains: &[Chain],
    alignments: &[Alignment],
    max_chains: usize,
) -> String {
    assert!(width > 0, "width must be positive");
    let (start, end) = region;
    assert!(end > start, "empty region");
    let scale = |pos: usize| -> usize {
        let pos = pos.clamp(start, end);
        ((pos - start) as u128 * width as u128 / (end - start) as u128) as usize
    };

    let mut out = String::new();
    out.push_str(&format!(
        "region {}..{} ({} bp, {:.0} bp/char)\n",
        start,
        end,
        end - start,
        (end - start) as f64 / width as f64
    ));

    // Gene track.
    let mut gene_row = vec![' '; width + 1];
    for gene in genes {
        if gene.end <= start || gene.start >= end {
            continue;
        }
        for c in gene_row
            .iter_mut()
            .take(scale(gene.end).max(scale(gene.start) + 1))
            .skip(scale(gene.start))
        {
            *c = '=';
        }
    }
    out.push_str(&format!("{:<10}{}\n", "genes", trim_row(&gene_row)));

    // Chain tracks.
    for (rank, chain) in chains.iter().take(max_chains).enumerate() {
        let mut row = vec![' '; width + 1];
        // Between consecutive members: single or double gap line.
        for pair in chain.members.windows(2) {
            let a = &alignments[pair[0]];
            let b = &alignments[pair[1]];
            let gap_t = b.target_start.saturating_sub(a.target_end);
            let gap_q = b.query_start.saturating_sub(a.query_end);
            let ch = if gap_t > 0 && gap_q > 0 { '═' } else { '─' };
            for c in row
                .iter_mut()
                .take(scale(b.target_start))
                .skip(scale(a.target_end))
            {
                *c = ch;
            }
        }
        // Member blocks (drawn after gap lines so blocks win).
        for &m in &chain.members {
            let a = &alignments[m];
            if a.target_end <= start || a.target_start >= end {
                continue;
            }
            for c in row
                .iter_mut()
                .take(scale(a.target_end).max(scale(a.target_start) + 1))
                .skip(scale(a.target_start))
            {
                *c = '█';
            }
        }
        out.push_str(&format!(
            "{:<10}{}  (score {})\n",
            format!("chain {}", rank + 1),
            trim_row(&row),
            chain.score
        ));
    }
    out
}

fn trim_row(row: &[char]) -> String {
    let s: String = row.iter().collect();
    s.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::{AlignOp, Cigar};

    fn block(t: usize, q: usize, len: u32) -> Alignment {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, len);
        Alignment::new(t, q, c, len as i64 * 90)
    }

    fn simple_chain(members: Vec<usize>, score: i64) -> Chain {
        Chain { members, score }
    }

    #[test]
    fn renders_blocks_and_gap_styles() {
        let alignments = vec![
            block(0, 0, 100),
            block(200, 100, 100), // target gap only → '─'
            block(400, 300, 100), // both gaps → '═'
        ];
        let chains = vec![simple_chain(vec![0, 1, 2], 10_000)];
        let genes = vec![Interval::new(50, 150, "g1")];
        let text = render((0, 500), 50, &genes, &chains, &alignments, 5);
        assert!(text.contains('█'), "{text}");
        assert!(text.contains('─'), "{text}");
        assert!(text.contains('═'), "{text}");
        assert!(text.contains('='), "{text}");
        assert!(text.contains("score 10000"));
        // Three tracks: header + genes + 1 chain.
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn max_chains_limits_rows() {
        let alignments = vec![block(0, 0, 10), block(50, 50, 10)];
        let chains = vec![simple_chain(vec![0], 900), simple_chain(vec![1], 800)];
        let text = render((0, 100), 20, &[], &chains, &alignments, 1);
        assert!(text.contains("chain 1"));
        assert!(!text.contains("chain 2"));
    }

    #[test]
    fn out_of_region_entities_are_clipped() {
        let alignments = vec![block(1000, 1000, 50)];
        let chains = vec![simple_chain(vec![0], 500)];
        let text = render((0, 100), 20, &[], &chains, &alignments, 5);
        assert!(!text.contains('█'));
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn rejects_empty_region() {
        render((10, 10), 20, &[], &[], &[], 1);
    }
}
