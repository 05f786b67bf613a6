//! End-to-end integration: evolve → seed → filter → extend → chain →
//! metrics → MAF, across every crate in the workspace.

use darwin_wga::chain::chainer::chain_alignments;
use darwin_wga::chain::metrics;
use darwin_wga::core::{config::WgaParams, maf, pipeline::WgaPipeline};
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::SeedableRng;

fn pair(distance: f64, len: usize, seed: u64) -> SyntheticPair {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
}

#[test]
fn full_pipeline_recovers_most_orthologs_on_moderate_pair() {
    let pair = pair(0.2, 40_000, 1);
    let report =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);

    // Ground truth recall: matched bases vs true orthologous identical bases.
    let truth: Vec<(usize, usize)> = pair.orthologous_pairs();
    let true_identical = truth
        .iter()
        .filter(|&&(t, q)| pair.target.sequence.get(t) == pair.query.sequence.get(q))
        .count() as f64;
    // Note the numerator is not strictly bounded by the denominator:
    // around indels the aligner legitimately places gaps differently from
    // the generating process (alignment is not unique), pairing bases the
    // truth map pairs elsewhere, and extensions may cross short turnover
    // junk picking up coincidental matches. A ratio far above ~1.3 would
    // indicate duplicate alignments instead.
    let recall = report.total_matches() as f64 / true_identical;
    assert!(recall > 0.55, "recall {recall}");
    assert!(recall < 1.35, "recall {recall} suspiciously high (duplicates?)");

    // Every alignment must be internally consistent with the sequences.
    for wa in &report.alignments {
        wa.alignment
            .validate(&pair.target.sequence, &pair.query.sequence)
            .unwrap();
    }

    // Chains must not lose the bulk of the alignments.
    let alignments = report.forward_alignments();
    let chains = chain_alignments(&alignments, 3000);
    assert!(!chains.is_empty());
    let chained: u64 = metrics::matched_bases(&chains, &alignments);
    assert!(chained as f64 > 0.9 * report.total_matches() as f64);
}

#[test]
fn precision_against_ground_truth_is_high() {
    use darwin_wga::align::AlignOp;
    let pair = pair(0.3, 30_000, 2);
    let report =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);
    let truth: std::collections::HashSet<(usize, usize)> =
        pair.orthologous_pairs().into_iter().collect();

    let (mut aligned, mut correct) = (0u64, 0u64);
    for wa in &report.alignments {
        let a = &wa.alignment;
        let (mut t, mut q) = (a.target_start, a.query_start);
        for op in a.cigar.iter_ops() {
            match op {
                AlignOp::Match | AlignOp::Subst => {
                    aligned += 1;
                    if truth.contains(&(t, q)) {
                        correct += 1;
                    }
                    t += 1;
                    q += 1;
                }
                AlignOp::Insert => q += 1,
                AlignOp::Delete => t += 1,
            }
        }
    }
    let precision = correct as f64 / aligned.max(1) as f64;
    assert!(precision > 0.75, "precision {precision}");
}

#[test]
fn maf_output_is_well_formed_and_complete() {
    let pair = pair(0.15, 20_000, 3);
    let report =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);
    assert!(!report.alignments.is_empty());

    let mut out = Vec::new();
    maf::write_maf(
        &mut out,
        "target",
        &pair.target.sequence,
        "query",
        &pair.query.sequence,
        &report.alignments,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("##maf"));

    // One 'a' line and two 's' lines per alignment; aligned texts have
    // equal lengths within a block.
    let a_lines = text.lines().filter(|l| l.starts_with("a score=")).count();
    assert_eq!(a_lines, report.alignments.len());
    let mut s_lines = text.lines().filter(|l| l.starts_with("s "));
    while let (Some(t_line), Some(q_line)) = (s_lines.next(), s_lines.next()) {
        let t_text = t_line.split_whitespace().last().unwrap();
        let q_text = q_line.split_whitespace().last().unwrap();
        assert_eq!(t_text.len(), q_text.len());
        assert!(!t_text.contains(' '));
    }
}

#[test]
fn report_workload_feeds_hardware_model() {
    use darwin_wga::hwsim::perf::{accelerated_runtime, software_runtime, SoftwareThroughput};
    use darwin_wga::hwsim::platform::AcceleratorConfig;

    let pair = pair(0.3, 30_000, 4);
    let report =
        WgaPipeline::new(WgaParams::darwin_wga()).run(&pair.target.sequence, &pair.query.sequence);
    let w = report.workload;
    assert!(w.seeds > 0);
    assert!(w.filter_tiles > 0);
    assert!(w.extension_tiles > 0);
    // Filtering dominates the workload (§III-A).
    assert!(w.filter_tiles > 10 * w.extension_tiles);

    let sw = SoftwareThroughput {
        seeds_per_second: 10.0e6,
        filter_tiles_per_second: 10.0e3,
        ungapped_filters_per_second: 2.0e6,
        extension_tiles_per_second: 200.0,
    };
    let sw_rt = software_runtime(&w, &sw);
    for acc in [AcceleratorConfig::fpga(), AcceleratorConfig::asic()] {
        let hw_rt = accelerated_runtime(&w, &sw, &acc);
        assert!(hw_rt.total_s() > 0.0);
        assert!(
            hw_rt.filtering_s < sw_rt.filtering_s / 50.0,
            "hardware filtering {} vs software {}",
            hw_rt.filtering_s,
            sw_rt.filtering_s
        );
    }
}
