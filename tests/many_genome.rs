//! Many-genome mode integration suite.
//!
//! The determinism contract under test: the canonical many-genome
//! report and the PAF rendering are byte-identical across thread counts
//! and shard sizes; kNN sparsification provably skips
//! distant pairs while leaving the near-pair alignments untouched; a run
//! killed mid-matrix resumes from its checkpoint directory into the
//! byte-identical report; a chromosome's seed table is built once, for
//! the one row of the matrix that aligns against it, however the row is
//! pruned, scheduled or resumed; and the run is one executor run, with
//! one pair total, one fault injector and its table builds in the trace.

use darwin_wga::core::config::WgaParams;
use darwin_wga::core::faultsim::FaultPlan;
use darwin_wga::core::obs::{Obs, SpanName, TraceRecorder};
use darwin_wga::core::pangenome::{self, paf::paf_text, ManyOptions, ManyReport};
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// `2 * clusters` genomes, one chromosome each: each cluster is a
/// target/query pair descended from one ancestor, so within-cluster
/// pairs are near and cross-cluster pairs are unrelated.
fn clustered_genomes(clusters: usize, len: usize, seed: u64) -> Vec<Assembly> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genomes = Vec::new();
    for c in 0..clusters {
        let pair = SyntheticPair::generate(len, &EvolutionParams::at_distance(0.12), &mut rng);
        for (side, seq) in [("t", &pair.target.sequence), ("q", &pair.query.sequence)] {
            let mut g = Assembly::new(format!("c{c}{side}"));
            g.push("chr", seq.clone());
            genomes.push(g);
        }
    }
    genomes
}

/// Three genomes with two chromosomes each, all descended from the same
/// two ancestral chromosomes — every genome pair has signal on both
/// chromosome pairs, giving the kill/resume test a real matrix.
fn multi_chromosome_genomes() -> Vec<Assembly> {
    let mut rng = StdRng::seed_from_u64(99);
    let a = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let b = SyntheticPair::generate(4_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let extra_a = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.12), &mut rng);
    let mut g0 = Assembly::new("g0");
    g0.push("chrI", a.target.sequence.clone());
    g0.push("chrII", b.target.sequence.clone());
    let mut g1 = Assembly::new("g1");
    g1.push("chrI", a.query.sequence.clone());
    g1.push("chrII", b.query.sequence.clone());
    let mut g2 = Assembly::new("g2");
    g2.push("chrI", extra_a.query.sequence.clone());
    g2.push("chrII", b.query.sequence.clone());
    vec![g0, g1, g2]
}

fn run(genomes: &[Assembly], options: &ManyOptions) -> ManyReport {
    pangenome::align_many(&WgaParams::darwin_wga(), genomes, options)
        .expect("many-genome run succeeds")
}

fn checkpoint_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wga-many-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn byte_identity_across_executors_threads_and_shards() {
    let genomes = clustered_genomes(2, 6_000, 5);
    let reference = run(&genomes, &ManyOptions::default());
    let expected = reference.canonical_text();
    let expected_paf = paf_text(&reference, &genomes);
    assert!(expected.contains("aln\t"), "reference run found alignments");
    assert!(!expected_paf.is_empty(), "reference run emits PAF");

    for threads in [2usize, 3] {
        let options = ManyOptions {
            threads,
            ..ManyOptions::default()
        };
        let report = run(&genomes, &options);
        assert_eq!(report.canonical_text(), expected, "{threads}t: report");
        assert_eq!(paf_text(&report, &genomes), expected_paf, "{threads}t: PAF");
    }

    // Shard size is a scheduling knob, never a result knob.
    for shard_bases in [512usize, 8_192] {
        let mut params = WgaParams::darwin_wga();
        params.shard_bases = shard_bases;
        let options = ManyOptions {
            threads: 3,
            ..ManyOptions::default()
        };
        let report =
            pangenome::align_many(&params, &genomes, &options).expect("sharded run succeeds");
        assert_eq!(
            report.canonical_text(),
            expected,
            "shard_bases={shard_bases}"
        );
    }
}

#[test]
fn six_genome_run_is_deterministic_across_executors() {
    let genomes = clustered_genomes(3, 4_000, 17);
    assert_eq!(genomes.len(), 6);
    let serial = run(&genomes, &ManyOptions::default());
    assert_eq!(serial.pairs.len(), 15, "all-vs-all over 6 genomes");
    let dataflow = run(
        &genomes,
        &ManyOptions {
            threads: 3,
            ..ManyOptions::default()
        },
    );
    assert_eq!(dataflow.canonical_text(), serial.canonical_text());
    assert_eq!(paf_text(&dataflow, &genomes), paf_text(&serial, &genomes));
}

#[test]
fn knn_skips_distant_pairs_and_keeps_near_alignments() {
    // Three clusters of two: each genome's true neighbour is its
    // cluster mate; everything else is unrelated.
    let genomes = clustered_genomes(3, 5_000, 23);
    let all = run(&genomes, &ManyOptions::default());
    let knn = run(
        &genomes,
        &ManyOptions {
            knn: Some(2),
            ..ManyOptions::default()
        },
    );

    let mates = [(0usize, 1usize), (2, 3), (4, 5)];
    let scheduled: Vec<(usize, usize)> = knn
        .pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.scheduled)
        .map(|(i, _)| {
            (
                all.pairs[i].target_genome.clone(),
                all.pairs[i].query_genome.clone(),
            )
        })
        .map(|(t, q)| {
            let idx = |name: &str| genomes.iter().position(|g| g.name == name).unwrap();
            (idx(&t), idx(&q))
        })
        .collect();
    for mate in mates {
        assert!(
            scheduled.contains(&mate),
            "near pair {mate:?} kept: {scheduled:?}"
        );
    }
    assert!(
        scheduled.len() < all.pairs.len(),
        "knn=2 over unrelated clusters must prune at least one distant pair"
    );

    // The kept pairs' alignments are exactly what the all-pairs run
    // found for them — sparsification changes coverage, never content.
    for (a, b) in mates {
        let (ta, tb) = (genomes[a].name.as_str(), genomes[b].name.as_str());
        let pick = |r: &ManyReport| -> Vec<String> {
            r.alignments
                .iter()
                .filter(|al| al.target_genome == ta && al.query_genome == tb)
                .map(|al| format!("{:?}", al.aligned))
                .collect()
        };
        let from_all = pick(&all);
        assert!(!from_all.is_empty(), "cluster pair {ta}/{tb} aligns");
        assert_eq!(
            pick(&knn),
            from_all,
            "{ta}/{tb}: alignments unchanged under knn"
        );
    }
}

#[test]
fn each_chromosome_is_indexed_once_for_its_row() {
    // Every genome but the last is the target of a row; a table per
    // chromosome of each, whatever runs the row's pairs.
    let genomes = multi_chromosome_genomes();
    let serial = run(&genomes, &ManyOptions::default());
    assert_eq!(serial.tables_built, 4, "two chromosomes of g0 and of g1");
    let dataflow = run(
        &genomes,
        &ManyOptions {
            threads: 2,
            ..ManyOptions::default()
        },
    );
    assert_eq!(
        dataflow.tables_built, 4,
        "rows interleaved smallest pair first"
    );
    assert_eq!(dataflow.canonical_text(), serial.canonical_text());

    // Pruned to nearest neighbours, only a genome that is still the
    // target of a scheduled pair is indexed, and still once.
    let genomes = clustered_genomes(3, 5_000, 23);
    let knn = run(
        &genomes,
        &ManyOptions {
            knn: Some(1),
            ..ManyOptions::default()
        },
    );
    let targets: std::collections::BTreeSet<&str> = knn
        .pairs
        .iter()
        .filter(|p| p.scheduled)
        .map(|p| p.target_genome.as_str())
        .collect();
    assert!(
        targets.len() < genomes.len() - 1,
        "knn=1 leaves some row empty: {targets:?}"
    );
    assert_eq!(knn.tables_built, targets.len() as u64);
}

#[test]
fn kill_mid_matrix_then_resume_matches_uninterrupted() {
    let genomes = multi_chromosome_genomes();
    let golden = run(&genomes, &ManyOptions::default());
    assert!(
        golden.pairs.iter().all(|p| p.failed == 0),
        "uninterrupted run must be clean"
    );
    assert_eq!(golden.tables_built, 4);

    // A panic injected at the journal append of pair 3 — the matrix's
    // pair 3, (g0 × g1)'s last chromosome pair — is the moral equivalent
    // of `kill -9` mid-checkpoint. One thread walks the rows in order:
    // row (g0, chrI) — pairs 0 and 1 of (g0 × g1), 4 and 5 of (g0 × g2) —
    // is durable whole, then row (g0, chrII) makes pair 2 durable and
    // dies appending pair 3.
    let plan = Arc::new(
        FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":7,\"faults\":[\
             {\"hook\":\"journal.append\",\"kind\":\"panic\",\"at\":[0],\"pair\":3}]}",
        )
        .expect("fault plan parses"),
    );
    let dir = checkpoint_dir("kill-resume");
    let chaos = ManyOptions {
        checkpoint_dir: Some(dir.clone()),
        fault_plan: Some(plan),
        ..ManyOptions::default()
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| run(&genomes, &chaos)));
    assert!(crashed.is_err(), "injected journal panic must kill the run");

    let resumed = run(
        &genomes,
        &ManyOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ManyOptions::default()
        },
    );
    assert_eq!(
        resumed.resumed_pairs, 5,
        "row (g0, chrI) and pair 2 survived the kill"
    );
    // Row (g0, chrI) is replayed whole and builds nothing; the other
    // three rows are indexed once each.
    assert_eq!(resumed.tables_built, 3);
    assert_eq!(resumed.canonical_text(), golden.canonical_text());
    assert_eq!(paf_text(&resumed, &genomes), paf_text(&golden, &genomes));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_rerun_replays_every_pair() {
    let genomes = clustered_genomes(2, 4_000, 41);
    let dir = checkpoint_dir("full-replay");
    let options = ManyOptions {
        checkpoint_dir: Some(dir.clone()),
        ..ManyOptions::default()
    };
    let first = run(&genomes, &options);
    assert_eq!(first.resumed_pairs, 0);
    let second = run(&genomes, &options);
    assert_eq!(
        second.resumed_pairs,
        genomes.len() as u64 * (genomes.len() as u64 - 1) / 2,
        "every (single-chromosome) genome pair replays from its journal"
    );
    assert_eq!(second.canonical_text(), first.canonical_text());
    assert_eq!(first.tables_built, genomes.len() as u64 - 1);
    assert_eq!(second.tables_built, 0, "a replayed row indexes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/data/many_ckpt/` is a `--checkpoint` directory written over
/// [`multi_chromosome_genomes`] by the code before `wga many` became one
/// executor run, then cut mid-matrix by hand: the journal of block
/// (g0, g1) is whole (four records), the journal of block (g0, g2) holds
/// its header and its first record (chrI × chrI), and block (g1, g2) has
/// no journal. Resumed from a copy, one thread and two (the dataflow
/// executor) both replay exactly those five chromosome pairs and end in the
/// uninterrupted run's report and PAF.
#[test]
fn a_checkpoint_directory_cut_mid_matrix_resumes() {
    let genomes = multi_chromosome_genomes();
    let golden = run(&genomes, &ManyOptions::default());
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/many_ckpt");
    for threads in [1, 2] {
        let dir = checkpoint_dir(&format!("fixture-{threads}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&fixture).expect("fixture directory present") {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        let options = ManyOptions {
            threads,
            checkpoint_dir: Some(dir.clone()),
            ..ManyOptions::default()
        };
        let resumed = run(&genomes, &options);
        let label = format!("--threads {threads}");
        assert_eq!(resumed.resumed_pairs, 5, "{label}");
        assert_eq!(resumed.canonical_text(), golden.canonical_text(), "{label}");
        assert_eq!(
            paf_text(&resumed, &genomes),
            paf_text(&golden, &genomes),
            "{label}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fault plan's `"pair"` names one chromosome pair of the whole
/// matrix: over three one-chromosome genomes, pair 0 is (c0t × c0q)'s
/// only pair, and an error there with no retry fails that pair and no
/// other genome pair's first.
#[test]
fn a_fault_plan_pair_names_one_chromosome_pair_of_the_matrix() {
    let mut genomes = clustered_genomes(2, 3_000, 7);
    genomes.truncate(3);
    let plan = FaultPlan::parse(
        "{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":1,\"faults\":[\
         {\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0],\"pair\":0}]}",
    )
    .expect("fault plan parses");
    for threads in [1, 2] {
        let options = ManyOptions {
            threads,
            max_retries: 0,
            fault_plan: Some(Arc::new(plan.clone())),
            ..ManyOptions::default()
        };
        let report = run(&genomes, &options);
        let failed: Vec<(&str, &str, u64)> = report
            .pairs
            .iter()
            .map(|p| (p.target_genome.as_str(), p.query_genome.as_str(), p.failed))
            .collect();
        assert_eq!(
            failed,
            [("c0t", "c0q", 1), ("c0t", "c1t", 0), ("c0q", "c1t", 0)],
            "--threads {threads}"
        );
    }
}

/// A traced run is one run: the recorder's pair total is the scheduled
/// chromosome pairs, and every table the matrix built is a `seed.table`
/// span, timed into the trace like any pairwise run's.
#[test]
fn a_traced_run_announces_one_total_and_traces_every_table_build() {
    let genomes = multi_chromosome_genomes();
    for threads in [1, 2] {
        let recorder = TraceRecorder::new();
        let options = ManyOptions {
            threads,
            ..ManyOptions::default()
        };
        let report = pangenome::align_many_observed(
            &WgaParams::darwin_wga(),
            &genomes,
            &options,
            Obs::new(&recorder),
        )
        .expect("traced run succeeds");
        let label = format!("--threads {threads}");
        let builds = recorder
            .spans()
            .iter()
            .filter(|span| span.name == SpanName::SeedTable)
            .count() as u64;
        assert_eq!(report.tables_built, 4, "{label}");
        assert_eq!(builds, report.tables_built, "{label}: seed.table spans");
        let progress = recorder.progress();
        assert_eq!(
            progress.pairs_total, 12,
            "{label}: three genome pairs of 2 × 2"
        );
        assert_eq!(progress.pairs_done, 12, "{label}");
    }
}
