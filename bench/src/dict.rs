//! The workload and metric dictionary. `BENCHMARK.json` repeats it and
//! `tests/dictionary.rs` holds the two to each other, name by name.

/// One `wga generate` call that makes part of a workload's input.
#[derive(Debug, Clone, Copy)]
pub struct GenSpec {
    /// Output prefix: `<prefix>.target.fa`, `<prefix>.query.fa`, `<prefix>.exons.tsv`.
    pub prefix: &'static str,
    /// `--len`.
    pub len: u32,
    /// `--distance`, as typed.
    pub distance: &'static str,
    /// `--chroms`.
    pub chroms: u32,
    /// `--seed` of the generator. Fixed per workload: the ledger's own
    /// `--seed` turns each generated sequence about a different origin
    /// (see [`crate::fasta::rotation_q32`]) rather than drawing a new
    /// genome, because a new genome changes the work of a pass by more
    /// than any regression bound (README, "What the seed does"). The
    /// values are ISSUE 13's table at S = 1 (`S`, `S+1`, `S+10..S+13`,
    /// `S+2`), not chosen by what they measure.
    pub seed: u64,
}

/// The timed command of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    /// `wga align T Q --threads N [--executor dataflow] --maf out.maf`.
    Align { threads: u32, dataflow: bool },
    /// `wga many <every fasta> --threads 1 --paf-out out.paf`.
    Many,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists; `BENCHMARK.json` carries the same text.
    pub why: &'static str,
    pub inputs: &'static [GenSpec],
    pub timed: Timed,
}

impl Workload {
    /// Threads the timed child uses; the ledger refuses to run a workload
    /// on a machine with fewer processors.
    pub fn threads(&self) -> u32 {
        match self.timed {
            Timed::Align { threads, .. } => threads,
            Timed::Many => 1,
        }
    }
}

const fn pair(
    prefix: &'static str,
    len: u32,
    distance: &'static str,
    chroms: u32,
    seed: u64,
) -> GenSpec {
    GenSpec {
        prefix,
        len,
        distance,
        chroms,
        seed,
    }
}

/// The four workloads, in the order `ledger all` and `ledger aa` run them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "near_ext",
        why: "50 kb pair at distance 0.30, 1 thread: GACT-X extension is ~6/7 of the pass, BSW filter ~1/8; long alignments through many tiles",
        inputs: &[pair("near", 50_000, "0.30", 1, 1)],
        timed: Timed::Align { threads: 1, dataflow: false },
    },
    Workload {
        name: "far_filter",
        why: "80 kb pair at distance 1.30 (~190 kb after turnover), 1 thread: noise tiles make the BSW filter ~7/10 of the pass; largest seed table of the 1-thread workloads",
        inputs: &[pair("far", 80_000, "1.30", 1, 2)],
        timed: Timed::Align { threads: 1, dataflow: false },
    },
    Workload {
        name: "many8",
        why: "wga many over 8 genomes of ~22 kb (4 related pairs, 24 unrelated), 1 thread: shared seed index built 7x and looked up 28x, per-pair re-encoding, matrix orchestration, dedup, PAF output",
        inputs: &[
            pair("c0", 20_000, "0.15", 1, 11),
            pair("c1", 20_000, "0.15", 1, 12),
            pair("c2", 20_000, "0.15", 1, 13),
            pair("c3", 20_000, "0.15", 1, 14),
        ],
        timed: Timed::Many,
    },
    Workload {
        name: "chroms_t2",
        why: "4-chromosome 60 kb pair at distance 0.30, dataflow executor at 2 threads: the only workload where bounded queues, thread grants and extension speculation run",
        inputs: &[pair("chroms", 60_000, "0.30", 4, 3)],
        timed: Timed::Align { threads: 2, dataflow: true },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The gated end-to-end metrics every workload reports: the ones that
/// repeat. A run also prints `wall_s` and `cpu_s`, ungated, because on
/// the shared machine this was written on runs of the same code spread by
/// more than the largest bound the contract allows (README, "Measured on
/// this box"). `peak_rss_mb` sits at that ceiling for `chroms_t2` alone,
/// whose resident set follows its schedule; `setup_s` carries the
/// largest, as the contract requires. `matched_bp` is exact for a seed;
/// its bound is what one borderline alignment of `far_filter`, lost at
/// one origin in six, can make ten seeds spread (README, "What the seed
/// does").
pub const END_TO_END: [EndToEnd; 3] = [
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("matched_bp", "bp", Better::Higher, 0.09),
];

/// An ungated per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by the module it measures. A traced
/// run prints all of them; one that a workload does not exercise (the
/// `core.pangenome.*` group outside `many8`, the thread-scaling group
/// outside `chroms_t2`) reads 0.
pub const PER_LAYER: [PerLayer; 56] = [
    // genome
    lo("genome.fasta_read.ms", "ms"),
    hi("genome.fasta_read.mb_per_s", "MB/s"),
    // seed
    lo("seed.table_build.ms", "ms"),
    hi("seed.table_build.mbases_per_s", "Mbases/s"),
    lo("seed.table.positions", "count"),
    lo("seed.dsoft.ms", "ms"),
    hi("seed.dsoft.mseeds_per_s", "Mseeds/s"),
    lo("seed.dsoft.seeds_queried", "count"),
    lo("seed.dsoft.hits", "count"),
    lo("seed.dsoft.hit_yield_ppm", "ppm"),
    // align, banded Smith-Waterman filter
    hi("align.bsw_scalar.mcells_per_s", "Mcells/s"),
    hi("align.bsw_batched.mcells_per_s", "Mcells/s"),
    hi("align.bsw_simd.mcells_per_s", "Mcells/s"),
    hi("align.bsw_batched_over_scalar_x100", "x100"),
    hi("align.bsw_simd_over_batched_x100", "x100"),
    lo("align.bsw.tiles", "count"),
    lo("align.bsw.cells", "count"),
    hi("align.bsw.pass_ppm", "ppm"),
    // align, GACT-X extension
    lo("align.gactx.ms", "ms"),
    hi("align.gactx.mcells_per_s", "Mcells/s"),
    lo("align.gactx.extensions", "count"),
    lo("align.gactx.tiles", "count"),
    lo("align.gactx.cells", "count"),
    lo("align.gactx.cells_per_matched_bp", "cells/bp"),
    // core, serial path
    lo("core.filter_ctx.encode_ms", "ms"),
    hi("core.absorb.absorbed_pct", "%"),
    hi("core.extend.kept_pct", "%"),
    lo("core.maf_write.ms", "ms"),
    hi("core.maf_write.mb_per_s", "MB/s"),
    lo("core.journal.append_ms", "ms"),
    // core::pangenome (many8 only)
    lo("core.pangenome.pairs", "count"),
    lo("core.pangenome.tables_built", "count"),
    hi("core.pangenome.dedup_dropped", "count"),
    lo("core.pangenome.orchestration_pct", "%"),
    // chain
    lo("chain.chainer.ms", "ms"),
    lo("chain.chainer.alignments_in", "count"),
    lo("chain.chainer.chains_out", "count"),
    // in-situ trace, attributed by wga-profile
    lo("trace.seed_table.us", "us"),
    lo("trace.seed.us", "us"),
    lo("trace.filter_batch.us", "us"),
    lo("trace.extend.us", "us"),
    lo("trace.queue_wait.us", "us"),
    lo("trace.seed_share_pct", "%"),
    lo("trace.filter_share_pct", "%"),
    lo("trace.extend_share_pct", "%"),
    hi("trace.worker_busy_pct", "%"),
    lo("trace.worker_wait_pct", "%"),
    lo("trace.worker_idle_pct", "%"),
    lo("trace.critical_path.us", "us"),
    lo("trace.spec_discard", "count"),
    lo("trace.discard_pct", "%"),
    lo("trace.overhead_pct", "%"),
    // thread scaling (chroms_t2 only)
    lo("core.dataflow_t2.wall_pct_of_t1", "%"),
    lo("core.dataflow_t2.cpu_pct_of_t1", "%"),
    lo("core.barrier_t2.wall_pct_of_t1", "%"),
    lo("core.barrier_t2.cpu_pct_of_t1", "%"),
];
