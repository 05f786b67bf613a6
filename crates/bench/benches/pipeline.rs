//! End-to-end pipeline throughput: Darwin-WGA vs the LASTZ-like baseline
//! on a small whole-genome alignment, plus thread scaling of the barrier
//! schedule.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use genome::evolve::{EvolutionParams, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seed::SeedTable;
use std::sync::Arc;
use wga_core::obs::Obs;
use wga_core::{config::WgaParams, pipeline::run_pair, pipeline::WgaPipeline};

fn bench_pipeline(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let pair = SyntheticPair::generate(30_000, &EvolutionParams::at_distance(0.3), &mut rng);

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pair.target.sequence.len() as u64));
    group.bench_function("darwin_wga_30kb", |b| {
        b.iter(|| {
            WgaPipeline::new(WgaParams::darwin_wga()).run(
                black_box(&pair.target.sequence),
                black_box(&pair.query.sequence),
            )
        })
    });
    group.bench_function("lastz_like_30kb", |b| {
        b.iter(|| {
            WgaPipeline::new(WgaParams::lastz_baseline()).run(
                black_box(&pair.target.sequence),
                black_box(&pair.query.sequence),
            )
        })
    });
    group.bench_function("darwin_wga_30kb_4threads", |b| {
        b.iter(|| {
            // Table build included, like the `WgaPipeline::run` rows.
            let params = WgaParams::darwin_wga();
            let target = black_box(&pair.target.sequence);
            let table =
                SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences);
            run_pair(&params, Arc::new(table), target, black_box(&pair.query.sequence), 4, Obs::off())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
