//! Cycle-level array-simulation throughput — how fast the RTL-level
//! models run relative to the software kernels they validate.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use genome::markov::MarkovModel;
use genome::{GapPenalties, SubstitutionMatrix};
use hwsim::bsw_array::BswTileGeometry;
use hwsim::rtl::simulate_bsw_tile;
use hwsim::rtl_gactx::simulate_gactx_tile;
use hwsim::systolic::ArrayConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_rtl(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let model = MarkovModel::genome_like();
    let t = model.generate(320, &mut rng).to_bases();
    let q = model.generate(320, &mut rng).to_bases();
    let w = SubstitutionMatrix::darwin_wga();
    let g = GapPenalties::darwin_wga();
    let geometry = BswTileGeometry::darwin_wga();
    let array = ArrayConfig::fpga();

    let mut group = c.benchmark_group("rtl");
    group.bench_function("bsw_tile_sim", |b| {
        b.iter(|| {
            simulate_bsw_tile(
                black_box(&t),
                black_box(&q),
                &w,
                &g,
                &geometry,
                &array,
            )
        })
    });
    group.bench_function("gactx_tile_sim", |b| {
        b.iter(|| {
            simulate_gactx_tile(
                black_box(&t),
                black_box(&t),
                &w,
                &g,
                9430,
                &array,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rtl);
criterion_main!(benches);
