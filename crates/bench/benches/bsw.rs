//! Software banded Smith-Waterman tile throughput — the "Parasail role".
//!
//! The paper estimates the iso-sensitive software baseline from Parasail's
//! 225K tiles/s (36 threads on a c4.8xlarge) for the 320-base, band-32
//! filter tile. This bench measures our own kernel's single-thread rate;
//! Table V's roll-up uses the rate measured live in its own run.

use align::banded::banded_smith_waterman;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use genome::markov::MarkovModel;
use genome::{GapPenalties, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bsw(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let model = MarkovModel::genome_like();
    let target = model.generate(320, &mut rng).to_bases();
    let query = model.generate(320, &mut rng).to_bases();
    let w = SubstitutionMatrix::darwin_wga();
    let g = GapPenalties::darwin_wga();

    let mut group = c.benchmark_group("bsw");
    group.throughput(Throughput::Elements(1));
    group.bench_function("tile_320_band_32", |b| {
        b.iter(|| {
            banded_smith_waterman(
                black_box(&target),
                black_box(&query),
                &w,
                &g,
                32,
            )
        })
    });
    // Band sweep: cost grows linearly with band width.
    for band in [8usize, 16, 64, 128] {
        group.bench_function(format!("tile_320_band_{band}"), |b| {
            b.iter(|| {
                banded_smith_waterman(
                    black_box(&target),
                    black_box(&query),
                    &w,
                    &g,
                    band,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bsw);
criterion_main!(benches);
