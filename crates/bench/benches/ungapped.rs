//! Ungapped vs gapped filtering cost — the paper's "200×" claim (§I).
//!
//! "Ungapped filtering ... is used because it is 200× faster than
//! performing gapped alignment, using dynamic programming, in software."
//! This bench times both filters on the same seed hit so the ratio can be
//! read directly off the criterion report.

use align::banded::banded_smith_waterman;
use align::ungapped::ungapped_extend;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use genome::markov::MarkovModel;
use genome::{GapPenalties, Sequence, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Sequence, Sequence) {
    let mut rng = StdRng::seed_from_u64(3);
    let model = MarkovModel::genome_like();
    // A shared 200-base core so the ungapped filter does real extension
    // work rather than dying instantly.
    let core = model.generate(200, &mut rng);
    let mut target = model.generate(60, &mut rng);
    target.extend(core.iter());
    target.extend(model.generate(60, &mut rng).iter());
    let mut query = model.generate(60, &mut rng);
    query.extend(core.iter());
    query.extend(model.generate(60, &mut rng).iter());
    (target, query)
}

fn bench_filters(c: &mut Criterion) {
    let (target, query) = setup();
    let (target_bases, query_bases) = (target.to_bases(), query.to_bases());
    let w = SubstitutionMatrix::darwin_wga();
    let g = GapPenalties::darwin_wga();

    let mut group = c.benchmark_group("filter_cost");
    group.bench_function("ungapped_xdrop", |b| {
        b.iter(|| {
            ungapped_extend(
                black_box(&target),
                black_box(&query),
                100,
                100,
                19,
                &w,
                910,
            )
        })
    });
    group.bench_function("gapped_bsw_tile", |b| {
        b.iter(|| {
            banded_smith_waterman(
                black_box(&target_bases),
                black_box(&query_bases),
                &w,
                &g,
                32,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
