//! Bench B3 — end-to-end wall time of a private top-k release: PrivBasis vs the TF baseline
//! on the mushroom and retail profiles.

use criterion::{criterion_group, criterion_main, Criterion};
use pb_core::PrivBasis;
use pb_datagen::DatasetProfile;
use pb_dp::Epsilon;
use pb_tf::{TfConfig, TfMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let cases = [
        (DatasetProfile::Mushroom, 0.1, 50usize),
        (DatasetProfile::Retail, 0.02, 50usize),
    ];
    for (profile, scale, k) in cases {
        let db = profile.generate(scale, 3);
        let mut group = c.benchmark_group(format!("end_to_end/{}", profile.name()));
        group.sample_size(10);
        let pb = PrivBasis::with_defaults();
        group.bench_function("privbasis", |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(pb.run(&mut rng, &db, k, Epsilon::Finite(1.0)).unwrap())
            })
        });
        let tf = TfMethod::new(TfConfig::new(k, 2, Epsilon::Finite(1.0)));
        group.bench_function("tf_baseline", |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(tf.run(&mut rng, &db))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
