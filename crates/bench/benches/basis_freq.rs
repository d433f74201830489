//! Bench B1 — BasisFreq (Algorithm 1) running time.
//!
//! §4.2 analyses the running time as O(w·|D| + w·3^ℓ): linear in the basis-set width w,
//! exponential in the basis length ℓ. The two benchmark groups sweep each factor separately.
//!
//! `sweep` — the w·|D| term alone: `VerticalIndex::bin_histograms` at one thread on a
//! pre-built index over the 100k-row Quest fixture the service benchmark serves:
//!
//! * `l6`, `l9`, `l12` — one basis of the ℓ most frequent items (one or two byte planes);
//! * `k40_bases` — the noiseless k=40 basis set: five overlapping bases of 4–5 items,
//!   swept in groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_bench::{dense_db, quest_db};
use pb_core::freq::basis_freq_counts_with_index;
use pb_core::{basis_freq_counts, basis_freq_counts_naive, BasisSet, PrivBasis};
use pb_dp::Epsilon;
use pb_fim::{ItemSet, VerticalIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_width(c: &mut Criterion) {
    let db = dense_db(5_000);
    let mut group = c.benchmark_group("basis_freq/width");
    group.sample_size(10);
    for &w in &[1usize, 2, 4, 8] {
        // w disjoint bases of length 6 each.
        let bases: Vec<ItemSet> = (0..w)
            .map(|i| ItemSet::new(((i * 6) as u32..(i * 6 + 6) as u32).collect()))
            .collect();
        let basis_set = BasisSet::new(bases);
        group.bench_with_input(
            BenchmarkId::from_parameter(w),
            &basis_set,
            |b, basis_set| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    black_box(basis_freq_counts(
                        &mut rng,
                        &db,
                        basis_set,
                        Epsilon::Finite(1.0),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_length(c: &mut Criterion) {
    let db = dense_db(5_000);
    let mut group = c.benchmark_group("basis_freq/length");
    group.sample_size(10);
    for &len in &[4usize, 8, 12, 16] {
        let basis_set = BasisSet::single(ItemSet::new((0..len as u32).collect()));
        group.bench_with_input(
            BenchmarkId::from_parameter(len),
            &basis_set,
            |b, basis_set| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    black_box(basis_freq_counts(
                        &mut rng,
                        &db,
                        basis_set,
                        Epsilon::Finite(1.0),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_database_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("basis_freq/database_size");
    group.sample_size(10);
    let basis_set = BasisSet::new(vec![
        ItemSet::new((0..8u32).collect()),
        ItemSet::new((8..16u32).collect()),
    ]);
    for &n in &[1_000usize, 5_000, 20_000] {
        let db = dense_db(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(basis_freq_counts(
                    &mut rng,
                    db,
                    &basis_set,
                    Epsilon::Finite(1.0),
                ))
            })
        });
    }
    group.finish();
}

/// The acceptance workload for the vertical index: N = 100k transactions, w = 8 bases of
/// length ℓ = 8. Three engines are measured: the naive row scan, the indexed engine
/// including the index build, and the indexed engine on a pre-built index.
fn bench_indexed_vs_naive(c: &mut Criterion) {
    let db = dense_db(100_000);
    let bases: Vec<ItemSet> = (0..8usize)
        .map(|i| ItemSet::new(((i * 8) as u32..(i * 8 + 8) as u32).collect()))
        .collect();
    let basis_set = BasisSet::new(bases);
    let mut group = c.benchmark_group("basis_freq/indexed_vs_naive_100k_w8_l8");
    group.sample_size(10);
    group.bench_function("naive_row_scan", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(basis_freq_counts_naive(
                &mut rng,
                &db,
                &basis_set,
                Epsilon::Finite(1.0),
            ))
        })
    });
    group.bench_function("indexed_including_build", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(basis_freq_counts(
                &mut rng,
                &db,
                &basis_set,
                Epsilon::Finite(1.0),
            ))
        })
    });
    let index = VerticalIndex::build(&db);
    group.bench_function("indexed_prebuilt", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(basis_freq_counts_with_index(
                &mut rng,
                &index,
                &basis_set,
                Epsilon::Finite(1.0),
            ))
        })
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let db = quest_db(100_000);
    let index = VerticalIndex::build(&db);
    let by_frequency = index.items_by_frequency();
    let top = |ell: usize| ItemSet::new(by_frequency[..ell].iter().map(|&(i, _)| i).collect());
    // The basis set of a deterministic noiseless run, as the `consistency` bench takes it.
    let k40 = PrivBasis::with_defaults()
        .run(&mut StdRng::seed_from_u64(1), &db, 40, Epsilon::Infinite)
        .unwrap()
        .basis_set;
    let lens: Vec<usize> = k40.bases().iter().map(|b| b.len()).collect();
    assert_eq!(
        lens,
        [5, 5, 4, 4, 5],
        "k=40 no longer has the five-basis shape"
    );
    let mut group = c.benchmark_group("basis_freq/sweep");
    group.sample_size(50);
    // `_t2` ids split each sweep in two on the counting pool: the caller sweeps one
    // half while a parked pool helper sweeps the other.
    for (name, bases, threads) in [
        ("l6", vec![top(6)], 1),
        ("l9", vec![top(9)], 1),
        ("l12", vec![top(12)], 1),
        ("k40_bases", k40.bases().to_vec(), 1),
        ("l9_t2", vec![top(9)], 2),
        ("k40_bases_t2", k40.bases().to_vec(), 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(index.bin_histograms(&bases, threads)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_width,
    bench_length,
    bench_database_size,
    bench_indexed_vs_naive,
    bench_sweep
);
criterion_main!(benches);
