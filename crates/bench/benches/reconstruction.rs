//! Bench B5 — subset-count reconstruction strategies: the paper's naive O(3^ℓ) superset sums
//! versus the O(ℓ·2^ℓ) zeta transform.
//!
//! `consistency` — the budget-free consistency pass run in place on the candidate lattice,
//! on pinned-seed noisy counts in the two shapes the serving queries of the 100k-row Quest
//! fixture take:
//!
//! * `single_l9` — k=20: one 9-item basis, 511 candidates;
//! * `five_bases` — k=40: five overlapping bases of 4–5 items, 98 candidates.
//!
//! Each timed call repairs a fresh copy of the same table; the copies are made before
//! timing starts (a run with more samples than the pool holds also times the extra
//! copies).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_bench::quest_db;
use pb_core::freq::{superset_sums, superset_sums_naive};
use pb_core::{basis_freq_counts, enforce_consistency_in_place, ConsistencyOptions, PrivBasis};
use pb_dp::Epsilon;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction");
    group.sample_size(20);
    for &len in &[8usize, 12, 16] {
        let bins: Vec<f64> = (0..(1usize << len)).map(|i| (i % 97) as f64).collect();
        group.bench_with_input(BenchmarkId::new("zeta", len), &bins, |b, bins| {
            b.iter(|| black_box(superset_sums(bins)))
        });
        group.bench_with_input(BenchmarkId::new("naive_3l", len), &bins, |b, bins| {
            b.iter(|| black_box(superset_sums_naive(bins)))
        });
    }
    group.finish();
}

fn bench_consistency(c: &mut Criterion) {
    const SAMPLES: usize = 100;
    let db = quest_db(100_000);
    let pb = PrivBasis::with_defaults();
    let mut group = c.benchmark_group("consistency");
    group.sample_size(SAMPLES);
    for (name, k, widths) in [
        ("single_l9", 20, vec![9]),
        ("five_bases", 40, vec![5, 5, 4, 4, 5]),
    ] {
        // The basis set of a deterministic noiseless run, then pinned-seed noisy counts.
        let basis_set = pb
            .run(&mut StdRng::seed_from_u64(1), &db, k, Epsilon::Infinite)
            .unwrap()
            .basis_set;
        let lens: Vec<usize> = basis_set.bases().iter().map(|b| b.len()).collect();
        assert_eq!(lens, widths, "k={k} no longer has the {name} shape");
        let counts = basis_freq_counts(
            &mut StdRng::seed_from_u64(7),
            &db,
            &basis_set,
            Epsilon::Finite(1.0),
        );
        let mut fresh = vec![counts.clone(); SAMPLES + 1];
        let mut repaired = Vec::with_capacity(fresh.len());
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut table = fresh.pop().unwrap_or_else(|| counts.clone());
                enforce_consistency_in_place(&mut table, db.len(), ConsistencyOptions::default());
                repaired.push(table);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reconstruction, bench_consistency);
criterion_main!(benches);
