//! Bench B6 — the pb-service cached paths vs per-query cold precomputation, and the
//! sharded execution engine vs the single full index.
//!
//! `service/cached_vs_cold_index` — two rungs, both publishing byte-identical releases
//! for the same seed:
//!
//! * `cold_build_per_query` — `PrivBasis::run`: every query pays the item-frequency scan,
//!   the θ mining pass, and a restricted index build.
//! * `cached_query_context` — `PrivBasis::run_shared` with a `QueryContext` (what
//!   `pb-service` caches per dataset): the shard's full index, item ranking, and θ memo
//!   all reused, leaving only the private mechanisms and bin counting per query.
//!
//! `service/sharded_vs_single` — one shard against four, again byte-identical by
//! construction:
//!
//! * `single_index_counts` / `sharded_counts_s4` — the BasisFreq bin histograms plus
//!   pair counting (the per-query counting work a warm server does), on one full index
//!   vs 4 row shards merged by summation.
//! * `single_index_query` / `sharded_query_s4` — the whole warm `run_shared` query on
//!   an unsharded (one-shard) context vs a 4-shard one.
//!
//! Shard counting splits the same total work across per-shard indexes, so it is at
//! parity on a single hardware thread and wins roughly linearly with real cores (each
//! shard sweeps and pair-counts independently; the merge is a few integer adds).

use criterion::{criterion_group, criterion_main, Criterion};
use pb_bench::quest_db;
use pb_core::{PrivBasis, QueryContext};
use pb_dp::Epsilon;
use pb_fim::VerticalIndex;
use pb_shard::ShardedDb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_cached_vs_cold(c: &mut Criterion) {
    let db = quest_db(100_000);
    let pb = PrivBasis::with_defaults();
    let k = 20;
    let eps = Epsilon::Finite(1.0);
    let mut group = c.benchmark_group("service/cached_vs_cold_index");
    group.sample_size(10);

    group.bench_function("cold_build_per_query", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(pb.run(&mut rng, &db, k, eps).unwrap())
        })
    });

    let context = QueryContext::new(Arc::new(db.clone()));
    group.bench_function("cached_query_context", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(pb.run_shared(&mut rng, &context, k, eps).unwrap())
        })
    });

    group.finish();
}

fn bench_sharded_vs_single(c: &mut Criterion) {
    let db = quest_db(100_000);
    let pb = PrivBasis::with_defaults();
    let k = 20;
    let eps = Epsilon::Finite(1.0);
    let shards = 4;

    // A fixed basis set + item selection for the counting-only rungs: take them from a
    // deterministic noiseless run so both engines count exactly the same bases.
    let reference = pb
        .run(&mut StdRng::seed_from_u64(1), &db, k, Epsilon::Infinite)
        .unwrap();
    let basis_set = reference.basis_set.clone();
    let frequent_items = reference.frequent_items.clone();

    let index = VerticalIndex::build(&db);
    let sharded = ShardedDb::partition(&db, shards);
    // Warm the per-shard indexes so the rungs measure counting, not building.
    for shard in sharded.shards() {
        shard.index();
    }

    let mut group = c.benchmark_group("service/sharded_vs_single");
    group.sample_size(10);

    group.bench_function("single_index_counts", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let counts = pb_core::basis_freq_counts_with_index(&mut rng, &index, &basis_set, eps);
            black_box((counts.len(), index.pair_counts(&frequent_items).len()))
        })
    });

    group.bench_function(format!("sharded_counts_s{shards}").as_str(), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let counts =
                pb_core::basis_freq_counts_with_histograms(&mut rng, &basis_set, eps, |bases| {
                    sharded.bin_histograms(bases)
                });
            black_box((counts.len(), sharded.pair_counts(&frequent_items).len()))
        })
    });

    let single_ctx = QueryContext::new(Arc::new(db.clone()));
    let sharded_ctx = QueryContext::sharded(ShardedDb::partition(&db, shards).into_shared());
    group.bench_function("single_index_query", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(pb.run_shared(&mut rng, &single_ctx, k, eps).unwrap())
        })
    });
    group.bench_function(format!("sharded_query_s{shards}").as_str(), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(pb.run_shared(&mut rng, &sharded_ctx, k, eps).unwrap())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cached_vs_cold, bench_sharded_vs_single);
criterion_main!(benches);
