//! Bench B7 — the per-query bookkeeping around the counting sweep, on the shapes the
//! serving queries of the 100k-row Quest fixture take (the basis sets of deterministic
//! noiseless runs; each shape is asserted so a fixture drift fails loudly).
//!
//! `reconstruction/lattice` — noise draw plus reconstruction through
//! `basis_freq_counts_with_histograms`, with the exact histograms precomputed so no
//! counting is timed:
//!
//! * `single_l9` — k=20: one 9-item basis, 511 candidates;
//! * `five_bases` — k=40: five overlapping bases of 4–5 items, 98 candidates.
//!
//! `construct` — ConstructBasisSet (Algorithm 2) on the selected items and pairs:
//!
//! * `k40` — λ=14 items and 20 pairs, giving bases of 5/5/4/4/5 items;
//! * `k100` — λ=24 items and 45 pairs, giving bases of 6/7/5/5/5/5/6 items.
//!
//! `reply/encode` — `Response::encode` of a released query reply at v2 with an id,
//! the last step of every served query. The replies are pinned-seed ε=1 releases
//! (noisy, fractional counts, as served):
//!
//! * `k20` — 20 itemsets from one 9-item basis;
//! * `k40` — 40 itemsets from five bases of 4–5 items.

use criterion::{criterion_group, criterion_main, Criterion};
use pb_bench::quest_db;
use pb_core::freq::basis_freq_counts_with_histograms;
use pb_core::{construct_basis_set, PrivBasis, PrivBasisOutput, PrivBasisParams};
use pb_dp::Epsilon;
use pb_fim::VerticalIndex;
use pb_proto::{QueryReply, ReleasedItemset, Response, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn noiseless_run(pb: &PrivBasis, db: &pb_fim::TransactionDb, k: usize) -> PrivBasisOutput {
    pb.run(&mut StdRng::seed_from_u64(1), db, k, Epsilon::Infinite)
        .unwrap()
}

fn widths(output: &PrivBasisOutput) -> Vec<usize> {
    output.basis_set.bases().iter().map(|b| b.len()).collect()
}

fn bench_lattice(c: &mut Criterion) {
    let db = quest_db(100_000);
    let index = VerticalIndex::build(&db);
    let pb = PrivBasis::with_defaults();
    let mut group = c.benchmark_group("reconstruction/lattice");
    group.sample_size(100);
    for (name, k, shape, candidates) in [
        ("single_l9", 20, vec![9], 511),
        ("five_bases", 40, vec![5, 5, 4, 4, 5], 98),
    ] {
        let output = noiseless_run(&pb, &db, k);
        assert_eq!(
            widths(&output),
            shape,
            "k={k} no longer has the {name} shape"
        );
        assert_eq!(output.candidate_count, candidates);
        let basis_set = output.basis_set;
        let hists = index.bin_histograms(basis_set.bases(), 1);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(basis_freq_counts_with_histograms(
                    &mut rng,
                    &basis_set,
                    Epsilon::Finite(1.0),
                    |_| hists.clone(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_construct(c: &mut Criterion) {
    let db = quest_db(100_000);
    let pb = PrivBasis::with_defaults();
    let max_len = PrivBasisParams::default().max_basis_len;
    let mut group = c.benchmark_group("construct");
    group.sample_size(50);
    for (name, k, lambda, num_pairs, shape) in [
        ("k40", 40, 14, 20, vec![5, 5, 4, 4, 5]),
        ("k100", 100, 24, 45, vec![6, 7, 5, 5, 5, 5, 6]),
    ] {
        let output = noiseless_run(&pb, &db, k);
        let selected = (output.frequent_items.len(), output.frequent_pairs.len());
        assert_eq!(selected, (lambda, num_pairs), "k={k} selection drifted");
        assert_eq!(
            widths(&output),
            shape,
            "k={k} no longer has the {name} shape"
        );
        let items = output.frequent_items;
        let pairs = output.frequent_pairs;
        group.bench_function(name, |b| {
            b.iter(|| black_box(construct_basis_set(&items, &pairs, max_len)))
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let db = quest_db(100_000);
    let pb = PrivBasis::with_defaults();
    let mut group = c.benchmark_group("reply/encode");
    group.sample_size(100);
    for (name, k, shape) in [("k20", 20, vec![9]), ("k40", 40, vec![5, 5, 4, 4, 5])] {
        let output = pb
            .run(&mut StdRng::seed_from_u64(5), &db, k, Epsilon::Finite(1.0))
            .unwrap();
        assert_eq!(
            widths(&output),
            shape,
            "the pinned k={k} release no longer has the {name} shape"
        );
        assert_eq!(output.itemsets.len(), k);
        // Built field for field as the server's `query_reply` builds it.
        let reply = Response::Query(QueryReply {
            dataset: "quest".into(),
            epsilon_spent: 1.0,
            remaining_budget: 99.0,
            seed: 5,
            lambda: output.lambda as u64,
            candidate_count: output.candidate_count as u64,
            itemsets: output
                .itemsets
                .iter()
                .map(|(itemset, count)| ReleasedItemset {
                    items: itemset.iter().collect(),
                    count: *count,
                })
                .collect(),
        });
        group.bench_function(name, |b| {
            b.iter(|| black_box(reply.encode(PROTOCOL_VERSION, Some("q-1"))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lattice, bench_construct, bench_encode);
criterion_main!(benches);
