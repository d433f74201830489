//! Property tests for the PrivBasis core: reconstruction correctness, basis-set coverage,
//! ConstructBasisSet against its itemset-built oracle, and the degradation of the private
//! algorithm to the exact one when ε = ∞.

use pb_core::consistency::count_monotonicity_violations;
use pb_core::freq::{superset_sums, superset_sums_naive};
use pb_core::variance::single_basis_variance;
use pb_core::{
    basis_freq_counts, construct_basis_set, enforce_consistency, BasisSet, ConsistencyOptions,
    PrivBasis,
};
use pb_dp::Epsilon;
use pb_fim::itemset::{Item, ItemSet};
use pb_fim::topk::top_k_itemsets;
use pb_fim::TransactionDb;
use pb_graph::bron_kerbosch::maximal_cliques_with_min_size;
use pb_graph::UndirectedGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Transactions always contain at least one item: PrivBasis reports `EmptyDatabase` when no
    // item is ever observed, which is covered by a dedicated unit test instead.
    prop::collection::vec(prop::collection::vec(0u32..10, 1..6), 1..40)
        .prop_map(TransactionDb::from_transactions)
}

fn arb_basis_set() -> impl Strategy<Value = BasisSet> {
    prop::collection::vec(prop::collection::vec(0u32..10, 1..5), 1..4)
        .prop_map(|bases| BasisSet::new(bases.into_iter().map(ItemSet::new).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zeta_transform_matches_naive(bins in prop::collection::vec(-100.0f64..100.0, 1usize..7)
                                        .prop_map(|v| {
                                            let n = 1usize << v.len().min(6);
                                            (0..n).map(|i| v[i % v.len()] + i as f64).collect::<Vec<f64>>()
                                        })) {
        let a = superset_sums(&bins);
        let b = superset_sums_naive(&bins);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn noiseless_basis_freq_equals_true_supports(db in arb_db(), basis in arb_basis_set()) {
        let mut rng = StdRng::seed_from_u64(7);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite);
        for (itemset, est) in counts.iter() {
            prop_assert!((est.count - db.support(itemset) as f64).abs() < 1e-9,
                         "{:?}: {} vs {}", itemset, est.count, db.support(itemset));
        }
        // Every non-empty subset of every basis is a candidate.
        for b in basis.bases() {
            for s in b.subsets() {
                if !s.is_empty() {
                    prop_assert!(counts.get(&s).is_some());
                }
            }
        }
    }

    #[test]
    fn bin_noise_keeps_candidate_structure(db in arb_db(), basis in arb_basis_set(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noiseless = basis_freq_counts(&mut StdRng::seed_from_u64(0), &db, &basis, Epsilon::Infinite);
        let noisy = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Finite(1.0));
        prop_assert_eq!(noisy.len(), noiseless.len());
        for (itemset, est) in noisy.iter() {
            prop_assert!(est.count.is_finite());
            prop_assert!(est.variance_units > 0.0);
            prop_assert!(noiseless.get(itemset).is_some());
        }
    }

    #[test]
    fn constructed_basis_covers_items_and_pairs(
        items in prop::collection::btree_set(0u32..30, 1..15),
        pair_bits in prop::collection::vec(any::<bool>(), 0..100),
    ) {
        let f: ItemSet = items.iter().copied().collect();
        let v: Vec<u32> = f.items().to_vec();
        let mut pairs = Vec::new();
        let mut idx = 0;
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                if idx < pair_bits.len() && pair_bits[idx] {
                    pairs.push((v[i], v[j]));
                }
                idx += 1;
            }
        }
        let basis = construct_basis_set(&f, &pairs, 12);
        for &item in &v {
            prop_assert!(basis.covers(&ItemSet::singleton(item)), "item {} uncovered", item);
        }
        for &(a, b) in &pairs {
            prop_assert!(basis.covers(&ItemSet::pair(a, b)), "pair ({},{}) uncovered", a, b);
        }
        prop_assert!(basis.length() <= 12);
    }

    #[test]
    fn privbasis_runs_and_returns_at_most_k(db in arb_db(), k in 1usize..15, seed in any::<u64>()) {
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = pb.run(&mut rng, &db, k, Epsilon::Finite(1.0)).unwrap();
        prop_assert!(out.itemsets.len() <= k);
        // Distinct itemsets, all covered by the basis set.
        let mut seen = std::collections::HashSet::new();
        for (s, c) in &out.itemsets {
            prop_assert!(c.is_finite());
            prop_assert!(out.basis_set.covers(s));
            prop_assert!(seen.insert(s.clone()));
        }
    }

    #[test]
    fn noiseless_privbasis_counts_are_exact(db in arb_db(), k in 1usize..10, seed in any::<u64>()) {
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = pb.run(&mut rng, &db, k, Epsilon::Infinite).unwrap();
        for (s, c) in &out.itemsets {
            prop_assert!((c - db.support(s) as f64).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn consistency_repairs_all_monotonicity_violations(
        db in arb_db(),
        basis in arb_basis_set(),
        seed in 0u64..1_000,
    ) {
        // Arbitrary basis lattices (overlapping bases included) under heavy noise: after
        // the repair there must be zero parent-child monotonicity violations and every
        // count must sit inside [0, N].
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Finite(0.05));
        let adjusted = enforce_consistency(&counts, db.len(), ConsistencyOptions::default());
        prop_assert_eq!(count_monotonicity_violations(&adjusted, 1e-6), 0);
        let n = db.len() as f64;
        for (itemset, &v) in &adjusted {
            prop_assert!((0.0..=n).contains(&v), "{:?} repaired to {}", itemset, v);
        }
        // The repair relabels counts; it never adds or drops candidates.
        prop_assert_eq!(adjusted.len(), counts.len());
    }

    #[test]
    fn consistency_never_increases_noiseless_error(
        db in arb_db(),
        basis in arb_basis_set(),
    ) {
        // In the noiseless case the raw counts are exact, so their total absolute error
        // is zero — the repair must not move them (exact tables already satisfy every
        // constraint it enforces).
        let mut rng = StdRng::seed_from_u64(11);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite);
        let adjusted = enforce_consistency(&counts, db.len(), ConsistencyOptions::default());
        let mut raw_err = 0.0;
        let mut adj_err = 0.0;
        for (itemset, est) in counts.iter() {
            let truth = db.support(itemset) as f64;
            raw_err += (est.count - truth).abs();
            adj_err += (adjusted[itemset] - truth).abs();
        }
        prop_assert!(raw_err < 1e-9);
        prop_assert!(adj_err <= raw_err + 1e-9, "raw {} adjusted {}", raw_err, adj_err);
    }
}

/// Non-proptest statistical check: with ε = ∞ PrivBasis equals the exact top-k on a database
/// with a clean frequency ladder.
#[test]
fn noiseless_end_to_end_exactness() {
    let mut transactions = Vec::new();
    for i in 0..2_000usize {
        let row: Vec<u32> = (0..8u32)
            .filter(|&j| (i % 16) < 16 - 2 * j as usize)
            .collect();
        transactions.push(row);
    }
    let db = TransactionDb::from_transactions(transactions);
    let pb = PrivBasis::with_defaults();
    let mut rng = StdRng::seed_from_u64(3);
    let out = pb.run(&mut rng, &db, 7, Epsilon::Infinite).unwrap();
    let truth: Vec<ItemSet> = top_k_itemsets(&db, 7, None)
        .into_iter()
        .map(|f| f.items)
        .collect();
    let published: std::collections::HashSet<&ItemSet> =
        out.itemsets.iter().map(|(s, _)| s).collect();
    assert!(truth.iter().all(|t| published.contains(t)));
}

/// Algorithm 2 as first written: every candidate merge or dissolve is materialised as a
/// `BasisSet` (cloned groups, `BasisSet::new`'s sort and subset filter) and scored by
/// combining each query's covering estimates from that `BasisSet`. The library scores
/// candidates over bitsets without building them; the two must pick the same bases.
mod construct_oracle {
    use super::*;

    const UNCOVERED_PENALTY: f64 = 1e12;

    fn combined_variance(variances: &[f64]) -> f64 {
        if variances.is_empty() {
            return f64::INFINITY;
        }
        let inv_sum: f64 = variances.iter().map(|v| 1.0 / v).sum();
        1.0 / inv_sum
    }

    fn itemset_variance(basis_set: &BasisSet, itemset: &ItemSet) -> f64 {
        let w = basis_set.width();
        let variances: Vec<f64> = basis_set
            .covering_bases(itemset)
            .into_iter()
            .map(|i| single_basis_variance(w, basis_set.bases()[i].len(), itemset.len()))
            .collect();
        combined_variance(&variances)
    }

    fn average_variance(basis_set: &BasisSet, queries: &[ItemSet]) -> f64 {
        if queries.is_empty() {
            return 0.0;
        }
        let total: f64 = queries
            .iter()
            .map(|q| {
                let v = itemset_variance(basis_set, q);
                if v.is_finite() {
                    v
                } else {
                    UNCOVERED_PENALTY
                }
            })
            .sum();
        total / queries.len() as f64
    }

    fn assemble(b1: &[ItemSet], b2: &[ItemSet]) -> BasisSet {
        BasisSet::new(b1.iter().chain(b2.iter()).cloned().collect())
    }

    fn dissolve_group(
        b1: &[ItemSet],
        b2: &[ItemSet],
        idx: usize,
        max_basis_len: usize,
    ) -> (Vec<ItemSet>, Vec<ItemSet>) {
        let mut new_b1 = b1.to_vec();
        let mut new_b2: Vec<ItemSet> = b2
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, s)| s.clone())
            .collect();
        for item in b2[idx].iter() {
            let mut target: Option<(bool, usize, usize)> = None;
            for (i, b) in new_b2.iter().enumerate() {
                if b.len() < max_basis_len && target.is_none_or(|(_, _, l)| b.len() < l) {
                    target = Some((false, i, b.len()));
                }
            }
            for (i, b) in new_b1.iter().enumerate() {
                if b.len() < max_basis_len && target.is_none_or(|(_, _, l)| b.len() < l) {
                    target = Some((true, i, b.len()));
                }
            }
            match target {
                Some((false, i, _)) => new_b2[i] = new_b2[i].with_item(item),
                Some((true, i, _)) => new_b1[i] = new_b1[i].with_item(item),
                None => new_b2.push(ItemSet::singleton(item)),
            }
        }
        (new_b1, new_b2)
    }

    pub fn construct(
        frequent_items: &ItemSet,
        frequent_pairs: &[(Item, Item)],
        max_basis_len: usize,
    ) -> BasisSet {
        if frequent_items.is_empty() {
            return BasisSet::new(vec![]);
        }
        let valid =
            |a: Item, b: Item| a != b && frequent_items.contains(a) && frequent_items.contains(b);
        let mut graph = UndirectedGraph::new();
        let mut paired_items: BTreeSet<Item> = BTreeSet::new();
        for &(a, b) in frequent_pairs {
            if valid(a, b) {
                graph.add_edge(a, b);
                paired_items.insert(a);
                paired_items.insert(b);
            }
        }
        let mut b1: Vec<ItemSet> = Vec::new();
        for clique in maximal_cliques_with_min_size(&graph, 2) {
            for chunk in clique.chunks(max_basis_len) {
                b1.push(ItemSet::new(chunk.to_vec()));
            }
        }
        let unpaired: Vec<Item> = frequent_items
            .iter()
            .filter(|i| !paired_items.contains(i))
            .collect();
        let mut b2: Vec<ItemSet> = unpaired
            .chunks(3)
            .map(|chunk| ItemSet::new(chunk.to_vec()))
            .collect();
        let mut queries: Vec<ItemSet> = frequent_items.iter().map(ItemSet::singleton).collect();
        for &(a, b) in frequent_pairs {
            if valid(a, b) {
                queries.push(ItemSet::pair(a, b));
            }
        }

        loop {
            let current = average_variance(&assemble(&b1, &b2), &queries);
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..b1.len() {
                for j in (i + 1)..b1.len() {
                    let merged = b1[i].union(&b1[j]);
                    if merged.len() > max_basis_len {
                        continue;
                    }
                    let mut candidate = b1.clone();
                    candidate[i] = merged;
                    candidate.remove(j);
                    let reduction =
                        current - average_variance(&assemble(&candidate, &b2), &queries);
                    if reduction > 1e-12 && best.is_none_or(|(_, _, r)| reduction > r) {
                        best = Some((i, j, reduction));
                    }
                }
            }
            match best {
                Some((i, j, _)) => {
                    b1[i] = b1[i].union(&b1[j]);
                    b1.remove(j);
                }
                None => break,
            }
        }
        loop {
            let current = average_variance(&assemble(&b1, &b2), &queries);
            let mut best: Option<(Vec<ItemSet>, Vec<ItemSet>, f64)> = None;
            for i in 0..b2.len() {
                let (c1, c2) = dissolve_group(&b1, &b2, i, max_basis_len);
                let reduction = current - average_variance(&assemble(&c1, &c2), &queries);
                if reduction > 1e-12 && best.as_ref().is_none_or(|&(_, _, r)| reduction > r) {
                    best = Some((c1, c2, reduction));
                }
            }
            match best {
                Some((c1, c2, _)) => {
                    b1 = c1;
                    b2 = c2;
                }
                None => break,
            }
        }
        assemble(&b1, &b2)
    }
}

/// Every pair of `items` kept with probability `density_pct`%, drawn from `seed`.
fn random_pairs(items: &ItemSet, density_pct: u32, seed: u64) -> Vec<(Item, Item)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = items.items();
    let mut pairs = Vec::new();
    for i in 0..v.len() {
        for j in (i + 1)..v.len() {
            if rng.gen_range(0..100u32) < density_pct {
                pairs.push((v[i], v[j]));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn construct_basis_set_matches_the_itemset_oracle(
        items in prop::collection::btree_set(0u32..40, 1..19),
        density_pct in 0u32..36,
        pair_seed in any::<u64>(),
        max_len in 2usize..13,
    ) {
        let f: ItemSet = items.iter().copied().collect();
        let pairs = random_pairs(&f, density_pct, pair_seed);
        prop_assert_eq!(
            construct_basis_set(&f, &pairs, max_len),
            construct_oracle::construct(&f, &pairs, max_len)
        );
    }
}

#[test]
fn construct_basis_set_matches_the_oracle_beyond_128_items() {
    // |F| = 150 spans three bitset words; sparse pairs (triangles, a chain, items far
    // apart) put bases across word boundaries.
    let f: ItemSet = (0..150u32).map(|i| i * 7 + 3).collect();
    let v = f.items();
    let mut pairs: Vec<(Item, Item)> = Vec::new();
    for t in (0..40).step_by(4) {
        pairs.extend([(v[t], v[t + 1]), (v[t + 1], v[t + 2]), (v[t], v[t + 2])]);
    }
    for t in 60..70 {
        pairs.push((v[t], v[t + 1]));
    }
    pairs.extend([
        (v[0], v[149]),
        (v[63], v[64]),
        (v[127], v[128]),
        (v[5], v[140]),
    ]);
    for max_len in [3, 12] {
        let got = construct_basis_set(&f, &pairs, max_len);
        assert_eq!(got, construct_oracle::construct(&f, &pairs, max_len));
        assert!(got.width() > 1 && got.length() <= max_len);
    }
}
