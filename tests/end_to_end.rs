//! Cross-crate integration tests: synthetic dataset profiles → PrivBasis / TF → utility
//! metrics. These exercise the same pipeline the experiment harness uses, at a small scale.

use privbasis::core::QueryContext;
use privbasis::datagen::DatasetProfile;
use privbasis::fim::topk::top_k_itemsets;
use privbasis::metrics::{false_negative_rate, relative_error, PublishedItemset};
use privbasis::tf::{TfConfig, TfMethod};
use privbasis::{Epsilon, PrivBasis, PrivBasisParams, ShardedDb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn publish(out: &[(privbasis::ItemSet, f64)]) -> Vec<PublishedItemset> {
    out.iter()
        .map(|(s, c)| PublishedItemset::new(s.clone(), *c))
        .collect()
}

#[test]
fn privbasis_noiseless_recovers_topk_on_mushroom_profile() {
    let db = DatasetProfile::Mushroom.generate(0.1, 3);
    let k = 40;
    let truth = top_k_itemsets(&db, k, None);
    let mut rng = StdRng::seed_from_u64(1);
    let out = PrivBasis::with_defaults()
        .run(&mut rng, &db, k, Epsilon::Infinite)
        .unwrap();
    let fnr = false_negative_rate(&truth, &publish(&out.itemsets));
    assert!(fnr <= 0.05, "noiseless FNR should be ~0, got {fnr}");
    let re = relative_error(&db, &publish(&out.itemsets));
    assert!(re < 1e-9, "noiseless relative error should be 0, got {re}");
}

#[test]
fn one_shot_and_context_runs_agree_end_to_end_on_profiles() {
    // Serving through a cached context must be a pure performance change: for the same
    // seed the whole pipeline (λ, selection, basis construction, noisy counts, top-k)
    // is byte-identical between the one-shot run and a context over the same rows —
    // unsharded (one shard) or split into four — on a dense and a sparse profile.
    for (profile, scale, k) in [
        (DatasetProfile::Mushroom, 0.05, 25usize),
        (DatasetProfile::Retail, 0.02, 20usize),
    ] {
        let db = profile.generate(scale, 5);
        let pb = PrivBasis::with_defaults();
        let unsharded = QueryContext::new(Arc::new(db.clone()));
        let four_shards = QueryContext::sharded(ShardedDb::partition(&db, 4).into_shared());
        for seed in [1u64, 77] {
            for eps in [Epsilon::Finite(0.5), Epsilon::Infinite] {
                let a = pb
                    .run(&mut StdRng::seed_from_u64(seed), &db, k, eps)
                    .unwrap();
                for context in [&unsharded, &four_shards] {
                    let b = pb
                        .run_shared(&mut StdRng::seed_from_u64(seed), context, k, eps)
                        .unwrap();
                    assert_eq!(a.lambda, b.lambda);
                    assert_eq!(a.frequent_items, b.frequent_items);
                    assert_eq!(a.basis_set, b.basis_set);
                    assert_eq!(a.itemsets.len(), b.itemsets.len());
                    for ((sa, ca), (sb, cb)) in a.itemsets.iter().zip(&b.itemsets) {
                        assert_eq!(sa, sb);
                        assert_eq!(ca.to_bits(), cb.to_bits(), "count mismatch for {sa:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn privbasis_beats_tf_on_dense_profile_at_moderate_epsilon() {
    let db = DatasetProfile::Mushroom.generate(0.1, 9);
    let k = 50;
    let epsilon = 0.5;
    let truth = top_k_itemsets(&db, k, None);

    let reps = 3;
    let mut pb_fnr = 0.0;
    let mut tf_fnr = 0.0;
    let pb = PrivBasis::with_defaults();
    let tf = TfMethod::new(TfConfig::new(k, 2, Epsilon::Finite(epsilon)));
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(100 + rep);
        let out = pb.run(&mut rng, &db, k, Epsilon::Finite(epsilon)).unwrap();
        pb_fnr += false_negative_rate(&truth, &publish(&out.itemsets));
        let tf_out = tf.run(&mut rng, &db);
        tf_fnr += false_negative_rate(&truth, &publish(&tf_out.itemsets));
    }
    pb_fnr /= reps as f64;
    tf_fnr /= reps as f64;
    // The headline claim of the paper: PB substantially outperforms TF in this regime.
    assert!(
        pb_fnr < tf_fnr,
        "expected PrivBasis to beat TF (PB {pb_fnr:.3} vs TF {tf_fnr:.3})"
    );
    assert!(pb_fnr < 0.5, "PB FNR unexpectedly high: {pb_fnr}");
}

#[test]
fn privbasis_fnr_improves_with_epsilon_on_retail_profile() {
    let db = DatasetProfile::Retail.generate(0.03, 4);
    let k = 30;
    let truth = top_k_itemsets(&db, k, None);
    let pb = PrivBasis::with_defaults();

    let fnr_at = |eps: f64, seeds: std::ops::Range<u64>| {
        let mut total = 0.0;
        let n = (seeds.end - seeds.start) as f64;
        for s in seeds {
            let mut rng = StdRng::seed_from_u64(s);
            let out = pb.run(&mut rng, &db, k, Epsilon::Finite(eps)).unwrap();
            total += false_negative_rate(&truth, &publish(&out.itemsets));
        }
        total / n
    };
    let low = fnr_at(0.1, 0..4);
    let high = fnr_at(4.0, 10..14);
    assert!(
        high <= low + 0.05,
        "FNR should not get worse with more budget: ε=0.1 → {low:.3}, ε=4 → {high:.3}"
    );
    assert!(high < 0.4, "FNR at ε=4 should be small, got {high:.3}");
}

#[test]
fn aol_like_profile_takes_multi_basis_path_with_large_lambda() {
    let db = DatasetProfile::Aol.generate(0.004, 6);
    let k = 60;
    let mut rng = StdRng::seed_from_u64(8);
    let out = PrivBasis::with_defaults()
        .run(&mut rng, &db, k, Epsilon::Finite(1.0))
        .unwrap();
    assert!(
        out.lambda > 12,
        "AOL-like data should have λ ≈ k, got {}",
        out.lambda
    );
    assert!(out.basis_set.width() > 1);
    assert_eq!(out.itemsets.len(), k);
}

#[test]
fn custom_parameters_flow_through() {
    let db = DatasetProfile::Mushroom.generate(0.05, 2);
    let params = PrivBasisParams {
        alpha1: 0.2,
        alpha2: 0.3,
        alpha3: 0.5,
        eta: Some(1.3),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let out = PrivBasis::new(params)
        .run(&mut rng, &db, 20, Epsilon::Finite(1.0))
        .unwrap();
    assert_eq!(out.itemsets.len(), 20);
}

#[test]
fn tf_output_and_metrics_compose() {
    let db = DatasetProfile::Mushroom.generate(0.05, 7);
    let k = 20;
    let truth = top_k_itemsets(&db, k, None);
    let tf = TfMethod::new(TfConfig::new(k, 2, Epsilon::Infinite));
    let mut rng = StdRng::seed_from_u64(11);
    let out = tf.run(&mut rng, &db);
    assert_eq!(out.itemsets.len(), k);
    // With infinite budget TF restricted to m = 2 can only miss itemsets longer than 2.
    let fnr = false_negative_rate(&truth, &publish(&out.itemsets));
    let long_share = truth.iter().filter(|f| f.items.len() > 2).count() as f64 / k as f64;
    assert!(
        (fnr - long_share).abs() < 1e-9,
        "fnr {fnr} vs long share {long_share}"
    );
}
