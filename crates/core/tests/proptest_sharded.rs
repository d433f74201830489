//! Property test: `PrivBasis::run_shared` over a sharded `QueryContext` is
//! byte-identical to `PrivBasis::run` on the unsharded database for shard counts 1..=8
//! and pinned seeds — with the consistency pass in its default-on configuration and
//! with it disabled.

use pb_core::{PrivBasis, PrivBasisParams, QueryContext};
use pb_dp::Epsilon;
use pb_fim::TransactionDb;
use pb_shard::ShardedDb;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Non-empty databases: 1..40 transactions over up to 10 items, with at least one
/// non-empty row guaranteed by appending a fixed one.
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 0..40).prop_map(|mut rows| {
        rows.push(vec![0, 1]);
        TransactionDb::from_transactions(rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_release_is_byte_identical(db in arb_db(), shards in 1usize..9,
                                         seed in 0u64..1_000_000, k in 1usize..8,
                                         with_consistency in any::<bool>()) {
        let pb = if with_consistency {
            PrivBasis::with_defaults() // consistency on by default, as in the paper
        } else {
            PrivBasis::new(PrivBasisParams { consistency: None, ..Default::default() })
        };
        let eps = Epsilon::Finite(0.6);
        let reference = pb.run(&mut StdRng::seed_from_u64(seed), &db, k, eps).unwrap();
        let context = QueryContext::sharded(Arc::new(ShardedDb::partition(&db, shards)));
        let out = pb
            .run_shared(&mut StdRng::seed_from_u64(seed), &context, k, eps)
            .unwrap();
        prop_assert_eq!(reference.lambda, out.lambda);
        prop_assert_eq!(reference.lambda2, out.lambda2);
        prop_assert_eq!(reference.frequent_items, out.frequent_items);
        prop_assert_eq!(reference.frequent_pairs, out.frequent_pairs);
        prop_assert_eq!(&reference.basis_set, &out.basis_set);
        prop_assert_eq!(reference.candidate_count, out.candidate_count);
        prop_assert_eq!(reference.itemsets.len(), out.itemsets.len());
        for ((sa, ca), (sb, cb)) in reference.itemsets.iter().zip(&out.itemsets) {
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}
