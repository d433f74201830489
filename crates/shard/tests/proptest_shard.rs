//! Property tests: every `ShardedDb` merge is bit-identical to the unsharded ground
//! truth, for arbitrary databases and shard counts 1..=8.

use pb_fim::fpgrowth::fpgrowth;
use pb_fim::itemset::ItemSet;
use pb_fim::{TransactionDb, VerticalIndex};
use pb_shard::ShardedDb;
use proptest::prelude::*;

/// Up to 50 transactions over up to 12 items (empty rows included).
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..12, 0..7), 0..50)
        .prop_map(TransactionDb::from_transactions)
}

fn arb_basis() -> impl Strategy<Value = ItemSet> {
    prop::collection::vec(0u32..15, 0..6).prop_map(ItemSet::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn supports_and_pairs_match_unsharded(db in arb_db(), shards in 1usize..9,
                                          queries in prop::collection::vec(
                                              prop::collection::vec(0u32..15, 0..5), 0..10)) {
        let sharded = ShardedDb::partition(&db, shards);
        let sets: Vec<ItemSet> = queries.into_iter().map(ItemSet::new).collect();
        prop_assert_eq!(sharded.supports(&sets), db.supports(&sets));
        prop_assert_eq!(sharded.items_by_frequency(), &db.items_by_frequency()[..]);
        let universe = ItemSet::new(db.item_universe());
        prop_assert_eq!(sharded.pair_counts(&universe), db.pair_counts(&universe));
    }

    #[test]
    fn histograms_match_unsharded(db in arb_db(), shards in 1usize..9,
                                  bases in prop::collection::vec(arb_basis(), 0..4)) {
        let sharded = ShardedDb::partition(&db, shards);
        let index = VerticalIndex::build(&db);
        let merged = sharded.bin_histograms(&bases);
        prop_assert_eq!(merged.len(), bases.len());
        for (basis, hist) in bases.iter().zip(&merged) {
            prop_assert_eq!(hist, &index.bin_histogram(basis));
        }
    }

    #[test]
    fn theta_matches_unsharded_miner(db in arb_db(), shards in 1usize..9, k in 1usize..40) {
        let sharded = ShardedDb::partition(&db, shards);
        // fpgrowth's full ranking read at rank k, or the rarest itemset when fewer exist.
        let all = fpgrowth(&db, 1, None);
        let expected = all[..k.min(all.len())].last().map_or(0.0, |f| f.count as f64);
        prop_assert_eq!(sharded.kth_support_count(k), expected);
    }
}
