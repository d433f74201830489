//! Property tests for the statistics a [`TransactionDb`] gathers at construction.
//!
//! `item_universe`, `num_distinct_items` and `avg_transaction_len` must equal a naive
//! fold over the raw rows — one ordered-set insert per occurrence, one length per
//! deduplicated row — on arbitrary rows, empty rows and the largest item id included.

use pb_fim::itemset::Item;
use pb_fim::TransactionDb;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Item ids mostly from a small range (so rows share items), with the extremes of the
/// `u32` range and arbitrary ids mixed in.
fn arb_item() -> impl Strategy<Value = Item> {
    (0u8..10, any::<u32>()).prop_map(|(pick, x)| match pick {
        0..=5 => x % 20,
        6 => u32::MAX,
        7 => 0,
        _ => x,
    })
}

/// Rows of up to 8 items (duplicates and empty rows included), up to 60 of them.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Item>>> {
    prop::collection::vec(prop::collection::vec(arb_item(), 0..8), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn construction_stats_equal_a_naive_fold(rows in arb_rows()) {
        let mut universe = BTreeSet::new();
        let mut total = 0usize;
        for row in &rows {
            let distinct: BTreeSet<Item> = row.iter().copied().collect();
            total += distinct.len();
            universe.extend(distinct);
        }
        let expected_avg = if rows.is_empty() { 0.0 } else { total as f64 / rows.len() as f64 };

        let db = TransactionDb::from_transactions(rows.clone());
        prop_assert_eq!(db.item_universe(), universe.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(db.num_distinct_items(), universe.len());
        prop_assert_eq!(db.avg_transaction_len().to_bits(), expected_avg.to_bits());
        prop_assert_eq!(db.len(), rows.len());
    }
}
