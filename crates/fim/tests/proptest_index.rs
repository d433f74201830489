//! Property tests for the vertical bitmap index.
//!
//! The invariant is total: on arbitrary databases, every counting primitive of
//! [`VerticalIndex`] must agree exactly with the corresponding naive row scan over the
//! [`TransactionDb`], and the bin histogram must agree with a brute-force partition of
//! the transactions.

use pb_fim::itemset::{Item, ItemSet};
use pb_fim::{TransactionDb, VerticalIndex};
use proptest::prelude::*;

/// A small random transaction database: up to 40 transactions over up to 12 items
/// (empty transactions included — bin 0 must absorb them).
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..12, 0..7), 0..40)
        .prop_map(TransactionDb::from_transactions)
}

/// An arbitrary query itemset, possibly mentioning items absent from the database.
fn arb_query() -> impl Strategy<Value = ItemSet> {
    prop::collection::vec(0u32..15, 0..6).prop_map(ItemSet::new)
}

/// A dense database of 64–400 rows over items 0..24 (usually ending in a partial
/// 64-row block): each row holds about 30% of the items, so nearly every full block of a
/// basis with two or more items takes the transposing sweep.
fn arb_dense_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..24, 0..17), 64..401)
        .prop_map(TransactionDb::from_transactions)
}

/// A basis of 0–20 items (one to three byte planes) over items 0..26; items 24 and 25
/// never occur in [`arb_dense_db`].
fn arb_wide_basis() -> impl Strategy<Value = ItemSet> {
    prop::collection::btree_set(0u32..26, 0..21).prop_map(|s| ItemSet::new(s.into_iter().collect()))
}

/// A list of overlapping bases: each keeps a random prefix of a wide basis, so narrow
/// bases that group under one union sweep mix with wide ones that sweep alone.
fn arb_basis_list() -> impl Strategy<Value = Vec<ItemSet>> {
    prop::collection::vec(
        (arb_wide_basis(), 0usize..21)
            .prop_map(|(b, width)| ItemSet::new(b.items().iter().copied().take(width).collect())),
        0..6,
    )
}

/// Brute-force bin histogram: partition transactions by `t ∩ basis`.
fn bins_bruteforce(db: &TransactionDb, basis: &ItemSet) -> Vec<u64> {
    let items = basis.items();
    let mut bins = vec![0u64; 1 << items.len()];
    for t in db.iter() {
        let mut mask = 0usize;
        for (bit, &item) in items.iter().enumerate() {
            if t.contains(item) {
                mask |= 1 << bit;
            }
        }
        bins[mask] += 1;
    }
    bins
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn support_matches_row_scan(db in arb_db(), query in arb_query()) {
        let idx = VerticalIndex::build(&db);
        prop_assert_eq!(idx.support(&query), db.support(&query));
    }

    #[test]
    fn batched_supports_match_row_scan(db in arb_db(),
                                       queries in prop::collection::vec(
                                           prop::collection::vec(0u32..15, 0..5), 0..12)) {
        let idx = VerticalIndex::build(&db);
        let sets: Vec<ItemSet> = queries.into_iter().map(ItemSet::new).collect();
        prop_assert_eq!(idx.supports(&sets), db.supports(&sets));
    }

    #[test]
    fn pair_counts_match_row_scan(db in arb_db(), items in arb_query()) {
        let idx = VerticalIndex::build(&db);
        prop_assert_eq!(idx.pair_counts(&items), db.pair_counts(&items));
    }

    #[test]
    fn item_statistics_match_row_scan(db in arb_db()) {
        let idx = VerticalIndex::build(&db);
        prop_assert_eq!(idx.num_transactions(), db.len());
        prop_assert_eq!(idx.items(), &db.item_universe()[..]);
        prop_assert_eq!(idx.items_by_frequency(), db.items_by_frequency());
        for (item, count) in idx.item_counts() {
            prop_assert_eq!(count, db.support(&ItemSet::singleton(item)));
        }
    }

    #[test]
    fn bin_histogram_matches_bruteforce(db in arb_db(), basis in arb_query()) {
        let idx = VerticalIndex::build(&db);
        let bins = idx.bin_histogram(&basis);
        prop_assert_eq!(bins.iter().sum::<u64>(), db.len() as u64);
        prop_assert_eq!(bins, bins_bruteforce(&db, &basis));
    }

    #[test]
    fn dense_bin_histograms_match_bruteforce(db in arb_dense_db(),
                                             basis in arb_wide_basis(),
                                             bases in arb_basis_list()) {
        let idx = VerticalIndex::build(&db);
        prop_assert_eq!(idx.bin_histogram(&basis), bins_bruteforce(&db, &basis));
        let expected: Vec<Vec<u64>> = bases.iter().map(|b| bins_bruteforce(&db, b)).collect();
        for threads in [1, 2, 4] {
            prop_assert_eq!(&idx.bin_histograms(&bases, threads), &expected);
        }
    }

    #[test]
    fn restricted_build_matches_full_on_restricted_queries(db in arb_db(), basis in arb_query()) {
        let full = VerticalIndex::build(&db);
        let restricted = VerticalIndex::build_restricted(&db, &basis);
        prop_assert_eq!(restricted.bin_histogram(&basis), full.bin_histogram(&basis));
        prop_assert_eq!(restricted.support(&basis), full.support(&basis));
    }

    #[test]
    fn projection_matches_row_intersection(db in arb_db(), basis in arb_query()) {
        // TransactionDb::project routes through the index; check it against the
        // definitional row-by-row intersection.
        let projected = db.project(&basis);
        prop_assert_eq!(projected.len(), db.len());
        for (orig, proj) in db.iter().zip(projected.iter()) {
            prop_assert_eq!(&orig.intersect(&basis), proj);
        }
        let expected_universe: Vec<Item> = db
            .item_universe()
            .into_iter()
            .filter(|&i| basis.contains(i) && db.support(&ItemSet::singleton(i)) > 0)
            .collect();
        prop_assert_eq!(projected.item_universe(), expected_universe);
    }

    #[test]
    fn push_keeps_distinct_set_consistent(db in arb_db(),
                                          extra in prop::collection::vec(
                                              prop::collection::vec(0u32..20, 0..6), 0..8)) {
        let mut incremental = db.clone();
        let mut all: Vec<ItemSet> = db.iter().cloned().collect();
        for row in extra {
            let t = ItemSet::new(row);
            all.push(t.clone());
            incremental.push(t);
        }
        let rebuilt = TransactionDb::from_itemsets(all);
        prop_assert_eq!(incremental.len(), rebuilt.len());
        prop_assert_eq!(incremental.num_distinct_items(), rebuilt.num_distinct_items());
        prop_assert_eq!(incremental.item_universe(), rebuilt.item_universe());
        prop_assert!((incremental.avg_transaction_len() - rebuilt.avg_transaction_len()).abs() < 1e-12);
    }
}
