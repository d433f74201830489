//! Property tests for the prefix tables: every histogram and pair count answered from a
//! table equals the bitmap sweep byte for byte, unsharded and merged across shards, at
//! any thread budget.
//!
//! The databases are built to keep the narrow tables under their size guard: rows
//! repeat a few head templates over items 0..24, and about a third add one item of a
//! long tail 24..100, so a random basis can name items inside the classes of 8 and 16,
//! items ranked past 16 (outside every class), and items 100..110 that never occur.

use pb_fim::index::set_parallelism_override;
use pb_fim::itemset::{Item, ItemSet};
use pb_fim::{TransactionDb, VerticalIndex};
use pb_shard::ShardedDb;
use proptest::prelude::*;

/// Rows from `templates` (picked by index) plus an optional tail item each.
fn rows_of(templates: &[Vec<Item>], picks: &[(usize, Option<Item>)]) -> Vec<Vec<Item>> {
    picks
        .iter()
        .map(|&(t, tail)| {
            let mut row = templates[t % templates.len()].clone();
            row.extend(tail);
            row
        })
        .collect()
}

/// 0–700 rows (so usually a partial last 64-row block) of head templates and tail items.
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    (
        prop::collection::vec(prop::collection::vec(0u32..24, 0..8), 1..20),
        prop::collection::vec((0usize..20, 0u32..1000), 0..700),
    )
        .prop_map(|(templates, picks)| {
            // A draw below 300 adds the tail item 24 + draw % 76, so 30% of rows have one.
            let picks: Vec<(usize, Option<Item>)> = picks
                .into_iter()
                .map(|(t, draw)| (t, (draw < 300).then_some(24 + draw % 76)))
                .collect();
            TransactionDb::from_transactions(rows_of(&templates, &picks))
        })
}

/// An item set of `len` items: three in four draws from the head 0..24, the rest from
/// the tail 24..100 or the never-present 100..110.
fn arb_items(len: std::ops::Range<usize>) -> impl Strategy<Value = ItemSet> {
    prop::collection::btree_set(0u32..344, len).prop_map(|s| {
        ItemSet::new(
            s.into_iter()
                .map(|draw| {
                    if draw < 258 {
                        draw % 24
                    } else {
                        24 + (draw - 258)
                    }
                })
                .collect(),
        )
    })
}

/// Overlapping bases of 1–12 items: consecutive ones often share items, so they group
/// under one union.
fn arb_bases() -> impl Strategy<Value = Vec<ItemSet>> {
    prop::collection::vec(arb_items(1..13), 1..6)
}

/// Checks one database at one thread budget against the sweep over a fresh index.
fn check(db: &TransactionDb, bases: &[ItemSet], items: &ItemSet, threads: usize) {
    set_parallelism_override(Some(threads));
    let expected = VerticalIndex::build(db).bin_histograms_swept(bases, threads);
    let pairs = db.pair_counts(items);

    let index = VerticalIndex::build(db);
    assert_eq!(index.bin_histograms(bases, threads), expected, "grouped");
    for (basis, hist) in bases.iter().zip(&expected) {
        assert_eq!(&index.bin_histogram(basis), hist, "{basis:?}");
    }
    assert_eq!(index.pair_counts_with(items, threads), pairs);

    for shards in 1..=3 {
        let sharded = ShardedDb::partition(db, shards);
        assert_eq!(sharded.bin_histograms(bases), expected, "S={shards}");
        assert_eq!(sharded.pair_counts(items), pairs, "S={shards}");
    }
    // An empty shard among the parts changes nothing.
    let half = db.len() / 2;
    let parts = vec![
        TransactionDb::from_itemsets(db.transactions()[..half].to_vec()),
        TransactionDb::from_transactions(Vec::<Vec<Item>>::new()),
        TransactionDb::from_itemsets(db.transactions()[half..].to_vec()),
    ];
    let sharded = ShardedDb::from_shards(parts);
    assert_eq!(
        sharded.bin_histograms(bases),
        expected,
        "with an empty shard"
    );
    assert_eq!(sharded.pair_counts(items), pairs, "with an empty shard");
    set_parallelism_override(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_tables_match_the_sweep(db in arb_db(), bases in arb_bases(),
                                     items in arb_items(0..15)) {
        for threads in [1, 4] {
            check(&db, &bases, &items, threads);
        }
    }
}

#[test]
fn an_empty_index_answers_from_its_table() {
    let db = TransactionDb::from_transactions(Vec::<Vec<Item>>::new());
    let index = VerticalIndex::build(&db);
    let bases = [ItemSet::new(vec![1, 2]), ItemSet::new(vec![3])];
    assert_eq!(
        index.bin_histograms(&bases, 1),
        vec![vec![0; 4], vec![0; 2]]
    );
    assert_eq!(
        index.pair_counts(&ItemSet::new(vec![1, 2, 3])).counts(),
        [0, 0, 0]
    );
}

#[test]
fn tables_match_a_sweep_split_over_the_pool() {
    // 16,461 rows: 258 words, enough for the reference sweep and the fallback of the
    // wide bases to split over the counting pool at a budget of 4.
    let templates: Vec<Vec<Item>> = (0..40u32)
        .map(|t| {
            (0..24)
                .filter(|j| (t * 7 + j * 5) % (j % 5 + 2) == 0)
                .collect()
        })
        .collect();
    let picks: Vec<(usize, Option<Item>)> = (0..64 * 257 + 13)
        .map(|r: usize| {
            (
                r * 31 % 40,
                r.is_multiple_of(3).then_some(24 + (r * 13 % 80) as Item),
            )
        })
        .collect();
    let db = TransactionDb::from_transactions(rows_of(&templates, &picks));
    let bases = vec![
        ItemSet::new(vec![0, 1, 2, 3]),
        ItemSet::new(vec![2, 3, 4, 5, 6]),
        ItemSet::new((0..12).collect()),
        ItemSet::new((10..22).collect()),
        ItemSet::new(vec![1, 30, 77, 105]),
    ];
    let items = ItemSet::new((0..24).chain([50, 99, 104]).collect());
    check(&db, &bases, &items, 4);
}
