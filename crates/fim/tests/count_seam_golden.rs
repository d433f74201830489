//! Pinned goldens for the exact count seams (`item_counts`, `pair_counts`)
//! and the miners that consume them.
//!
//! These counts are deterministic functions of the data, so their goldens are
//! plain integers — what the tests really pin is the *enumeration order and
//! content stability* of the seams across container changes (the
//! `HashMap` → `BTreeMap` sweep on the release path) and across the two
//! threshold miners.

use pb_fim::apriori::apriori;
use pb_fim::fpgrowth::fpgrowth;
use pb_fim::itemset::ItemSet;
use pb_fim::TransactionDb;

/// Same deterministic synthetic shape as the core goldens: item `j` of 8
/// appears in row `t` (of 60) when `t % (j + 2) == 0`.
fn golden_db() -> TransactionDb {
    let rows: Vec<Vec<u32>> = (0..60u32)
        .map(|t| (0..8u32).filter(|j| t % (j + 2) == 0).collect())
        .collect();
    TransactionDb::from_transactions(rows)
}

#[test]
fn item_counts_are_pinned() {
    let db = golden_db();
    let mut counts: Vec<(u32, usize)> = db.item_counts().into_iter().collect();
    counts.sort_unstable();
    assert_eq!(
        counts,
        vec![
            (0, 30),
            (1, 20),
            (2, 15),
            (3, 12),
            (4, 10),
            (5, 9),
            (6, 8),
            (7, 7),
        ]
    );
}

#[test]
fn pair_counts_are_pinned() {
    let db = golden_db();
    let items = ItemSet::new(vec![0, 1, 2, 3]);
    let mut pairs: Vec<((u32, u32), usize)> = db.pair_counts(&items).into_iter().collect();
    pairs.sort_unstable();
    assert_eq!(
        pairs,
        vec![
            ((0, 1), 10),
            ((0, 2), 15),
            ((0, 3), 6),
            ((1, 2), 5),
            ((1, 3), 4),
            ((2, 3), 3),
        ]
    );
}

#[test]
fn miners_agree_and_are_pinned() {
    let db = golden_db();
    let min_count = 8;
    let a = apriori(&db, min_count, None);
    let f = fpgrowth(&db, min_count, None);
    assert_eq!(a, f, "apriori vs fpgrowth diverged");
    let rendered: Vec<String> = a
        .iter()
        .map(|fi| {
            let items: Vec<String> = fi.items.items().iter().map(|i| i.to_string()).collect();
            format!("{}={}", items.join(","), fi.count)
        })
        .collect();
    assert_eq!(
        rendered,
        vec![
            "0=30", "1=20", "2=15", "0,2=15", "3=12", "4=10", "0,1=10", "0,4=10", "1,4=10",
            "0,1,4=10", "5=9", "6=8", "0,6=8", "2,6=8", "0,2,6=8",
        ]
    );
}
