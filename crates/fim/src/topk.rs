//! Exact top-`k` frequent itemset mining: the one best-first walk.
//!
//! The paper's problem statement is "publish the `k` most frequent itemsets", and the
//! exact (non-private) answer is needed twice: as the ground truth every release is
//! scored against (§5, and `f_k` for the TF baseline), and as the θ anchor GetLambda
//! reads off the (η·k)-th itemset (§4.1). Both come from [`best_first_top_k`], a lazy
//! best-first walk over a support oracle: [`top_k_itemsets`] runs it on a vertical index
//! of one database, and a sharded dataset runs it on shard-merged counts
//! (`pb_shard::ShardedDb::kth_support_count`).
//!
//! ## The walk
//!
//! Itemsets are generated by extending each set with items greater than its largest
//! one, so every itemset has exactly one generation path, through its prefixes.
//! Support is antitone under extension: `supp(X ∪ {i}) ≤ min(supp(X), supp({i}))`. A
//! max-heap holds two kinds of entries: *exact* ones, keyed by their counted support,
//! and *bound* ones, keyed by that free optimistic bound with the support not yet
//! counted. Popping a bound entry counts it and re-inserts it as exact. Popping an exact
//! entry emits it and pushes its extensions as bounds. Counting is paid only by the
//! candidates whose bound reaches the top, so most of a wide universe never is.
//!
//! ## Why the emission order is [`apriori`](crate::apriori)'s
//!
//! Emissions come out count descending, then length ascending, then items ascending,
//! the order every miner in this crate sorts by. On equal keys a bound entry pops
//! before an exact one, and equal entries of one kind pop shorter first, then
//! lexicographically first. Suppose an exact entry `X` with count `c` pops. Every other
//! entry has key `≤ c`, and every entry with key `c` is exact, or it would have popped
//! first. Every itemset not yet emitted is an entry or a descendant of one, and a
//! descendant's support is at most its ancestor's key. So a pending itemset of support
//! `c` is either an exact entry with key `c`, which sorts after `X` in the heap order,
//! or a strict superset of one, hence longer than `X`. Either way it comes after `X`.
//! With exact entries first on ties, a bound entry of key `c` could hide a shorter
//! itemset of support `c`, and `X` would be emitted before it: the `k`-th *count*
//! would still be right, the order and the set at a tie would not.
//!
//! ## The universe bound
//!
//! Only items whose support is at least `s_k`, the `k`-th largest item support (the
//! smallest one when there are fewer than `k` items), are ever extended with. The `k`
//! most frequent singletons already reach `s_k`, so the `k`-th itemset has support
//! `f_k ≥ s_k`, and every item of a top-`k` itemset has support `≥ f_k ≥ s_k`. The
//! heap then holds at most `k·|U_k|` entries rather than `k·|I|`.

use crate::index::VerticalIndex;
use crate::itemset::{Item, ItemSet};
use crate::transaction::TransactionDb;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A mined itemset together with its exact support count.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrequentItemset {
    /// The itemset.
    pub items: ItemSet,
    /// Number of transactions containing the itemset.
    pub count: usize,
}

impl FrequentItemset {
    /// Creates a new frequent-itemset record.
    pub fn new(items: ItemSet, count: usize) -> Self {
        FrequentItemset { items, count }
    }

    /// Frequency relative to a database of `n` transactions.
    pub fn frequency(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.count as f64 / n as f64
        }
    }
}

/// Exact top-`k` frequent itemsets, optionally restricted to itemsets of length `<= max_len`.
///
/// Ties at rank `k` are broken deterministically (shorter itemsets first, then lexicographic),
/// the order every miner in this crate sorts by: the result is the first `min(k, n)`
/// entries of `fpgrowth(db, 1, max_len)`, where `n` counts the itemsets with non-zero
/// support. The walk counts on an index over the universe `U_k` only.
pub fn top_k_itemsets(
    db: &TransactionDb,
    k: usize,
    max_len: Option<usize>,
) -> Vec<FrequentItemset> {
    let ranking = db.items_by_frequency();
    let universe = top_k_universe(&ranking, k);
    if universe.is_empty() || max_len == Some(0) {
        return Vec::new();
    }
    let index = VerticalIndex::build_restricted(
        db,
        &ItemSet::new(universe.iter().map(|&(item, _)| item).collect()),
    );
    best_first_top_k(&ranking, k, max_len, |itemset| index.support(itemset))
}

/// The best-first walk (see the module docs): the exact top-`k` itemsets of length
/// `<= max_len`, in [`top_k_itemsets`] order, over the items of `ranking` (item
/// supports in [`TransactionDb::items_by_frequency`] order) and an exact `support`
/// oracle. `support` is called once per candidate whose bound reaches the top of the
/// heap; a candidate it counts as 0 is dropped.
pub fn best_first_top_k(
    ranking: &[(Item, usize)],
    k: usize,
    max_len: Option<usize>,
    mut support: impl FnMut(&ItemSet) -> usize,
) -> Vec<FrequentItemset> {
    let max_len = max_len.unwrap_or(usize::MAX);
    let mut top = Vec::new();
    if max_len == 0 {
        return top;
    }
    // Extension universe, ascending by item.
    let mut universe = top_k_universe(ranking, k).to_vec();
    universe.sort_unstable_by_key(|&(item, _)| item);
    let mut heap: BinaryHeap<Entry> = universe
        .iter()
        .map(|&(item, count)| Entry {
            key: count,
            exact: true,
            items: ItemSet::singleton(item),
        })
        .collect();
    while top.len() < k {
        let Some(entry) = heap.pop() else { break };
        if !entry.exact {
            let count = support(&entry.items);
            if count > 0 {
                heap.push(Entry {
                    key: count,
                    exact: true,
                    items: entry.items,
                });
            }
            continue;
        }
        // Extend with every universe item above the largest (one generation path per
        // itemset), keyed by the free bound; the last emission needs no extensions.
        if top.len() + 1 < k && entry.items.len() < max_len {
            let largest = *entry.items.items().last().expect("entries are non-empty");
            let above = universe.partition_point(|&(item, _)| item <= largest);
            for &(item, count) in &universe[above..] {
                heap.push(Entry {
                    key: entry.key.min(count),
                    exact: false,
                    items: entry.items.with_item(item),
                });
            }
        }
        top.push(FrequentItemset::new(entry.items, entry.key));
    }
    top
}

/// `U_k`: the items of `ranking` whose support is at least `s_k`, the `k`-th largest
/// item support (the smallest non-zero one when fewer than `k` items occur). A prefix
/// of the ranking, since it is sorted by support descending.
fn top_k_universe(ranking: &[(Item, usize)], k: usize) -> &[(Item, usize)] {
    let occurring = &ranking[..ranking.partition_point(|&(_, count)| count > 0)];
    match occurring.get(k.min(occurring.len()).wrapping_sub(1)) {
        Some(&(_, s_k)) => &occurring[..occurring.partition_point(|&(_, count)| count >= s_k)],
        None => &[],
    }
}

/// A heap entry of the walk: ordered by key (exact support, or an upper bound)
/// descending, ties popping bound entries first, then shorter itemsets, then
/// lexicographically smaller ones (the module docs argue why).
#[derive(Debug, PartialEq, Eq)]
struct Entry {
    /// Exact support when `exact`, else `min(supp(parent), supp({new item}))`.
    key: usize,
    exact: bool,
    items: ItemSet,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.exact.cmp(&self.exact))
            .then_with(|| other.items.len().cmp(&self.items.len()))
            .then_with(|| other.items.cmp(&self.items))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The support count of the `k`-th most frequent itemset (`f_k · N` in the paper's notation),
/// or `None` if fewer than `k` itemsets have non-zero support.
pub fn kth_count(db: &TransactionDb, k: usize, max_len: Option<usize>) -> Option<usize> {
    let top = top_k_itemsets(db, k, max_len);
    if top.len() < k {
        None
    } else {
        Some(top[k - 1].count)
    }
}

/// The frequency `f_k` of the `k`-th most frequent itemset, or `None` if fewer than `k`
/// itemsets have non-zero support.
pub fn kth_frequency(db: &TransactionDb, k: usize, max_len: Option<usize>) -> Option<f64> {
    kth_count(db, k, max_len).map(|c| c as f64 / db.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::Item;

    fn sample_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    #[test]
    fn top_1_is_most_frequent_item() {
        let db = sample_db();
        let top = top_k_itemsets(&db, 1, None);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].items, ItemSet::singleton(2));
        assert_eq!(top[0].count, 7);
    }

    #[test]
    fn counts_are_non_increasing() {
        let db = sample_db();
        let top = top_k_itemsets(&db, 10, None);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn k_zero_and_empty_db() {
        let db = sample_db();
        assert!(top_k_itemsets(&db, 0, None).is_empty());
        let empty = TransactionDb::from_transactions(Vec::<Vec<Item>>::new());
        assert!(top_k_itemsets(&empty, 5, None).is_empty());
    }

    #[test]
    fn k_larger_than_available_returns_all() {
        let db = TransactionDb::from_transactions(vec![vec![1], vec![1], vec![2]]);
        // Possible itemsets with non-zero support: {1}, {2} only.
        let top = top_k_itemsets(&db, 100, None);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn max_len_restricts_results() {
        let db = sample_db();
        let top = top_k_itemsets(&db, 20, Some(1));
        assert!(top.iter().all(|f| f.items.len() == 1));
        assert!(top_k_itemsets(&db, 5, Some(0)).is_empty());
    }

    #[test]
    fn kth_count_and_frequency() {
        let db = sample_db();
        let top = top_k_itemsets(&db, 5, None);
        assert_eq!(kth_count(&db, 5, None), Some(top[4].count));
        let f = kth_frequency(&db, 5, None).unwrap();
        assert!((f - top[4].count as f64 / 9.0).abs() < 1e-12);
        assert_eq!(kth_count(&db, 10_000, None), None);
    }

    #[test]
    fn threshold_mining_matches_fpgrowth() {
        // Threshold mining is fpgrowth's; the walk's top-k is a prefix of its output
        // whenever the k-th itemset clears the threshold.
        let db = sample_db();
        let above = crate::fpgrowth::fpgrowth_by_frequency(&db, 0.3, None);
        assert!(above.iter().all(|f| f.frequency(db.len()) >= 0.3));
        // Frequency of {1,2} is 4/9 >= 0.3, must be present.
        assert!(above.iter().any(|f| f.items == ItemSet::new(vec![1, 2])));
        assert_eq!(top_k_itemsets(&db, above.len(), None), above);
    }

    #[test]
    fn universe_is_the_items_reaching_the_kth_item_support() {
        let ranking = [(4, 5), (1, 4), (3, 4), (2, 2), (9, 0)];
        let items = |k| -> Vec<Item> {
            top_k_universe(&ranking, k)
                .iter()
                .map(|&(i, _)| i)
                .collect()
        };
        assert_eq!(items(0), Vec::<Item>::new());
        assert_eq!(items(1), vec![4]);
        // Ties at s_k all stay in.
        assert_eq!(items(2), vec![4, 1, 3]);
        // Fewer occurring items than k: every occurring item.
        assert_eq!(items(10), vec![4, 1, 3, 2]);
        assert!(top_k_universe(&[], 3).is_empty());
    }

    #[test]
    fn ties_emit_bounds_before_exact_entries() {
        // {1,2} is counted down from its bound 5 to 3 while the bound of {0,3} is 3
        // too: an exact-first walk would emit {1,2} before {0,1}, {0,2} and {0,3}.
        let db = TransactionDb::from_transactions(vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3],
            vec![1],
            vec![2],
            vec![1],
            vec![2],
        ]);
        let all = crate::fpgrowth::fpgrowth(&db, 1, None);
        for k in 1..=all.len() + 2 {
            assert_eq!(
                top_k_itemsets(&db, k, None),
                all[..k.min(all.len())],
                "k = {k}"
            );
        }
    }

    #[test]
    fn frequency_helper() {
        let fi = FrequentItemset::new(ItemSet::singleton(1), 3);
        assert!((fi.frequency(6) - 0.5).abs() < 1e-12);
        assert_eq!(fi.frequency(0), 0.0);
    }
}
