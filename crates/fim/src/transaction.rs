//! Transaction databases.
//!
//! A [`TransactionDb`] stores every transaction as a sorted [`ItemSet`] and offers the exact
//! counting primitives the rest of the workspace needs: itemset support, per-item counts,
//! pair counts restricted to a subset of items, and projections onto a basis.

use crate::index::VerticalIndex;
use crate::itemset::{Item, ItemSet};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// An in-memory transaction database.
///
/// Frequencies in the paper are fractions `f(X) = support(X) / N`; this type exposes both raw
/// support counts and frequencies.
#[derive(Clone, Debug, Default)]
pub struct TransactionDb {
    transactions: Vec<ItemSet>,
    /// The distinct items occurring in the database, maintained incrementally so `push`
    /// stays `O(|t| log |I|)` instead of rescanning everything.
    distinct_items: BTreeSet<Item>,
    /// Sum of transaction lengths, cached for `avg_transaction_len`.
    total_items: usize,
}

impl TransactionDb {
    /// Builds a database from raw transactions (each an unsorted, possibly duplicated item list).
    pub fn from_transactions<T>(raw: Vec<T>) -> Self
    where
        T: Into<ItemSet>,
    {
        let transactions: Vec<ItemSet> = raw.into_iter().map(Into::into).collect();
        Self::from_itemsets(transactions)
    }

    /// Builds a database from already-normalised itemsets.
    ///
    /// The distinct items are gathered with one hash insert per occurrence and ordered
    /// once at the end: a tree insert per occurrence walks the tree every time, and a
    /// table indexed by item id would be sized by the largest id, an arbitrary `u32`
    /// read from a file. Memory follows the distinct items, not the rows.
    pub fn from_itemsets(transactions: Vec<ItemSet>) -> Self {
        let mut seen = HashSet::new();
        let mut total_items = 0usize;
        for t in &transactions {
            total_items += t.len();
            seen.extend(t.iter());
        }
        TransactionDb {
            transactions,
            distinct_items: BTreeSet::from_iter(seen),
            total_items,
        }
    }

    /// Number of transactions `N`.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True if the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Number of distinct items that actually occur in the database.
    pub fn num_distinct_items(&self) -> usize {
        self.distinct_items.len()
    }

    /// Average transaction length (0.0 for an empty database).
    pub fn avg_transaction_len(&self) -> f64 {
        if self.transactions.is_empty() {
            0.0
        } else {
            self.total_items as f64 / self.transactions.len() as f64
        }
    }

    /// The transactions.
    pub fn transactions(&self) -> &[ItemSet] {
        &self.transactions
    }

    /// Iterate over transactions.
    pub fn iter(&self) -> impl Iterator<Item = &ItemSet> {
        self.transactions.iter()
    }

    /// The set of distinct items occurring in the database, sorted.
    pub fn item_universe(&self) -> Vec<Item> {
        self.distinct_items.iter().copied().collect()
    }

    /// Support count of a single itemset (number of transactions containing it).
    ///
    /// The empty itemset is contained in every transaction.
    pub fn support(&self, itemset: &ItemSet) -> usize {
        self.transactions
            .iter()
            .filter(|t| itemset.is_subset_of(t))
            .count()
    }

    /// Frequency `f(X) = support(X)/N` of a single itemset. Returns 0.0 on an empty database.
    pub fn frequency(&self, itemset: &ItemSet) -> f64 {
        if self.transactions.is_empty() {
            0.0
        } else {
            self.support(itemset) as f64 / self.transactions.len() as f64
        }
    }

    /// Support counts for a batch of itemsets, computed in a single scan of the database.
    pub fn supports(&self, itemsets: &[ItemSet]) -> Vec<usize> {
        let mut counts = vec![0usize; itemsets.len()];
        for t in &self.transactions {
            for (i, x) in itemsets.iter().enumerate() {
                if x.is_subset_of(t) {
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    /// Per-item support counts.
    pub fn item_counts(&self) -> BTreeMap<Item, usize> {
        let mut counts: BTreeMap<Item, usize> = BTreeMap::new();
        for t in &self.transactions {
            for item in t.iter() {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Items sorted by descending support (ties broken by ascending item id for determinism).
    pub fn items_by_frequency(&self) -> Vec<(Item, usize)> {
        let mut v: Vec<(Item, usize)> = self.item_counts().into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Support counts of all unordered pairs over the given items, computed in one scan.
    ///
    /// Only pairs with non-zero support appear in the result.
    pub fn pair_counts(&self, items: &ItemSet) -> BTreeMap<(Item, Item), usize> {
        let mut counts: BTreeMap<(Item, Item), usize> = BTreeMap::new();
        for t in &self.transactions {
            let present = t.intersect(items);
            let p = present.items();
            for i in 0..p.len() {
                for j in (i + 1)..p.len() {
                    *counts.entry((p[i], p[j])).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Projects every transaction onto `basis` (removing all items outside it).
    ///
    /// This is the "projection onto selected dimensions" view of §4.1. It is routed
    /// through a basis-restricted [`VerticalIndex`]: one pass builds a bitmap per basis
    /// item, then each bitmap deposits its item into the rows containing it, for a total
    /// cost of `O(Σ|t| + Σ_{i ∈ basis} support(i))` — independent of how the basis items
    /// are positioned inside each row.
    pub fn project(&self, basis: &ItemSet) -> TransactionDb {
        VerticalIndex::build_restricted(self, basis).project(basis)
    }

    /// Builds a [`VerticalIndex`] (item → transaction-id bitmap) over this database.
    ///
    /// The index answers `support`/`supports`/`pair_counts` with AND/popcount kernels and
    /// is what the counting hot paths (Apriori levels, Eclat, `BasisFreq`) run on.
    pub fn vertical_index(&self) -> VerticalIndex {
        VerticalIndex::build(self)
    }

    /// Wraps the database in an [`Arc`](std::sync::Arc) for sharing across query threads.
    ///
    /// `TransactionDb` is immutable-after-build in all serving paths and holds only owned
    /// data (`Vec`/`BTreeSet`), so it is `Send + Sync` (asserted at compile time in
    /// `shareability`) and one copy can back any number of concurrent readers.
    pub fn into_shared(self) -> std::sync::Arc<TransactionDb> {
        std::sync::Arc::new(self)
    }

    /// Adds one transaction (used by tests exercising neighbouring-database sensitivity).
    pub fn push(&mut self, t: ItemSet) {
        self.total_items += t.len();
        self.distinct_items.extend(t.iter());
        self.transactions.push(t);
    }
}

impl<'a> IntoIterator for &'a TransactionDb {
    type Item = &'a ItemSet;
    type IntoIter = std::slice::Iter<'a, ItemSet>;

    fn into_iter(self) -> Self::IntoIter {
        self.transactions.iter()
    }
}

/// Compile-time audit that the shared serving types stay `Send + Sync`: the `pb-service`
/// layer hands `Arc<TransactionDb>` / `Arc<VerticalIndex>` to a thread pool, and a stray
/// `Rc`/`RefCell`/raw pointer added to either type must fail the build here, not at the
/// far-away use site.
mod shareability {
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<super::TransactionDb>();
    const _: () = assert_send_sync::<crate::index::VerticalIndex>();
    const _: () = assert_send_sync::<crate::bitmap::Bitmap>();
    const _: () = assert_send_sync::<crate::itemset::ItemSet>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 2, 3, 4],
            vec![4],
        ])
    }

    #[test]
    fn basic_shape() {
        let db = sample_db();
        assert_eq!(db.len(), 5);
        assert!(!db.is_empty());
        assert_eq!(db.num_distinct_items(), 4);
        assert!((db.avg_transaction_len() - 12.0 / 5.0).abs() < 1e-12);
        assert_eq!(db.item_universe(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::from_transactions(Vec::<Vec<Item>>::new());
        assert!(db.is_empty());
        assert_eq!(db.avg_transaction_len(), 0.0);
        assert_eq!(db.frequency(&ItemSet::singleton(1)), 0.0);
    }

    #[test]
    fn support_and_frequency() {
        let db = sample_db();
        assert_eq!(db.support(&ItemSet::new(vec![1, 2])), 3);
        assert_eq!(db.support(&ItemSet::new(vec![2])), 4);
        assert_eq!(db.support(&ItemSet::new(vec![9])), 0);
        assert_eq!(db.support(&ItemSet::empty()), 5);
        assert!((db.frequency(&ItemSet::new(vec![1, 2])) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn batch_supports_match_individual() {
        let db = sample_db();
        let sets = vec![
            ItemSet::new(vec![1]),
            ItemSet::new(vec![1, 2, 3]),
            ItemSet::new(vec![4]),
            ItemSet::empty(),
        ];
        let batch = db.supports(&sets);
        for (s, &c) in sets.iter().zip(&batch) {
            assert_eq!(db.support(s), c);
        }
    }

    #[test]
    fn item_counts_and_ordering() {
        let db = sample_db();
        let counts = db.item_counts();
        assert_eq!(counts[&2], 4);
        assert_eq!(counts[&1], 3);
        assert_eq!(counts[&4], 2);
        let by_freq = db.items_by_frequency();
        assert_eq!(by_freq[0].0, 2);
        assert_eq!(by_freq[1].0, 1);
    }

    #[test]
    fn pair_counts_within_subset() {
        let db = sample_db();
        let counts = db.pair_counts(&ItemSet::new(vec![1, 2, 3]));
        assert_eq!(counts[&(1, 2)], 3);
        assert_eq!(counts[&(2, 3)], 3);
        assert_eq!(counts[&(1, 3)], 2);
        assert!(!counts.contains_key(&(1, 4)));
    }

    #[test]
    fn projection_removes_outside_items() {
        let db = sample_db();
        let proj = db.project(&ItemSet::new(vec![1, 4]));
        assert_eq!(proj.len(), 5);
        assert_eq!(proj.support(&ItemSet::new(vec![1])), 3);
        assert_eq!(proj.support(&ItemSet::new(vec![2])), 0);
        assert_eq!(proj.num_distinct_items(), 2);
    }

    #[test]
    fn push_updates_counts() {
        let mut db = sample_db();
        db.push(ItemSet::new(vec![5, 6]));
        assert_eq!(db.len(), 6);
        assert_eq!(db.num_distinct_items(), 6);
        assert_eq!(db.support(&ItemSet::new(vec![5, 6])), 1);
    }
}
