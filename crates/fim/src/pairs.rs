//! Flat pair counts: one support count per unordered pair of an item list.

use crate::itemset::{Item, ItemSet};
use std::collections::BTreeMap;

/// The support of every unordered pair `(items[i], items[j])`, `i < j`, of a sorted
/// item list, zeros included, stored flat in row-major order: `(0,1), (0,2), …,
/// (0,n−1), (1,2), …`. That is the order step 3 of PrivBasis enumerates its pair
/// candidates in and the order the `shard_pairs` wire op carries, so per-shard
/// results merge by position and a caller reads a pair's count by its index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounts {
    items: Vec<Item>,
    counts: Vec<usize>,
}

/// Number of unordered pairs of `n` items.
pub fn num_pairs(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

impl PairCounts {
    /// All-zero counts over `items`.
    pub fn zeros(items: &ItemSet) -> PairCounts {
        PairCounts {
            items: items.items().to_vec(),
            counts: vec![0; num_pairs(items.len())],
        }
    }

    /// Counts over `items` in the flat order.
    ///
    /// # Panics
    /// Panics unless there is exactly one count per pair.
    pub fn from_flat(items: &ItemSet, counts: Vec<usize>) -> PairCounts {
        assert_eq!(counts.len(), num_pairs(items.len()), "one count per pair");
        PairCounts {
            items: items.items().to_vec(),
            counts,
        }
    }

    /// One count per pair, in the flat order.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of pairs (`n·(n−1)/2` for `n` items).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when there are fewer than two items.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The count of `(items[i], items[j])` for positions `i < j`.
    pub fn at(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.items.len());
        let n = self.items.len();
        self.counts[i * n - i * (i + 1) / 2 + (j - i - 1)]
    }

    /// Adds `other`'s counts position by position (the shard merge).
    ///
    /// # Panics
    /// Panics if the two were counted over different items.
    pub fn add(&mut self, other: &PairCounts) {
        assert_eq!(self.items, other.items, "pair counts over different items");
        for (acc, c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
    }

    /// Every pair with its count, in the flat order.
    pub fn iter(&self) -> impl Iterator<Item = ((Item, Item), usize)> + '_ {
        let items = &self.items;
        (0..items.len())
            .flat_map(move |i| (i + 1..items.len()).map(move |j| (items[i], items[j])))
            .zip(self.counts.iter().copied())
    }
}

/// Equal to a sparse map of pairs (the contract of `TransactionDb::pair_counts`) when
/// its non-zero pairs are exactly the map's entries.
impl PartialEq<BTreeMap<(Item, Item), usize>> for PairCounts {
    fn eq(&self, sparse: &BTreeMap<(Item, Item), usize>) -> bool {
        self.iter()
            .filter(|&(_, c)| c > 0)
            .eq(sparse.iter().map(|(&pair, &c)| (pair, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_order_is_row_major() {
        let items = ItemSet::new(vec![3, 1, 7]);
        let counts = PairCounts::from_flat(&items, vec![5, 0, 2]);
        let pairs: Vec<_> = counts.iter().collect();
        assert_eq!(pairs, vec![((1, 3), 5), ((1, 7), 0), ((3, 7), 2)]);
        assert_eq!(
            (counts.at(0, 1), counts.at(0, 2), counts.at(1, 2)),
            (5, 0, 2)
        );
        assert_eq!(counts.len(), num_pairs(3));
        assert!(PairCounts::zeros(&ItemSet::singleton(4)).is_empty());
    }

    #[test]
    fn positional_merge_and_sparse_equality() {
        let items = ItemSet::new(vec![1, 2, 3]);
        let mut a = PairCounts::from_flat(&items, vec![1, 0, 2]);
        a.add(&PairCounts::from_flat(&items, vec![1, 0, 0]));
        assert_eq!(a.counts(), &[2, 0, 2]);
        let sparse: BTreeMap<(Item, Item), usize> = [((1, 2), 2), ((2, 3), 2)].into();
        assert_eq!(a, sparse);
        let wrong: BTreeMap<(Item, Item), usize> = [((1, 2), 2), ((1, 3), 0), ((2, 3), 2)].into();
        assert!(a != wrong);
    }
}
