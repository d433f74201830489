//! Sharded θ: the support of the `k`-th most frequent itemset.
//!
//! PrivBasis' step 1 anchors λ on θ, the frequency of the (η·k)-th most frequent
//! itemset. A sharded dataset has no whole database to mine, so θ comes from the one
//! exact top-`k` miner, [`pb_fim::topk::best_first_top_k`], run over the merged item
//! ranking with exact shard-merged counts ([`ShardedDb::support`]) as its oracle. The
//! walk counts only the candidates whose optimistic bound reaches the top of its heap,
//! over the items that can occur in a top-`k` itemset, so each count is one fan-out
//! across the shards (one RPC per remote shard).
//!
//! The support multiset is a property of the data alone, hence the value agrees with
//! any other exact miner, fpgrowth included, for any shard count: which is what makes
//! the sharded pipeline byte-identical to the unsharded one.

use crate::sharded::ShardedDb;
use pb_fim::topk::best_first_top_k;

impl ShardedDb {
    /// The exact support count of the `k`-th most frequent itemset, or of the rarest
    /// itemset when fewer than `k` have non-zero support, or `0.0` when no itemset does
    /// (or `k = 0`), returned as `f64` because that is how step 1 consumes it.
    pub fn kth_support_count(&self, k: usize) -> f64 {
        best_first_top_k(self.items_by_frequency(), k, None, |itemset| {
            self.support(itemset)
        })
        .last()
        .map_or(0.0, |top| top.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_fim::fpgrowth::fpgrowth;
    use pb_fim::TransactionDb;

    /// The θ oracle: fpgrowth's ranking read at rank `k` (the rarest itemset when fewer
    /// than `k` exist). `k` itemsets reaching the `k`-th largest item support exist
    /// when that many items do, so mining at that threshold keeps the first `k`; the
    /// full ranking is mined only when it does not.
    fn reference_kth(db: &TransactionDb, k: usize) -> f64 {
        let ranking = db.items_by_frequency();
        let s_k = ranking[..k.min(ranking.len())]
            .last()
            .map_or(1, |&(_, c)| c);
        let mut all = fpgrowth(db, s_k, None);
        if all.len() < k {
            all = fpgrowth(db, 1, None);
        }
        all[..k.min(all.len())]
            .last()
            .map_or(0.0, |f| f.count as f64)
    }

    #[test]
    fn matches_the_unsharded_miner() {
        let db = TransactionDb::from_transactions(vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]);
        for shards in 1..=5 {
            let sharded = ShardedDb::partition(&db, shards);
            for k in [1usize, 2, 3, 5, 8, 13, 40, 1000] {
                assert_eq!(
                    sharded.kth_support_count(k),
                    reference_kth(&db, k),
                    "k = {k}, S = {shards}"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty = ShardedDb::partition(&TransactionDb::default(), 3);
        assert_eq!(empty.kth_support_count(5), 0.0);
        // All rows empty: no itemset has non-zero support.
        let blank = ShardedDb::partition(
            &TransactionDb::from_transactions(vec![Vec::<u32>::new(); 4]),
            2,
        );
        assert_eq!(blank.kth_support_count(1), 0.0);
        let db = TransactionDb::from_transactions(vec![vec![7u32]]);
        let single = ShardedDb::partition(&db, 2);
        assert_eq!(single.kth_support_count(0), 0.0);
        assert_eq!(single.kth_support_count(1), 1.0);
        // Fewer itemsets than k: fall back to the rarest.
        assert_eq!(single.kth_support_count(10), reference_kth(&db, 10));
    }

    #[test]
    fn wide_universe_with_deep_ties() {
        // Many equal-support items (bounds tie everywhere) — stresses the lazy
        // bound/exact interleaving against the reference miner.
        let rows: Vec<Vec<u32>> = (0..60)
            .map(|i| {
                (0..30u32)
                    .filter(|&j| !(i + j as usize).is_multiple_of(3))
                    .collect()
            })
            .collect();
        let db = TransactionDb::from_transactions(rows);
        for shards in [1usize, 3, 7] {
            let sharded = ShardedDb::partition(&db, shards);
            for k in [1usize, 4, 11, 29, 63] {
                assert_eq!(
                    sharded.kth_support_count(k),
                    reference_kth(&db, k),
                    "k = {k}, S = {shards}"
                );
            }
        }
    }
}
