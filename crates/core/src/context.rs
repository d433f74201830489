//! Reusable per-dataset query state for serving layers.
//!
//! One PrivBasis query interleaves private mechanisms with *deterministic* functions of
//! the data: the full item-frequency ranking (steps 1–2), the θ anchor — the support of
//! the (η·k)-th most frequent itemset (step 1) — and the index structures the counting
//! kernels run on. [`QueryContext`] bundles that precomputation behind cheap shared
//! references, and every run goes through it: [`PrivBasis::run`](crate::PrivBasis::run)
//! builds a one-shard context for one query and drops it, while a query service (or an
//! experiment sweep) builds one per dataset and calls
//! [`PrivBasis::run_shared`](crate::PrivBasis::run_shared) for every query, because on
//! large databases the θ mining pass alone dominates a cold query (see the
//! `service/cached_vs_cold_index` benchmark).
//!
//! Every context counts over a row-partitioned [`ShardedDb`]; an unsharded dataset is
//! simply one shard ([`QueryContext::new`]). Counting fans out across the shards and
//! merges by summation, θ anchors come from the sharded best-first miner, and noise is
//! drawn once on the merged counts — so a pinned seed produces byte-identical
//! [`PrivBasisOutput`](crate::PrivBasisOutput) whatever the shard count.
//!
//! Reusing deterministic precomputation is privacy-neutral: every cached value is a fixed
//! function of the database, identical to what each query would have recomputed, so each
//! query's ε accounting is unchanged — byte-identically so, which
//! `shared_context_is_byte_identical_to_run` asserts.

use pb_fim::itemset::Item;
use pb_fim::TransactionDb;
use pb_shard::ShardedDb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Cached deterministic per-dataset state shared across queries.
#[derive(Debug)]
pub struct QueryContext {
    /// The rows, each shard with its own index. The merged item ranking is cached
    /// inside the [`ShardedDb`] itself — no second copy here.
    sharded: Arc<ShardedDb>,
    /// `k1 → exact support count of the k1-th most frequent itemset`. Different queries
    /// use different `k` (hence `k1`), so this memo grows with the distinct `k1`s seen.
    theta_counts: Mutex<HashMap<usize, f64>>,
}

impl QueryContext {
    /// Builds a context over one database as a single shard. The rows are shared, not
    /// copied: the shard adopts `db` itself.
    ///
    /// θ counts are *not* precomputed (they depend on the query's `k`); each distinct
    /// `k1` is mined once on first use and memoized.
    pub fn new(db: Arc<TransactionDb>) -> Self {
        Self::sharded(ShardedDb::from_shards(vec![db]).into_shared())
    }

    /// Builds a context over a pre-partitioned database: the per-shard indexes are
    /// built (in parallel) and the item ranking is merged from the shards. Queries
    /// through this context release byte-identical output for any shard count.
    pub fn sharded(sharded: Arc<ShardedDb>) -> Self {
        // Force the merged ranking now (it is cached inside the ShardedDb, and building
        // it builds every shard's index) so first queries find a fully warm context.
        let _ = sharded.items_by_frequency();
        QueryContext {
            sharded,
            theta_counts: Mutex::new(HashMap::new()),
        }
    }

    /// Total number of transactions behind the context.
    pub fn num_transactions(&self) -> usize {
        self.sharded.num_transactions()
    }

    /// Number of shards the context counts over (1 for an unsharded dataset).
    pub fn num_shards(&self) -> usize {
        self.sharded.num_shards().max(1)
    }

    /// The sharded database. Always `Some` — every context counts over a
    /// [`ShardedDb`] — and kept `Option` only because existing callers match on it.
    pub fn sharded_db(&self) -> Option<&Arc<ShardedDb>> {
        Some(&self.sharded)
    }

    /// Items by descending frequency (same contract as
    /// [`TransactionDb::items_by_frequency`], merged across shards).
    pub fn items_by_frequency(&self) -> &[(Item, usize)] {
        self.sharded.items_by_frequency()
    }

    /// The rows the pipeline counts on.
    pub(crate) fn shards(&self) -> &ShardedDb {
        &self.sharded
    }

    /// The θ support count for one `k1`, mined on first use.
    ///
    /// Two threads racing on a cold key both mine the same deterministic value; the
    /// second insert overwrites with an identical number, so no double-checked locking is
    /// needed around the (potentially slow) mining call — and holding the lock across it
    /// would serialise unrelated queries.
    pub(crate) fn theta_count(&self, k1: usize) -> f64 {
        if let Some(&count) = self.lock().get(&k1) {
            return count;
        }
        // The sharded best-first miner counts candidates across shards; same value as
        // mining the concatenation (the support multiset is a property of the data, not
        // the algorithm).
        let count = self.sharded.kth_support_count(k1);
        self.lock().insert(k1, count);
        count
    }

    /// Number of distinct `k1` values memoized so far (introspection for tests/status).
    pub fn theta_cache_len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, f64>> {
        self.theta_counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivBasis;
    use pb_dp::Epsilon;
    use pb_fim::topk::top_k_itemsets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Arc<TransactionDb> {
        let mut rows = Vec::new();
        for i in 0..800usize {
            let slot = i % 8;
            let row: Vec<u32> = (0..6u32).filter(|&j| slot < 8 - j as usize).collect();
            rows.push(row);
        }
        TransactionDb::from_transactions(rows).into_shared()
    }

    /// The θ oracle: the support of the `k1`-th itemset by fpgrowth over the whole
    /// database (the rarest one when fewer than `k1` exist).
    fn theta_by_fpgrowth(db: &TransactionDb, k1: usize) -> f64 {
        let top = top_k_itemsets(db, k1, None);
        top.get(k1 - 1)
            .or(top.last())
            .map_or(0.0, |f| f.count as f64)
    }

    /// Forty items with pseudo-independent occurrences and frequencies falling from 0.5
    /// to 0.3: pairs rarely beat singletons, so k = 25 drives λ past the single-basis
    /// threshold and exercises pair selection and the multi-basis path.
    fn sparse_db() -> Arc<TransactionDb> {
        let rows: Vec<Vec<u32>> = (0..3_000u64)
            .map(|i| {
                (0..40u32)
                    .filter(|&j| {
                        let mut x = (i * 40 + u64::from(j)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        x ^= x >> 31;
                        let roll = (x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33) % 1_000;
                        roll < 500 - 5 * u64::from(j)
                    })
                    .collect()
            })
            .collect();
        TransactionDb::from_transactions(rows).into_shared()
    }

    #[test]
    fn context_matches_direct_computation() {
        let db = db();
        let ctx = QueryContext::new(Arc::clone(&db));
        assert_eq!(ctx.items_by_frequency(), &db.items_by_frequency()[..]);
        assert_eq!(ctx.num_transactions(), db.len());
        assert_eq!(ctx.num_shards(), 1);
        // One shard that adopted the caller's rows rather than copying them.
        let sharded = ctx.sharded_db().expect("every context is sharded");
        assert!(Arc::ptr_eq(sharded.shards()[0].db(), &db));
        for k1 in [1usize, 3, 7] {
            assert_eq!(ctx.theta_count(k1), theta_by_fpgrowth(&db, k1));
        }
        // Memoized: three distinct k1 values, repeats hit the cache.
        assert_eq!(ctx.theta_cache_len(), 3);
        ctx.theta_count(3);
        assert_eq!(ctx.theta_cache_len(), 3);
    }

    #[test]
    fn sharded_context_matches_single() {
        let db = db();
        let sharded = ShardedDb::partition(&db, 4).into_shared();
        let ctx = QueryContext::sharded(Arc::clone(&sharded));
        assert_eq!(ctx.num_transactions(), db.len());
        assert_eq!(ctx.num_shards(), 4);
        assert_eq!(ctx.sharded_db().unwrap().num_shards(), 4);
        assert_eq!(ctx.items_by_frequency(), &db.items_by_frequency()[..]);
        for k1 in [1usize, 3, 7] {
            assert_eq!(
                ctx.theta_count(k1),
                theta_by_fpgrowth(&db, k1),
                "θ anchor must not depend on sharding (k1 = {k1})"
            );
        }
    }

    #[test]
    fn shared_context_is_byte_identical_to_run() {
        // The one-shot run (a one-shard context over a copy of the rows) and a context
        // built by the caller — adopting the rows, or over 3 shards — must release the
        // same bytes, on the single-basis (dense) and multi-basis (sparse) paths alike.
        let pb = PrivBasis::with_defaults();
        let mut multi_basis = false;
        for (db, k) in [(db(), 5usize), (sparse_db(), 25)] {
            let single = QueryContext::new(Arc::clone(&db));
            let sharded = QueryContext::sharded(ShardedDb::partition(&db, 3).into_shared());
            for seed in [1u64, 5, 11] {
                for eps in [Epsilon::Finite(0.7), Epsilon::Infinite] {
                    let a = pb
                        .run(&mut StdRng::seed_from_u64(seed), &db, k, eps)
                        .unwrap();
                    multi_basis |= a.basis_set.width() > 1;
                    for ctx in [&single, &sharded] {
                        let b = pb
                            .run_shared(&mut StdRng::seed_from_u64(seed), ctx, k, eps)
                            .unwrap();
                        assert_eq!(a.lambda, b.lambda);
                        assert_eq!(a.frequent_pairs, b.frequent_pairs);
                        assert_eq!(a.basis_set, b.basis_set);
                        assert_eq!(a.itemsets.len(), b.itemsets.len());
                        for ((sa, ca), (sb, cb)) in a.itemsets.iter().zip(&b.itemsets) {
                            assert_eq!(sa, sb);
                            assert_eq!(ca.to_bits(), cb.to_bits(), "counts differ for {sa:?}");
                        }
                    }
                }
            }
        }
        assert!(
            multi_basis,
            "the sparse fixture must reach the multi-basis path"
        );
    }

    #[test]
    fn concurrent_queries_share_one_context() {
        let ctx = Arc::new(QueryContext::new(db()));
        let pb = PrivBasis::with_defaults();
        let outputs: Vec<usize> = std::thread::scope(|scope| {
            (0..6u64)
                .map(|seed| {
                    let ctx = Arc::clone(&ctx);
                    let pb = pb.clone();
                    scope.spawn(move || {
                        pb.run_shared(
                            &mut StdRng::seed_from_u64(seed),
                            &ctx,
                            4,
                            Epsilon::Finite(1.0),
                        )
                        .unwrap()
                        .itemsets
                        .len()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(outputs.len(), 6);
        // All queries used k = 4 ⇒ one memoized θ.
        assert_eq!(ctx.theta_cache_len(), 1);
    }
}
