//! The sharded dataset: row-partitioned [`TransactionDb`]s with exact summation merges.

use crate::plan::ShardPlan;
use crate::remote::{Fabric, RemoteShard, ShardBackend};
use pb_fim::itemset::{Item, ItemSet};
use pb_fim::{PairCounts, TransactionDb, VerticalIndex};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

/// One shard: its rows plus a lazily built vertical index over them.
#[derive(Debug)]
pub struct Shard {
    db: Arc<TransactionDb>,
    index: OnceLock<Arc<VerticalIndex>>,
}

impl Shard {
    fn new(db: Arc<TransactionDb>) -> Shard {
        Shard {
            db,
            index: OnceLock::new(),
        }
    }

    /// The shard's rows.
    pub fn db(&self) -> &Arc<TransactionDb> {
        &self.db
    }

    /// The shard's vertical index, built on first use.
    ///
    /// Concurrent first calls may race to build, but the build is deterministic and
    /// [`OnceLock`] publishes exactly one winner.
    pub fn index(&self) -> &Arc<VerticalIndex> {
        self.index
            .get_or_init(|| VerticalIndex::build(&self.db).into_shared())
    }
}

/// A transaction database partitioned into `S` disjoint row shards.
///
/// Every counting primitive the PrivBasis pipeline needs distributes over disjoint row
/// sets — a transaction contributes to exactly one shard's count, so the global value is
/// the *sum* of the per-shard values, exactly (the merged quantities are integers, so no
/// floating-point reassociation can creep in). The fan-out/merge methods here therefore
/// return bit-identical results to their unsharded counterparts for any shard count and
/// any thread count, which is what lets `pb-core` draw its Laplace noise once, on the
/// merged counts, in the same fixed order as the unsharded engine.
///
/// The fan-out runs on the process-wide counting pool ([`pb_fim::pool`]): the caller
/// counts the first shard itself and pool helpers take the others. The shards and
/// their backends are `Arc`-shared so each leg carries its own handle to them.
#[derive(Debug)]
pub struct ShardedDb {
    plan: ShardPlan,
    shards: Arc<[Shard]>,
    /// Where each shard's count ops run, parallel to `shards`. All-local unless
    /// [`ShardedDb::with_workers`] placed a prefix of the shards remotely.
    backends: Arc<[ShardBackend]>,
    /// Shared fabric health, present once any shard is remote.
    fabric: Option<Arc<Fabric>>,
    num_transactions: usize,
    /// Merged `(item, support)` ascending by item, computed on first use.
    item_counts: OnceLock<Vec<(Item, usize)>>,
    /// Merged items by descending support (ties ascending by item), on first use.
    items_by_freq: OnceLock<Vec<(Item, usize)>>,
}

fn all_local(n: usize) -> Arc<[ShardBackend]> {
    (0..n).map(|_| ShardBackend::Local).collect()
}

impl ShardedDb {
    /// Partitions `db` into `num_shards` contiguous row blocks (the [`ShardPlan`]
    /// layout). Rows are copied into per-shard databases; the source is not retained.
    ///
    /// # Panics
    /// Panics if `num_shards` is 0; every seam that takes a shard count from outside
    /// refuses 0 before it gets here.
    pub fn partition(db: &TransactionDb, num_shards: usize) -> ShardedDb {
        let plan = ShardPlan::new(NonZeroUsize::new(num_shards).expect("at least one shard"));
        let rows = db.transactions();
        let shards: Arc<[Shard]> = plan
            .boundaries(rows.len())
            .into_iter()
            .map(|range| {
                Shard::new(TransactionDb::from_itemsets(rows[range].to_vec()).into_shared())
            })
            .collect();
        ShardedDb {
            plan,
            num_transactions: rows.len(),
            backends: all_local(shards.len()),
            shards,
            fabric: None,
            item_counts: OnceLock::new(),
            items_by_freq: OnceLock::new(),
        }
    }

    /// Assembles a sharded database from pre-split shards (e.g. one file per shard).
    /// Row order across shards is the concatenation order, matching an unsharded
    /// database built from the same concatenation. The shards are adopted as given —
    /// owned or shared, never copied — so `from_shards(vec![db])` is the one-shard
    /// layout of `db` at no extra row memory.
    pub fn from_shards(shards: Vec<impl Into<Arc<TransactionDb>>>) -> ShardedDb {
        let shards: Arc<[Shard]> = shards
            .into_iter()
            .map(Into::into)
            .filter(|db: &Arc<TransactionDb>| !db.is_empty())
            .map(Shard::new)
            .collect();
        let num_transactions = shards.iter().map(|s| s.db.len()).sum();
        ShardedDb {
            // All-empty input is the one-shard layout of an empty database.
            plan: ShardPlan::new(NonZeroUsize::new(shards.len()).unwrap_or(NonZeroUsize::MIN)),
            backends: all_local(shards.len()),
            shards,
            fabric: None,
            num_transactions,
            item_counts: OnceLock::new(),
            items_by_freq: OnceLock::new(),
        }
    }

    /// Places a prefix of the shards onto remote worker processes: shard `i` goes to
    /// `workers[i]` for `i < workers.len()`, every remaining shard stays local (so an
    /// empty list is all-local, `workers.len() >= S` is all-remote, anything between
    /// is a mixed placement). Each placed worker is dialed and seeded with its
    /// shard's rows under the key `"{dataset}/{i}"` before this returns; any dial or
    /// seed failure aborts the placement, so a dataset never serves half-placed.
    ///
    /// Placement is a pure scaling knob: the fan-out/merge results are byte-identical
    /// to the all-local path, because the workers return the same exact integer
    /// counts the local index would.
    pub fn with_workers(mut self, workers: &[SocketAddr], dataset: &str) -> io::Result<ShardedDb> {
        let fabric = self
            .fabric
            .take()
            .unwrap_or_else(|| Arc::new(Fabric::default()));
        let mut backends = self.backends.to_vec();
        for (i, addr) in workers.iter().enumerate().take(self.shards.len()) {
            let remote = RemoteShard::connect(
                *addr,
                format!("{dataset}/{i}"),
                Arc::clone(self.shards[i].db()),
                Arc::clone(&fabric),
            )?;
            backends[i] = ShardBackend::Remote(Arc::new(remote));
        }
        self.backends = backends.into();
        self.fabric = Some(fabric);
        Ok(self)
    }

    /// Wraps the sharded database in an [`Arc`] for reuse across query threads (all
    /// query methods take `&self`).
    pub fn into_shared(self) -> Arc<ShardedDb> {
        Arc::new(self)
    }

    /// The recorded layout.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of non-empty shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total number of transactions across all shards.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// True when no shard holds any transaction.
    pub fn is_empty(&self) -> bool {
        self.num_transactions == 0
    }

    /// The per-shard backends, parallel to [`ShardedDb::shards`].
    pub fn backends(&self) -> &[ShardBackend] {
        &self.backends
    }

    /// Number of shards placed on remote workers.
    pub fn num_remote_shards(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| matches!(b, ShardBackend::Remote(_)))
            .count()
    }

    /// `(worker address, healthy)` for every remotely placed shard, in shard order.
    pub fn remote_placements(&self) -> Vec<(SocketAddr, bool)> {
        self.backends
            .iter()
            .filter_map(|b| match b {
                ShardBackend::Local => None,
                ShardBackend::Remote(r) => Some((r.addr(), r.is_healthy())),
            })
            .collect()
    }

    /// The shared fabric health state, present once any shard is remote.
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        self.fabric.as_ref()
    }

    /// Monotone count of remote-op failures (0 for an all-local dataset). Queries
    /// snapshot this before counting and abort the release if it moved — the
    /// fail-closed seam that keeps a mid-fan-out worker death from spending ε on
    /// an answer that was never released.
    pub fn fabric_failures(&self) -> u64 {
        self.fabric.as_ref().map_or(0, |f| f.failures())
    }

    /// Description of the most recent remote failure (empty if none).
    pub fn fabric_last_error(&self) -> String {
        self.fabric
            .as_ref()
            .map_or_else(String::new, |f| f.last_error())
    }

    /// True while any remote worker's last op failed (the dataset serves degraded:
    /// queries that need that worker abort without spending budget).
    pub fn fabric_down(&self) -> bool {
        self.backends.iter().any(|b| match b {
            ShardBackend::Local => false,
            ShardBackend::Remote(r) => !r.is_healthy(),
        })
    }

    /// Number of distinct items across all shards.
    pub fn num_distinct_items(&self) -> usize {
        self.merged_item_counts().len()
    }

    /// Merged `(item, support)` pairs ascending by item: the per-shard counts summed.
    pub fn item_counts(&self) -> &[(Item, usize)] {
        self.merged_item_counts()
    }

    /// Items by descending support, ties ascending by item id — the same contract as
    /// [`TransactionDb::items_by_frequency`], computed from the merged counts.
    pub fn items_by_frequency(&self) -> &[(Item, usize)] {
        self.items_by_freq.get_or_init(|| {
            let mut v = self.merged_item_counts().to_vec();
            v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        })
    }

    fn merged_item_counts(&self) -> &[(Item, usize)] {
        self.item_counts.get_or_init(|| {
            let per_shard = self.fan_out(|shard, backend, _| match backend {
                ShardBackend::Local => shard.index().item_counts(),
                // Remote shards keep this whole-dataset scan local (the rows are
                // retained anyway) without building the heavy vertical index.
                ShardBackend::Remote(r) => r.rows().item_counts().into_iter().collect(),
            });
            let mut merged: BTreeMap<Item, usize> = BTreeMap::new();
            for counts in per_shard {
                for (item, count) in counts {
                    *merged.entry(item).or_insert(0) += count;
                }
            }
            merged.into_iter().collect()
        })
    }

    /// Support count of one itemset: the per-shard supports summed.
    pub fn support(&self, itemset: &ItemSet) -> usize {
        self.supports(std::slice::from_ref(itemset))[0]
    }

    /// Support counts for a batch of candidates, fanned across shards and summed.
    pub fn supports(&self, candidates: &[ItemSet]) -> Vec<usize> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let candidates: Arc<[ItemSet]> = candidates.into();
        let mut per_shard = self
            .fan_out({
                let candidates = Arc::clone(&candidates);
                move |shard, backend, _| match backend {
                    ShardBackend::Local => shard.index().supports(&candidates),
                    ShardBackend::Remote(r) => r.supports(&candidates),
                }
            })
            .into_iter();
        // Summed into the first shard's result, so a single shard merges nothing.
        let mut merged = per_shard
            .next()
            .unwrap_or_else(|| vec![0; candidates.len()]);
        for counts in per_shard {
            for (acc, c) in merged.iter_mut().zip(counts) {
                *acc += c;
            }
        }
        merged
    }

    /// The support of every unordered pair of `items`, zeros included, in the flat
    /// order of [`PairCounts`]: per-shard counts merged position by position.
    pub fn pair_counts(&self, items: &ItemSet) -> PairCounts {
        let shared = items.clone();
        let mut per_shard = self
            .fan_out(move |shard, backend, inner| match backend {
                ShardBackend::Local => shard.index().pair_counts_with(&shared, inner),
                ShardBackend::Remote(r) => r.pair_counts(&shared),
            })
            .into_iter();
        let mut merged = per_shard.next().unwrap_or_else(|| PairCounts::zeros(items));
        for counts in per_shard {
            merged.add(&counts);
        }
        merged
    }

    /// The `BasisFreq` kernel across shards: for every basis, the exact bin histogram of
    /// the *whole* database, computed per shard and merged by summation.
    ///
    /// A transaction falls into exactly one bin of exactly one shard's histogram, so the
    /// sums equal the unsharded [`VerticalIndex::bin_histogram`] bit for bit — the merge
    /// seam `pb-core` adds its (single) noise stream on top of.
    pub fn bin_histograms(&self, bases: &[ItemSet]) -> Vec<Vec<u64>> {
        if bases.is_empty() {
            return Vec::new();
        }
        let shared: Arc<[ItemSet]> = bases.into();
        let mut per_shard = self
            .fan_out(move |shard, backend, inner| match backend {
                ShardBackend::Local => shard.index().bin_histograms(&shared, inner),
                ShardBackend::Remote(r) => r.bin_histograms(&shared),
            })
            .into_iter();
        let mut merged = per_shard.next().unwrap_or_else(|| {
            bases
                .iter()
                .map(|b| vec![0u64; 1usize << b.len()])
                .collect()
        });
        for shard_hists in per_shard {
            for (acc, hist) in merged.iter_mut().zip(shard_hists) {
                for (a, h) in acc.iter_mut().zip(hist) {
                    *a += h;
                }
            }
        }
        merged
    }

    /// Runs `task(shard, backend, inner_budget)` for every shard on the counting pool,
    /// within the workspace thread budget, and returns the results in shard order —
    /// so a merge never depends on which thread counted which shard.
    fn fan_out<T, F>(&self, task: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&Shard, &ShardBackend, usize) -> T + Send + Sync + 'static,
    {
        let shards = Arc::clone(&self.shards);
        let backends = Arc::clone(&self.backends);
        pb_fim::pool::run(
            pb_fim::pool::available_parallelism(),
            shards.len(),
            move |s, inner| task(&shards[s], &backends[s], inner),
        )
    }
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
            vec![],
            vec![4, 5],
            vec![1, 5],
            vec![2, 4, 5],
        ])
    }

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::new(items.to_vec())
    }

    #[test]
    fn partition_preserves_rows_and_counts() {
        let db = sample_db();
        for shards in 1..=9 {
            let sharded = ShardedDb::partition(&db, shards);
            assert_eq!(sharded.num_transactions(), db.len());
            assert!(!sharded.is_empty());
            assert_eq!(sharded.plan().num_shards(), shards);
            assert!(sharded.num_shards() <= shards);
            let total: usize = sharded.shards().iter().map(|s| s.db().len()).sum();
            assert_eq!(total, db.len());
            assert_eq!(sharded.num_distinct_items(), db.num_distinct_items());
        }
    }

    #[test]
    fn merged_counts_match_unsharded() {
        let db = sample_db();
        let queries = [
            set(&[]),
            set(&[1]),
            set(&[1, 2]),
            set(&[2, 3]),
            set(&[1, 2, 3]),
            set(&[9]),
            set(&[1, 9]),
        ];
        for shards in 1..=9 {
            let sharded = ShardedDb::partition(&db, shards);
            assert_eq!(sharded.items_by_frequency(), &db.items_by_frequency()[..]);
            for q in &queries {
                assert_eq!(sharded.support(q), db.support(q), "{q:?} at S={shards}");
            }
            assert_eq!(sharded.supports(&queries), db.supports(&queries));
            assert!(sharded.supports(&[]).is_empty());
            let items = set(&[1, 2, 3, 4, 5]);
            assert_eq!(sharded.pair_counts(&items), db.pair_counts(&items));
        }
    }

    #[test]
    fn merged_histograms_match_unsharded() {
        let db = sample_db();
        let index = VerticalIndex::build(&db);
        let bases = [set(&[1, 2, 3]), set(&[4, 5]), set(&[2, 9]), set(&[])];
        for shards in 1..=9 {
            let sharded = ShardedDb::partition(&db, shards);
            let merged = sharded.bin_histograms(&bases);
            for (basis, hist) in bases.iter().zip(&merged) {
                assert_eq!(hist, &index.bin_histogram(basis), "{basis:?} at S={shards}");
            }
            assert!(sharded.bin_histograms(&[]).is_empty());
        }
    }

    #[test]
    fn nested_fan_out_terminates_and_matches_unsharded() {
        // Two local shards, each wide enough (≥ 512 words) that its leg splits its own
        // sweep on the pool: at a budget of 4 each of the 2 legs gets an inner budget
        // of 2, so pool shares fan out from inside pool shares.
        let n = 2 * 64 * 512 + 300;
        let db = TransactionDb::from_transactions(
            (0..n)
                .map(|t| {
                    (0..10u32)
                        .filter(|&j| (t * 17 + j as usize * 5).is_multiple_of(j as usize + 2))
                        .collect::<Vec<_>>()
                })
                .collect(),
        );
        let bases = [set(&[0, 1, 2, 3, 4]), set(&[5, 6, 7]), set(&[8, 9, 0])];
        let expected = VerticalIndex::build(&db).bin_histograms(&bases, 1);
        let sharded = ShardedDb::partition(&db, 2);
        pb_fim::pool::set_parallelism_override(Some(4));
        let merged = sharded.bin_histograms(&bases);
        let supports = sharded.supports(&bases);
        pb_fim::pool::set_parallelism_override(None);
        assert_eq!(merged, expected);
        assert_eq!(supports, db.supports(&bases));
    }

    #[test]
    fn from_shards_matches_concatenation() {
        let db = sample_db();
        let rows = db.transactions();
        let sharded = ShardedDb::from_shards(vec![
            TransactionDb::from_itemsets(rows[..4].to_vec()),
            TransactionDb::from_itemsets(Vec::new()), // empty shards are dropped
            TransactionDb::from_itemsets(rows[4..].to_vec()),
        ]);
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.num_transactions(), db.len());
        assert_eq!(sharded.support(&set(&[1, 2])), db.support(&set(&[1, 2])));
    }

    #[test]
    fn empty_database() {
        let sharded = ShardedDb::partition(&TransactionDb::default(), 4);
        assert!(sharded.is_empty());
        assert_eq!(sharded.num_shards(), 0);
        assert_eq!(sharded.num_distinct_items(), 0);
        assert!(sharded.items_by_frequency().is_empty());
        assert_eq!(sharded.supports(&[set(&[1])]), vec![0]);
        assert_eq!(sharded.bin_histograms(&[set(&[1])]), vec![vec![0, 0]]);
    }
}
