//! Algorithm 3 — the end-to-end PrivBasis method.
//!
//! The five steps of §4.1, with the privacy budget split `α₁ε / α₂ε / α₃ε`:
//!
//! 1. **GetLambda** (α₁ε) — estimate λ, the number of distinct items in the top-`k` itemsets,
//!    by sampling an item rank whose frequency is closest to that of the (η·k)-th itemset.
//! 2. **Frequent items** (part of α₂ε) — select the λ most frequent items with repeated
//!    exponential-mechanism draws.
//! 3. **Frequent pairs** (rest of α₂ε, only when λ exceeds the single-basis threshold) —
//!    select the λ₂ most frequent pairs among the selected items.
//! 4. **ConstructBasisSet** (no budget — post-processing of steps 2–3).
//! 5. **BasisFreq** (α₃ε) — noisy bin counts, reconstruction, top-`k` selection.

use crate::basis::BasisSet;
use crate::consistency::enforce_consistency_in_place;
use crate::construct::construct_basis_set;
use crate::freq::{basis_freq_counts_with_histograms, NoisyCandidateCounts};
use crate::observe::{NoopObserver, PhaseObserver};
use crate::params::{PrivBasisParams, SelectionScale};
use pb_dp::exponential_mechanism;
use pb_dp::{sample_without_replacement, DpError, Epsilon, ExponentialScale, PrivacyBudget};
use pb_fim::itemset::{Item, ItemSet};
use pb_fim::{PairCounts, TransactionDb};
use pb_shard::ShardedDb;
use rand::Rng;

/// Errors returned by [`PrivBasis::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum PrivBasisError {
    /// The algorithmic parameters are inconsistent (see [`PrivBasisParams::validate`]).
    InvalidParams(String),
    /// `k` was zero.
    InvalidK,
    /// The database contains no transactions.
    EmptyDatabase,
    /// A differential-privacy primitive rejected its inputs.
    Dp(DpError),
}

impl std::fmt::Display for PrivBasisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrivBasisError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            PrivBasisError::InvalidK => write!(f, "k must be at least 1"),
            PrivBasisError::EmptyDatabase => write!(f, "the transaction database is empty"),
            PrivBasisError::Dp(e) => write!(f, "differential privacy error: {e}"),
        }
    }
}

impl std::error::Error for PrivBasisError {}

impl From<DpError> for PrivBasisError {
    fn from(e: DpError) -> Self {
        PrivBasisError::Dp(e)
    }
}

/// The result of one PrivBasis run.
#[derive(Debug, Clone)]
pub struct PrivBasisOutput {
    /// The published top-`k` itemsets with their noisy support counts, descending.
    ///
    /// Contains `min(k, candidate_count)` entries: when λ is tiny the single-basis
    /// candidate set `C(B)` has only `2^λ − 1` itemsets, and the release is truncated
    /// rather than padded with itemsets nothing was counted for. Callers that need
    /// exactly `k` rows must check [`PrivBasisOutput::candidate_count`].
    pub itemsets: Vec<(ItemSet, f64)>,
    /// The *effective* λ used by steps 2–5: the step-1 estimate clamped to the number of
    /// distinct items actually present in the database.
    pub lambda: usize,
    /// The λ₂ value used for pair selection (0 when the single-basis path was taken).
    pub lambda2: usize,
    /// The frequent items selected in step 2.
    pub frequent_items: ItemSet,
    /// The frequent pairs selected in step 3 (empty on the single-basis path).
    pub frequent_pairs: Vec<(Item, Item)>,
    /// The basis set used for the noisy counts.
    pub basis_set: BasisSet,
    /// Number of candidate itemsets `|C(B)|` the top-`k` was selected from.
    pub candidate_count: usize,
}

/// A post-selection rewrite of every candidate count: `(items, count) → count'`,
/// applied once — after the shard merge and the consistency repair, before the final
/// top-`k` ranking. The LDP serving path passes the
/// [`LdpChannel::debias`](https://docs.rs/pb-ldp) correction here so supports observed
/// over perturbed data are compared across itemset sizes on a debiased scale, while the
/// exact integer counting underneath (and hence shard byte-identity) is untouched.
pub type CountTransform<'a> = &'a dyn Fn(&[Item], f64) -> f64;

/// The PrivBasis method (Algorithm 3).
#[derive(Debug, Clone)]
pub struct PrivBasis {
    params: PrivBasisParams,
}

impl PrivBasis {
    /// Creates the method with the given parameters (validated at [`PrivBasis::run`] time).
    pub fn new(params: PrivBasisParams) -> Self {
        PrivBasis { params }
    }

    /// Creates the method with the paper's default parameters.
    pub fn with_defaults() -> Self {
        PrivBasis::new(PrivBasisParams::default())
    }

    /// The parameters.
    pub fn params(&self) -> &PrivBasisParams {
        &self.params
    }

    /// Publishes the top-`k` frequent itemsets of `db` under `epsilon`-differential privacy.
    ///
    /// A one-shot run: [`PrivBasis::run_shared`] on a one-shard
    /// [`QueryContext`](crate::context::QueryContext) over a copy of `db`'s rows, built
    /// and dropped here. Callers that run many queries against one dataset build the
    /// context once and call [`PrivBasis::run_shared`] directly — the same bytes for the
    /// same seed, without re-indexing or re-mining θ per run.
    pub fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        db: &TransactionDb,
        k: usize,
        epsilon: Epsilon,
    ) -> Result<PrivBasisOutput, PrivBasisError> {
        // Refuse bad inputs before the row copy and the index build, not after.
        self.check(k)?;
        let context = crate::context::QueryContext::new(db.clone().into_shared());
        self.run_shared(rng, &context, k, epsilon)
    }

    /// The input checks every run starts with: valid parameters and `k ≥ 1`.
    fn check(&self, k: usize) -> Result<(), PrivBasisError> {
        self.params
            .validate()
            .map_err(PrivBasisError::InvalidParams)?;
        if k == 0 {
            return Err(PrivBasisError::InvalidK);
        }
        Ok(())
    }

    /// [`PrivBasis::run`] against a [`QueryContext`](crate::context::QueryContext): the
    /// per-shard indexes *and* the memoized deterministic precomputation
    /// (items-by-frequency, per-`k1` θ counts) are all reused, leaving only the private
    /// mechanisms and the bin counting on the per-query path.
    ///
    /// Every exact count — item supports, pair supports, θ-candidate supports, and the
    /// `BasisFreq` bin histograms — is computed per shard and merged by summation, and
    /// the Laplace noise is drawn once, on the merged histograms, in one fixed order.
    /// For a fixed seed the output is byte-identical to [`PrivBasis::run`] on the
    /// context's rows, for **any** shard count (property-tested in
    /// `tests/proptest_sharded.rs`).
    pub fn run_shared<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        context: &crate::context::QueryContext,
        k: usize,
        epsilon: Epsilon,
    ) -> Result<PrivBasisOutput, PrivBasisError> {
        self.run_shared_transformed(rng, context, k, epsilon, None, &NoopObserver)
    }

    /// [`PrivBasis::run_shared`] with a [`PhaseObserver`] watching the stage
    /// boundaries (λ estimation, selection, noise draw, counting, consistency).
    pub fn run_shared_observed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        context: &crate::context::QueryContext,
        k: usize,
        epsilon: Epsilon,
        obs: &dyn PhaseObserver,
    ) -> Result<PrivBasisOutput, PrivBasisError> {
        self.run_shared_transformed(rng, context, k, epsilon, None, obs)
    }

    /// The general form of [`PrivBasis::run_shared`]: an optional [`CountTransform`]
    /// rewriting every candidate count once, post-merge, before the top-`k` ranking,
    /// and a [`PhaseObserver`] ([`NoopObserver`] when nobody watches).
    ///
    /// The transform is the server-side LDP entry point: mining over client-perturbed
    /// data runs the whole pipeline noiselessly ([`Epsilon::Infinite`] — the privacy was
    /// already spent at the clients, so there is nothing for a ledger to debit) and
    /// passes the channel's debias correction here. Because the transform only sees the
    /// merged counts, the exact integer histograms and their shard-fabric summation are
    /// unchanged — the release stays byte-identical for any shard count or placement.
    ///
    /// Observation is passive and clock-free on this side — the observer mints the
    /// instants — so the release is byte-identical whether or not anybody is watching.
    pub fn run_shared_transformed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        context: &crate::context::QueryContext,
        k: usize,
        epsilon: Epsilon,
        transform: Option<CountTransform<'_>>,
        obs: &dyn PhaseObserver,
    ) -> Result<PrivBasisOutput, PrivBasisError> {
        self.check(k)?;
        let sharded = context.shards();
        let n = sharded.num_transactions();
        let items_by_freq = sharded.items_by_frequency();
        if n == 0 || items_by_freq.is_empty() {
            return Err(PrivBasisError::EmptyDatabase);
        }

        let mut budget = PrivacyBudget::new(epsilon);
        let eps_lambda = budget.spend_fraction(self.params.alpha1)?;
        let eps_select = budget.spend_fraction(self.params.alpha2)?;
        let eps_counts = budget.spend_remaining()?;

        // Step 1: λ. GetLambda samples a rank into `items_by_freq`, so the clamp normally
        // never bites; it pins down the invariant that the published λ is the *effective*
        // one — the value steps 2–5 actually use — for any future λ estimator.
        let t_lambda = obs.now();
        let eta = self.params.eta_for(k);
        let k1 = ((k as f64 * eta).ceil() as usize).max(1);
        // θ is a deterministic function of the data and k1, memoized by the context —
        // on large databases this non-private mining pass dominates a cold query.
        let theta = context.theta_count(k1) / n as f64;
        let lambda = get_lambda(rng, n, items_by_freq, theta, eps_lambda)?;
        let lambda = lambda.clamp(1, items_by_freq.len());
        obs.phase("lambda", t_lambda, obs.now());

        if lambda <= self.params.single_basis_lambda {
            // Steps 2 + 5, single-basis path.
            let t_items = obs.now();
            let frequent_items =
                self.select_frequent_items(rng, n, items_by_freq, lambda, eps_select)?;
            obs.phase("select_items", t_items, obs.now());
            let basis_set = BasisSet::single(frequent_items.clone());
            let counts = self.count_bases(rng, sharded, n, &basis_set, eps_counts, transform, obs);
            Ok(PrivBasisOutput {
                itemsets: counts.top_k(k),
                lambda,
                lambda2: 0,
                frequent_items,
                frequent_pairs: Vec::new(),
                basis_set,
                candidate_count: counts.len(),
            })
        } else {
            // Steps 2–5, multi-basis path.
            let lambda2 = self.params.lambda2_for(k, lambda);
            let (eps_items, eps_pairs) = if lambda2 == 0 {
                (eps_select, None)
            } else {
                let beta1 = lambda as f64 / (lambda + lambda2) as f64;
                (
                    eps_select.fraction(beta1),
                    Some(eps_select.fraction(1.0 - beta1)),
                )
            };

            let t_items = obs.now();
            let frequent_items =
                self.select_frequent_items(rng, n, items_by_freq, lambda, eps_items)?;
            obs.phase("select_items", t_items, obs.now());

            let t_pairs = obs.now();
            let frequent_pairs = match eps_pairs {
                Some(eps_pairs) if frequent_items.len() >= 2 => {
                    // Exact pair supports, counted per shard and merged by summation.
                    let pair_counts = sharded.pair_counts(&frequent_items);
                    self.select_frequent_pairs(rng, n, &pair_counts, lambda2, eps_pairs)?
                }
                _ => Vec::new(),
            };
            obs.phase("select_pairs", t_pairs, obs.now());

            let t_construct = obs.now();
            let basis_set =
                construct_basis_set(&frequent_items, &frequent_pairs, self.params.max_basis_len);
            obs.phase("construct", t_construct, obs.now());
            let counts = self.count_bases(rng, sharded, n, &basis_set, eps_counts, transform, obs);
            Ok(PrivBasisOutput {
                itemsets: counts.top_k(k),
                lambda,
                lambda2,
                frequent_items,
                frequent_pairs,
                basis_set,
                candidate_count: counts.len(),
            })
        }
    }

    /// Step 5: BasisFreq on the context's shards, followed by the (budget-free)
    /// consistency post-processing when `params.consistency` is set, then the optional
    /// [`CountTransform`] (the LDP debias). Both post-passes are deterministic, so the
    /// release depends on the seed and the data alone.
    #[allow(clippy::too_many_arguments)]
    fn count_bases<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sharded: &ShardedDb,
        n: usize,
        basis_set: &BasisSet,
        eps: Epsilon,
        transform: Option<CountTransform<'_>>,
        obs: &dyn PhaseObserver,
    ) -> NoisyCandidateCounts {
        // BasisFreq draws every Laplace variate *before* the exact counting closure
        // runs, so the window from call start to closure entry is the noise draw, the
        // closure itself is the counting (per-shard fan-out + merge), and the remainder
        // is the noisy reconstruction — three clean phases without moving a single
        // statement of the mechanism.
        let t_call = obs.now();
        let merge_window = std::cell::Cell::new((t_call, t_call));
        let mut counts = basis_freq_counts_with_histograms(rng, basis_set, eps, |bases| {
            let t = obs.now();
            let hists = sharded.bin_histograms(bases);
            merge_window.set((t, obs.now()));
            hists
        });
        let (merge_start, merge_end) = merge_window.get();
        obs.phase("noise_draw", t_call, merge_start);
        obs.phase("shard_merge", merge_start, merge_end);
        obs.phase("reconstruct", merge_end, obs.now());
        if let Some(options) = self.params.consistency {
            let t_consistency = obs.now();
            enforce_consistency_in_place(&mut counts, n, options);
            obs.phase("consistency", t_consistency, obs.now());
        }
        if let Some(f) = transform {
            let t_debias = obs.now();
            counts.map_counts(f);
            obs.phase("debias", t_debias, obs.now());
        }
        counts
    }

    /// Step 2: select `lambda` items by repeated exponential-mechanism draws
    /// (`GetFreqElements` applied to single items).
    fn select_frequent_items<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        items_by_freq: &[(Item, usize)],
        lambda: usize,
        eps: Epsilon,
    ) -> Result<ItemSet, PrivBasisError> {
        let lambda = lambda.clamp(1, items_by_freq.len());
        let qualities: Vec<f64> = items_by_freq
            .iter()
            .map(|&(_, c)| self.quality(c, n))
            .collect();
        let per_draw = eps.split(lambda);
        // audit:allow(noise-seam): GetFreqElements (Algorithm 2) — this draw IS the mechanism; its ε comes out of the α₂ split
        let picked = sample_without_replacement(
            rng,
            &qualities,
            lambda,
            self.selection_sensitivity(n),
            per_draw,
            ExponentialScale::OneSided,
        )?;
        Ok(picked.into_iter().map(|i| items_by_freq[i].0).collect())
    }

    /// Step 3: select `lambda2` pairs among the selected items (`GetFreqElements` on
    /// pairs), given their exact supports.
    fn select_frequent_pairs<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        pair_counts: &PairCounts,
        lambda2: usize,
        eps: Epsilon,
    ) -> Result<Vec<(Item, Item)>, PrivBasisError> {
        // Candidate set: every pair of selected items, including pairs that never
        // co-occur, in the flat order the counts come in.
        if pair_counts.is_empty() {
            return Ok(Vec::new());
        }
        let lambda2 = lambda2.clamp(1, pair_counts.len());
        let qualities: Vec<f64> = pair_counts
            .counts()
            .iter()
            .map(|&c| self.quality(c, n))
            .collect();
        let per_draw = eps.split(lambda2);
        // audit:allow(noise-seam): GetFreqElements (Algorithm 2) — this draw IS the mechanism; its ε comes out of the α₂ split
        let picked = sample_without_replacement(
            rng,
            &qualities,
            lambda2,
            self.selection_sensitivity(n),
            per_draw,
            ExponentialScale::OneSided,
        )?;
        let candidates: Vec<(Item, Item)> = pair_counts.iter().map(|(pair, _)| pair).collect();
        Ok(picked.into_iter().map(|i| candidates[i]).collect())
    }

    /// Quality of a support count under the configured [`SelectionScale`].
    fn quality(&self, count: usize, n: usize) -> f64 {
        match self.params.selection_scale {
            SelectionScale::Count => count as f64,
            SelectionScale::Frequency => {
                if n == 0 {
                    0.0
                } else {
                    count as f64 / n as f64
                }
            }
        }
    }

    /// Global sensitivity of the selection qualities, matching [`PrivBasis::quality`]:
    /// one transaction moves a support count by 1 (sensitivity 1) and a frequency by
    /// `1/N` (sensitivity `1/N`). Feeding count-scale sensitivity to frequency-scale
    /// qualities would run the exponential mechanism at `ε/N` effective weight —
    /// near-uniform sampling for any realistic `N`.
    fn selection_sensitivity(&self, n: usize) -> f64 {
        match self.params.selection_scale {
            SelectionScale::Count => 1.0,
            SelectionScale::Frequency => 1.0 / n.max(1) as f64,
        }
    }
}

/// Step 1 — `GetLambda`: sample the item rank whose frequency is closest to `theta`, the
/// frequency of the (η·k)-th most frequent itemset. The quality of rank `j` is
/// `(1 − |f_itemⱼ − θ|)·N` (sensitivity 1); the paper keeps the standard `ε/2` exponent.
fn get_lambda<R: Rng + ?Sized>(
    rng: &mut R,
    num_transactions: usize,
    items_by_freq: &[(Item, usize)],
    theta: f64,
    eps: Epsilon,
) -> Result<usize, DpError> {
    let n = num_transactions as f64;
    let qualities: Vec<f64> = items_by_freq
        .iter()
        .map(|&(_, c)| (1.0 - (c as f64 / n - theta).abs()) * n)
        .collect();
    // audit:allow(noise-seam): GetLambda (step 1) — the α₁ε exponential-mechanism draw itself
    let idx = exponential_mechanism(rng, &qualities, 1.0, eps, ExponentialScale::Standard)?;
    Ok(idx + 1) // ranks are 1-based: λ = j means "the top j items"
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_fim::topk::top_k_itemsets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// Dense database with strictly decreasing item frequencies: item `j` (j ≤ 5) appears in a
    /// nested `(20 − 2j)/20` fraction of transactions, so the top itemsets span few items and
    /// the frequency ladder has no ties near the top.
    fn dense_db(n: usize) -> TransactionDb {
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let slot = i % 20;
            let mut row: Vec<u32> = (0..6u32).filter(|&j| slot < 20 - 2 * j as usize).collect();
            row.push(6 + (i % 20) as u32); // light tail of 20 cold items
            t.push(row);
        }
        TransactionDb::from_transactions(t)
    }

    /// Deterministic mixing function used to make item occurrences pseudo-independent.
    fn mix(i: usize, j: u32) -> u64 {
        let mut x = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^ (x >> 29)
    }

    /// Sparse database: 40 items with strictly decreasing frequencies (0.5 down to ~0.3) and
    /// pseudo-independent occurrences, so pairs co-occur near the product of the singleton
    /// frequencies (< 0.26) and the top-k is dominated by singletons (the λ ≈ k regime).
    fn sparse_db(n: usize) -> TransactionDb {
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<u32> = (0..40u32)
                .filter(|&j| mix(i, j) % 1000 < 500 - 5 * j as u64)
                .collect();
            t.push(row);
        }
        TransactionDb::from_transactions(t)
    }

    #[test]
    fn noiseless_run_recovers_exact_topk_dense() {
        let db = dense_db(4_000);
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let out = pb.run(&mut rng, &db, 7, Epsilon::Infinite).unwrap();
        let truth: Vec<ItemSet> = top_k_itemsets(&db, 7, None)
            .into_iter()
            .map(|f| f.items)
            .collect();
        let published: HashSet<&ItemSet> = out.itemsets.iter().map(|(s, _)| s).collect();
        let hits = truth.iter().filter(|t| published.contains(t)).count();
        assert_eq!(
            hits, 7,
            "noiseless PrivBasis should recover the exact top-k"
        );
        // Published counts must equal true supports when there is no noise.
        for (s, c) in &out.itemsets {
            assert!((c - db.support(s) as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn noiseless_run_recovers_exact_topk_sparse() {
        let db = sparse_db(6_000);
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(2);
        let out = pb.run(&mut rng, &db, 30, Epsilon::Infinite).unwrap();
        let truth: HashSet<ItemSet> = top_k_itemsets(&db, 30, None)
            .into_iter()
            .map(|f| f.items)
            .collect();
        let hits = out
            .itemsets
            .iter()
            .filter(|(s, _)| truth.contains(s))
            .count();
        // The sparse path goes through λ > 12 (multi-basis). λ is chosen against the (η·k)-th
        // itemset, so the selected items always include the true top-k singletons and the
        // noiseless reconstruction recovers them all (allow one slip at the rank boundary).
        assert!(hits >= 28, "only {hits}/30 recovered");
        assert!(out.lambda > 12);
    }

    #[test]
    fn moderate_epsilon_has_low_fnr_on_dense_data() {
        let db = dense_db(20_000);
        let pb = PrivBasis::with_defaults();
        let truth: HashSet<ItemSet> = top_k_itemsets(&db, 7, None)
            .into_iter()
            .map(|f| f.items)
            .collect();
        let mut total_hits = 0;
        let reps = 5;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let out = pb.run(&mut rng, &db, 7, Epsilon::Finite(1.0)).unwrap();
            total_hits += out
                .itemsets
                .iter()
                .filter(|(s, _)| truth.contains(s))
                .count();
        }
        let fnr = 1.0 - total_hits as f64 / (reps as f64 * 7.0);
        assert!(fnr < 0.25, "FNR too high: {fnr}");
    }

    #[test]
    fn output_structure_is_consistent() {
        let db = dense_db(3_000);
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let out = pb.run(&mut rng, &db, 8, Epsilon::Finite(2.0)).unwrap();
        assert_eq!(out.itemsets.len(), 8);
        assert!(out.candidate_count >= 8);
        assert!(out.lambda >= 1);
        // Published itemsets are distinct and drawn from the basis candidates.
        let distinct: HashSet<&ItemSet> = out.itemsets.iter().map(|(s, _)| s).collect();
        assert_eq!(distinct.len(), 8);
        for (s, _) in &out.itemsets {
            assert!(out.basis_set.covers(s));
        }
        // Counts sorted descending.
        for w in out.itemsets.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let db = dense_db(100);
        let pb = PrivBasis::with_defaults();
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(
            pb.run(&mut rng, &db, 0, Epsilon::Finite(1.0)).unwrap_err(),
            PrivBasisError::InvalidK
        );
        let empty = TransactionDb::from_transactions(Vec::<Vec<u32>>::new());
        assert_eq!(
            pb.run(&mut rng, &empty, 5, Epsilon::Finite(1.0))
                .unwrap_err(),
            PrivBasisError::EmptyDatabase
        );
        let bad = PrivBasis::new(PrivBasisParams {
            alpha1: 0.9,
            ..Default::default()
        });
        assert!(matches!(
            bad.run(&mut rng, &db, 5, Epsilon::Finite(1.0)).unwrap_err(),
            PrivBasisError::InvalidParams(_)
        ));
    }

    #[test]
    fn reproducible_under_fixed_seed() {
        let db = dense_db(2_000);
        let pb = PrivBasis::with_defaults();
        let a = pb
            .run(&mut StdRng::seed_from_u64(9), &db, 6, Epsilon::Finite(0.5))
            .unwrap();
        let b = pb
            .run(&mut StdRng::seed_from_u64(9), &db, 6, Epsilon::Finite(0.5))
            .unwrap();
        assert_eq!(a.itemsets, b.itemsets);
        assert_eq!(a.lambda, b.lambda);
    }

    #[test]
    fn indexed_and_naive_runs_are_byte_identical() {
        // The pipeline counts on an index; the paper's row scan stays as the reference.
        // On the basis sets a run actually constructs — single-basis (dense) and
        // multi-basis (sparse) — indexed and row-scan BasisFreq release the same bits.
        let pb = PrivBasis::with_defaults();
        let mut multi_basis = false;
        for (db, k) in [(dense_db(2_500), 6usize), (sparse_db(3_000), 25)] {
            for seed in [0u64, 1, 2, 42] {
                let out = pb
                    .run(
                        &mut StdRng::seed_from_u64(seed),
                        &db,
                        k,
                        Epsilon::Finite(0.8),
                    )
                    .unwrap();
                multi_basis |= out.basis_set.width() > 1;
                let indexed = crate::freq::basis_freq_counts(
                    &mut StdRng::seed_from_u64(seed),
                    &db,
                    &out.basis_set,
                    Epsilon::Finite(0.8),
                );
                let naive = crate::freq::basis_freq_counts_naive(
                    &mut StdRng::seed_from_u64(seed),
                    &db,
                    &out.basis_set,
                    Epsilon::Finite(0.8),
                );
                assert!(!indexed.is_empty());
                assert_eq!(indexed.len(), naive.len());
                for ((sa, ea), (sb, eb)) in indexed.iter().zip(naive.iter()) {
                    assert_eq!(sa, sb);
                    assert_eq!(
                        ea.count.to_bits(),
                        eb.count.to_bits(),
                        "counts differ for {sa:?}"
                    );
                    assert_eq!(ea.variance_units.to_bits(), eb.variance_units.to_bits());
                }
            }
        }
        assert!(
            multi_basis,
            "the sparse fixture must reach the multi-basis path"
        );
    }

    #[test]
    fn sharded_runs_are_byte_identical_for_any_shard_count() {
        // The acceptance invariant of the sharded engine: a pinned seed releases the
        // same bytes whatever the shard count, on both the single-basis (dense) and
        // multi-basis (sparse) paths, with the default consistency pass on.
        let pb = PrivBasis::with_defaults();
        for (db, k) in [(dense_db(2_000), 6usize), (sparse_db(2_500), 25)] {
            for seed in [0u64, 3, 9] {
                let reference = pb
                    .run(
                        &mut StdRng::seed_from_u64(seed),
                        &db,
                        k,
                        Epsilon::Finite(0.8),
                    )
                    .unwrap();
                for shards in [1usize, 2, 8] {
                    let context = crate::context::QueryContext::sharded(std::sync::Arc::new(
                        pb_shard::ShardedDb::partition(&db, shards),
                    ));
                    let out = pb
                        .run_shared(
                            &mut StdRng::seed_from_u64(seed),
                            &context,
                            k,
                            Epsilon::Finite(0.8),
                        )
                        .unwrap();
                    assert_eq!(reference.lambda, out.lambda, "S = {shards}");
                    assert_eq!(reference.frequent_items, out.frequent_items);
                    assert_eq!(reference.frequent_pairs, out.frequent_pairs);
                    assert_eq!(reference.basis_set, out.basis_set);
                    assert_eq!(reference.itemsets.len(), out.itemsets.len());
                    for ((sa, ca), (sb, cb)) in reference.itemsets.iter().zip(&out.itemsets) {
                        assert_eq!(sa, sb);
                        assert_eq!(ca.to_bits(), cb.to_bits(), "counts differ for {sa:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn get_lambda_noiseless_tracks_theta() {
        // With no noise GetLambda returns the rank whose item frequency is closest to f_{ηk}.
        let db = dense_db(5_000);
        let items = db.items_by_frequency();
        let mut rng = StdRng::seed_from_u64(10);
        // k = 5, η = 1.1 ⇒ k1 = 6, as run_shared_transformed would compute it.
        let theta = top_k_itemsets(&db, 6, None)[5].count as f64 / db.len() as f64;
        let lambda = get_lambda(&mut rng, db.len(), &items, theta, Epsilon::Infinite).unwrap();
        assert!(lambda >= 1 && lambda <= items.len());
        // Top-5·1.1 itemsets in this dense database involve only the first handful of items,
        // so λ must be small.
        assert!(lambda <= 10, "λ = {lambda}");
    }

    #[test]
    fn frequency_and_count_scales_select_identically() {
        // Sensitivity regression test: frequency qualities are `count/N` with global
        // sensitivity `1/N`, so the one-sided exponent `ε·q/GS` equals the count scale's
        // `ε·count` and the two scales define the *same* selection distribution. With the
        // old hardcoded sensitivity of 1.0 the frequency exponent collapsed to `ε·count/N`
        // — near-uniform sampling — and the finite-ε assertions below fail.
        let db = dense_db(2_000);
        let count_scale = PrivBasis::with_defaults();
        let freq_scale = PrivBasis::new(PrivBasisParams {
            selection_scale: SelectionScale::Frequency,
            ..Default::default()
        });

        // Noiseless: identical releases (argmax is invariant under positive scaling).
        let a = count_scale
            .run(&mut StdRng::seed_from_u64(3), &db, 6, Epsilon::Infinite)
            .unwrap();
        let b = freq_scale
            .run(&mut StdRng::seed_from_u64(3), &db, 6, Epsilon::Infinite)
            .unwrap();
        assert_eq!(a.frequent_items, b.frequent_items);
        assert_eq!(a.itemsets, b.itemsets);

        // Finite ε: the same seed must make the same draws under both scales.
        for seed in [0u64, 1, 2, 7, 13] {
            let a = count_scale
                .run(
                    &mut StdRng::seed_from_u64(seed),
                    &db,
                    6,
                    Epsilon::Finite(1.0),
                )
                .unwrap();
            let b = freq_scale
                .run(
                    &mut StdRng::seed_from_u64(seed),
                    &db,
                    6,
                    Epsilon::Finite(1.0),
                )
                .unwrap();
            assert_eq!(a.lambda, b.lambda, "seed {seed}");
            assert_eq!(a.frequent_items, b.frequent_items, "seed {seed}");
            assert_eq!(a.basis_set, b.basis_set, "seed {seed}");
        }
    }

    #[test]
    fn default_run_applies_consistency() {
        // At tiny ε the raw reconstructed counts routinely stray outside [0, N]; the
        // default pipeline (consistency on, as in the paper) clamps every published
        // count back into range, while `consistency: None` exposes the raw values.
        let db = dense_db(300);
        let with = PrivBasis::with_defaults();
        let without = PrivBasis::new(PrivBasisParams {
            consistency: None,
            ..Default::default()
        });
        let n = db.len() as f64;
        let mut raw_strayed = false;
        for seed in 0..10u64 {
            let eps = Epsilon::Finite(0.05);
            let a = with
                .run(&mut StdRng::seed_from_u64(seed), &db, 5, eps)
                .unwrap();
            for (s, c) in &a.itemsets {
                assert!(
                    (0.0..=n).contains(c),
                    "repaired count {c} for {s:?} out of range"
                );
            }
            let b = without
                .run(&mut StdRng::seed_from_u64(seed), &db, 5, eps)
                .unwrap();
            raw_strayed |= b.itemsets.iter().any(|(_, c)| *c < 0.0 || *c > n);
        }
        assert!(
            raw_strayed,
            "tiny-ε raw counts should exceed [0, N] on some seed — is consistency accidentally always on?"
        );
    }

    #[test]
    fn topk_truncates_to_candidate_count_when_k_exceeds_candidates() {
        // Two-item database: λ ≤ 2 so the single-basis candidate set has at most 3
        // itemsets. Asking for 10 returns exactly candidate_count entries — truncated,
        // not padded — and candidate_count says so.
        let mut rows: Vec<Vec<u32>> = vec![vec![0, 1]; 50];
        rows.extend(std::iter::repeat_n(vec![0], 30));
        rows.extend(std::iter::repeat_n(vec![1], 20));
        let db = TransactionDb::from_transactions(rows);
        let pb = PrivBasis::with_defaults();
        let out = pb
            .run(&mut StdRng::seed_from_u64(4), &db, 10, Epsilon::Infinite)
            .unwrap();
        assert!(out.candidate_count < 10);
        assert_eq!(out.itemsets.len(), out.candidate_count);
        assert!(
            out.lambda <= 2,
            "effective λ cannot exceed the 2-item universe"
        );
    }

    #[test]
    fn frequency_scale_ablation_runs() {
        let db = dense_db(2_000);
        let pb = PrivBasis::new(PrivBasisParams {
            selection_scale: SelectionScale::Frequency,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(11);
        let out = pb.run(&mut rng, &db, 5, Epsilon::Finite(1.0)).unwrap();
        assert_eq!(out.itemsets.len(), 5);
    }

    #[test]
    fn error_display_formats() {
        assert!(PrivBasisError::InvalidK.to_string().contains("k"));
        assert!(PrivBasisError::EmptyDatabase.to_string().contains("empty"));
        assert!(PrivBasisError::InvalidParams("x".into())
            .to_string()
            .contains("x"));
        assert!(PrivBasisError::from(DpError::EmptyCandidateSet)
            .to_string()
            .contains("privacy"));
    }
}
