//! Algorithm 1 — `BasisFreq`: privately releasing frequent itemsets given a basis set.
//!
//! Each basis `Bᵢ` partitions the transactions into `2^|Bᵢ|` disjoint bins, one per subset
//! `Y ⊆ Bᵢ` (the bin of `Y` holds the transactions `t` with `t ∩ Bᵢ = Y`). Adding or removing
//! one transaction changes exactly one bin per basis by one, so releasing all bins of all `w`
//! bases has sensitivity `w`; Laplace noise of scale `w/ε` on every bin count therefore gives
//! ε-DP, and everything after that is post-processing:
//!
//! * the count of a candidate `X ⊆ Bᵢ` is the sum of its `2^{|Bᵢ|−|X|}` superset bins,
//! * candidates covered by several bases combine their estimates with inverse-variance
//!   weights (lines 16–23 of Algorithm 1),
//! * the top-`k` candidates by noisy count are returned.
//!
//! ## Counting engines
//!
//! The exact bin histograms dominate the data-dependent running time, and every engine
//! computing them meets at the [`basis_freq_counts_with_histograms`] seam:
//!
//! * **Indexed** ([`basis_freq_counts`]) — Algorithm 1 alone over a bare database: an
//!   index restricted to the spanned items is built (or a whole one passed in via
//!   [`basis_freq_counts_with_index`]) and the bases are swept 64 transactions at a
//!   time with word-parallel byte and bit transposes, overlapping bases in one sweep
//!   over their union ([`VerticalIndex::bin_histograms`]); with the `parallel` feature
//!   each sweep splits its blocks across threads.
//! * **Naive** ([`basis_freq_counts_naive`]) — the paper's row scan: per transaction,
//!   `ℓ` membership tests per basis. Kept as the reference the indexed engine is tested
//!   against and the baseline the benchmarks measure speedups from.
//! * **Sharded** — every PrivBasis run (one-shot or served) plugs
//!   `pb_shard::ShardedDb::bin_histograms` into the seam: per-shard histograms, read from
//!   each shard's whole index, merged by summation before the noise is applied (bins
//!   over disjoint row shards sum exactly; noise is drawn once, never per shard).
//!
//! All engines draw the per-bin Laplace noise in exactly the same order *before* any
//! counting happens, and the exact histograms are integers, so for a fixed RNG seed the
//! engines produce byte-identical output regardless of thread or shard count.
//!
//! The superset sums are computed either naively (the paper's `O(3^ℓ)` per basis) or with a
//! superset zeta transform (`O(ℓ·2^ℓ)`); both are exposed and tested to agree, and compared in
//! the `reconstruction` benchmark.
//!
//! ## The candidate lattice
//!
//! [`NoisyCandidateCounts`] is one flat table, built once per query by the
//! reconstruction and then updated in place by the consistency pass
//! ([`crate::consistency::enforce_consistency_in_place`]). A query reconstructs every
//! candidate of `C(B)` (`2^ℓ − 1` per basis) but releases only `k`, so the table holds
//! no per-candidate allocation:
//!
//! * **Ids in `ItemSet` order, items back to back.** Every candidate appears once,
//!   ascending in `ItemSet` order; its position is its id. All candidates' items sit
//!   back to back in one `Vec<Item>`, cut by `u32` offsets (candidate `c` is
//!   `items[item_start[c]..item_start[c + 1]]`, so its length is an offset
//!   difference), and its count and variance sit at index `c` of two parallel
//!   `Vec<f64>`s. `get` binary-searches the item slices, `iter` builds each
//!   candidate's `ItemSet` as it goes, and `top_k` ranks ids on item slices and builds
//!   `ItemSet`s for the `k` winners only.
//! * **Per-basis order plus a merge.** Each basis' non-empty subsets are enumerated
//!   directly in `ItemSet` order — the preorder of its subset tree, `{a₁}, {a₁,a₂},
//!   {a₁,a₂,a₃}, …, {a₁,a₃}, …` — so nothing inside a basis is compared or sorted. The
//!   `w` per-basis streams are then merged by their heads, ties going to the lower
//!   basis: a candidate covered by several bases gets one id and its estimates merge in
//!   basis order — the inverse-variance fold of lines 16–23 of Algorithm 1, term for
//!   term. A single basis (the k ≤ 20 shape) is just its own order. Every vector is
//!   reserved up front at its no-overlap size (`Σ (2^ℓᵢ − 1)` candidates,
//!   `Σ ℓᵢ·2^(ℓᵢ−1)` items), which is exact for a single basis.
//! * **Parent edges from basis masks.** Each basis keeps a mask → id table (one flat
//!   `Vec<u32>` for all bases) while the lattice is built; the parent of
//!   `(basis i, mask m)` through bit `b` is `table_i[m & !(1 << b)]`. Each candidate's
//!   parent ids (one per item, ascending removed item) are stored as a CSR list, so the
//!   consistency pass follows an edge with two array reads — no itemset is allocated
//!   and no map searched.

use crate::basis::BasisSet;
use pb_dp::{Epsilon, LaplaceNoise};
use pb_fim::itemset::{Item, ItemSet};
use pb_fim::{TransactionDb, VerticalIndex};
use rand::Rng;

/// Maximum supported basis length (bin vectors are indexed by `u32`-sized masks).
pub const MAX_SUPPORTED_BASIS_LEN: usize = 20;

/// Noisy counts (and relative variances) for every candidate itemset in `C(B)`, laid out
/// as the flat candidate lattice described in the module docs.
#[derive(Debug, Clone, Default)]
pub struct NoisyCandidateCounts {
    /// Every candidate's items, back to back, candidates ascending in `ItemSet` order; a
    /// candidate's position in that order is its id.
    items: Vec<Item>,
    /// Offsets into `items`: candidate `c` is `items[item_start[c]..item_start[c + 1]]`
    /// (empty when there are no candidates, else one longer than `counts`).
    item_start: Vec<u32>,
    /// Noisy count of each candidate.
    counts: Vec<f64>,
    /// Relative variance of each candidate's estimate, in bin units.
    variances: Vec<f64>,
    /// CSR offsets into `parents`: candidate `c`'s parents are
    /// `parents[parent_start[c]..parent_start[c + 1]]`.
    parent_start: Vec<u32>,
    /// Parent ids: for a candidate `X` with `|X| ≥ 2`, the ids of `X \ {x}` for each
    /// `x ∈ X` in ascending item order; singletons have none (the empty set is not a
    /// candidate).
    parents: Vec<u32>,
}

/// The read-only structure of a [`NoisyCandidateCounts`] lattice: what the consistency
/// pass walks while it rewrites the counts.
pub(crate) struct Lattice<'a> {
    /// Item offsets, indexed by id (see [`NoisyCandidateCounts`]).
    item_start: &'a [u32],
    /// Relative variance of each candidate, indexed by id.
    pub(crate) variances: &'a [f64],
    parent_start: &'a [u32],
    parents: &'a [u32],
}

impl<'a> Lattice<'a> {
    /// The number of items of candidate `id`.
    pub(crate) fn len_of(&self, id: usize) -> usize {
        (self.item_start[id + 1] - self.item_start[id]) as usize
    }

    /// The ids of candidate `id`'s parents (`X \ {x}` for each `x ∈ X`, ascending `x`);
    /// empty for a singleton.
    pub(crate) fn parents_of(&self, id: usize) -> &'a [u32] {
        &self.parents[self.parent_start[id] as usize..self.parent_start[id + 1] as usize]
    }
}

/// A single candidate's combined estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEstimate {
    /// Noisy support count (may be negative or fractional).
    pub count: f64,
    /// Relative variance of the estimate in "bin units" (`2^{|Bᵢ|−|X|}`, combined across bases).
    pub variance_units: f64,
}

impl NoisyCandidateCounts {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no candidates were produced (empty basis set).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The items of candidate `id`, ascending.
    fn items_of(&self, id: usize) -> &[Item] {
        &self.items[self.item_start[id] as usize..self.item_start[id + 1] as usize]
    }

    /// The estimate for one candidate.
    pub fn get(&self, itemset: &ItemSet) -> Option<CandidateEstimate> {
        // Ids ascend in `ItemSet` order, which is the slice order of the items.
        let target = itemset.items();
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.items_of(mid).cmp(target) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.estimate(mid)),
            }
        }
        None
    }

    /// Iterates over all candidates and their estimates, in `ItemSet` order. Each
    /// candidate's `ItemSet` is built as the iterator reaches it (the lattice stores
    /// none).
    pub fn iter(&self) -> impl Iterator<Item = (ItemSet, CandidateEstimate)> + '_ {
        (0..self.len()).map(|id| (self.itemset(id), self.estimate(id)))
    }

    /// The `k` candidates with the highest noisy counts, sorted descending
    /// (ties broken deterministically by itemset order).
    ///
    /// Ranks candidate ids on their item slices with a selection partition first, so
    /// the cost is `O(|C| + k log k)` rather than sorting all `|C|` candidates, and
    /// builds `ItemSet`s for the `k` winners only.
    pub fn top_k(&self, k: usize) -> Vec<(ItemSet, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let rank = |&a: &u32, &b: &u32| {
            let (a, b) = (a as usize, b as usize);
            compare_ranked(
                (self.items_of(a), self.counts[a]),
                (self.items_of(b), self.counts[b]),
            )
        };
        let mut ids: Vec<u32> = (0..self.len() as u32).collect();
        if k < ids.len() {
            ids.select_nth_unstable_by(k - 1, rank);
            ids.truncate(k);
        }
        ids.sort_unstable_by(rank);
        ids.into_iter()
            .map(|id| (self.itemset(id as usize), self.counts[id as usize]))
            .collect()
    }

    /// Rewrites every candidate's count as `f(items, count)` (variances are kept: they
    /// describe the noise that was added, which post-processing does not change). This is
    /// the debias seam of the LDP path: supports observed over perturbed data are
    /// corrected *once*, after any shard merge, just before top-`k` — so integer shard
    /// counts still sum exactly and the release stays byte-identical across shard counts
    /// and placements.
    pub fn map_counts(&mut self, f: impl Fn(&[Item], f64) -> f64) {
        for id in 0..self.len() {
            let items = &self.items[self.item_start[id] as usize..self.item_start[id + 1] as usize];
            self.counts[id] = f(items, self.counts[id]);
        }
    }

    /// The counts, writable, beside the lattice's read-only structure (the in-place
    /// consistency pass).
    pub(crate) fn counts_and_lattice(&mut self) -> (&mut [f64], Lattice<'_>) {
        let lattice = Lattice {
            item_start: &self.item_start,
            variances: &self.variances,
            parent_start: &self.parent_start,
            parents: &self.parents,
        };
        (&mut self.counts, lattice)
    }

    fn itemset(&self, id: usize) -> ItemSet {
        ItemSet::from_sorted(self.items_of(id).to_vec()).expect("candidate items are sorted")
    }

    fn estimate(&self, id: usize) -> CandidateEstimate {
        CandidateEstimate {
            count: self.counts[id],
            variance_units: self.variances[id],
        }
    }
}

/// Ranking order of published candidates: descending noisy count, ties by ascending
/// (length, itemset) so output is deterministic.
fn compare_ranked(a: (&[Item], f64), b: (&[Item], f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("noisy counts are finite")
        .then_with(|| a.0.len().cmp(&b.0.len()))
        .then_with(|| a.0.cmp(b.0))
}

/// Draws the Laplace noise for one basis' `2^len` bins, in bin-mask order.
///
/// Both counting engines call this *before* touching the data, in basis order, so the
/// noise stream — and therefore the released output for a fixed seed — is identical
/// across engines and thread counts.
fn sample_bin_noise<R: Rng + ?Sized>(rng: &mut R, len: usize, noise: &LaplaceNoise) -> Vec<f64> {
    (0..(1usize << len)).map(|_| noise.sample(rng)).collect()
}

/// The exact bin histogram of one basis via the row scan (the paper's formulation):
/// index `mask` counts the transactions whose intersection with the basis equals the
/// subset encoded by `mask`. Reference implementation for the indexed engine.
pub fn exact_bins_naive(db: &TransactionDb, basis: &ItemSet) -> Vec<u64> {
    let items: &[Item] = basis.items();
    let mut bins = vec![0u64; 1usize << items.len()];
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

/// Superset sums via the zeta transform: `out[mask] = Σ_{super ⊇ mask} bins[super]`,
/// in `O(ℓ·2^ℓ)`.
pub fn superset_sums(bins: &[f64]) -> Vec<f64> {
    let mut out = bins.to_vec();
    superset_sums_in_place(&mut out);
    out
}

/// [`superset_sums`] over `bins` itself.
fn superset_sums_in_place(bins: &mut [f64]) {
    let n = bins.len();
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros() as usize;
    for bit in 0..bits {
        let step = 1usize << bit;
        for mask in 0..n {
            if mask & step == 0 {
                bins[mask] += bins[mask | step];
            }
        }
    }
}

/// Naive superset sums (the paper's formulation), `O(3^ℓ)` overall; used to cross-check the
/// zeta transform and by the reconstruction benchmark.
pub fn superset_sums_naive(bins: &[f64]) -> Vec<f64> {
    let n = bins.len();
    debug_assert!(n.is_power_of_two());
    let full = n - 1;
    let mut out = vec![0.0; n];
    for (mask, slot) in out.iter_mut().enumerate() {
        // Iterate over supersets of `mask`: supersets are mask | s where s ⊆ complement.
        let complement = full & !mask;
        let mut s = complement;
        loop {
            *slot += bins[mask | s];
            if s == 0 {
                break;
            }
            s = (s - 1) & complement;
        }
    }
    out
}

/// Checks the basis-set length cap shared by all engines.
fn assert_basis_len(basis_set: &BasisSet) {
    assert!(
        basis_set.length() <= MAX_SUPPORTED_BASIS_LEN,
        "basis length {} exceeds the supported maximum {}",
        basis_set.length(),
        MAX_SUPPORTED_BASIS_LEN
    );
}

/// One basis' non-empty subsets in `ItemSet` order, which is the preorder of its subset
/// tree: `{a₁}, {a₁,a₂}, {a₁,a₂,a₃}, …, {a₁,a₃}, …`. The walk keeps the current subset's
/// bin mask and its items side by side, so each step is one push, pop or replace — no
/// comparison and no allocation.
struct SubsetWalk<'a> {
    basis: &'a [Item],
    /// The current subset's bin mask; 0 once the walk is done.
    mask: usize,
    /// The current subset's items, ascending, in `slots[..len]`.
    slots: [Item; MAX_SUPPORTED_BASIS_LEN],
    len: usize,
}

impl<'a> SubsetWalk<'a> {
    fn new(basis: &'a [Item]) -> Self {
        let mut slots = [0; MAX_SUPPORTED_BASIS_LEN];
        slots[0] = basis[0];
        SubsetWalk {
            basis,
            mask: 1,
            slots,
            len: 1,
        }
    }

    fn is_done(&self) -> bool {
        self.mask == 0
    }

    /// The current subset's items, ascending.
    fn items(&self) -> &[Item] {
        &self.slots[..self.len]
    }

    /// Steps to the next subset in preorder: extend by the next item if there is one;
    /// otherwise drop the last item and move the new last item one position on.
    fn advance(&mut self) {
        let last = top_bit(self.mask);
        if last + 1 < self.basis.len() {
            self.mask |= 1 << (last + 1);
            self.slots[self.len] = self.basis[last + 1];
            self.len += 1;
            return;
        }
        self.mask ^= 1 << last;
        self.len -= 1;
        if self.len > 0 {
            let prev = top_bit(self.mask);
            self.mask ^= (1 << prev) | (1 << (prev + 1));
            self.slots[self.len - 1] = self.basis[prev + 1];
        }
    }
}

fn top_bit(mask: usize) -> usize {
    (usize::BITS - 1 - mask.leading_zeros()) as usize
}

/// Shared reconstruction: adds noise to the exact histograms, runs the superset zeta
/// transform, and lays every candidate out on the flat lattice — an estimate covered by
/// several bases merged inverse-variance in basis order, parent edges read off each
/// basis' mask → id table.
fn reconstruct(
    basis_set: &BasisSet,
    noise_vecs: Vec<Vec<f64>>,
    exact_hists: Vec<Vec<u64>>,
) -> NoisyCandidateCounts {
    let bases = basis_set.bases();
    // Each basis' superset sums, in place over its noisy bins.
    let sums: Vec<Vec<f64>> = noise_vecs
        .into_iter()
        .zip(exact_hists)
        .map(|(mut bins, hist)| {
            for (bin, &c) in bins.iter_mut().zip(&hist) {
                *bin += c as f64;
            }
            superset_sums_in_place(&mut bins);
            bins
        })
        .collect();

    // No-overlap sizes: a basis of length ℓ has 2^ℓ − 1 candidates holding ℓ·2^(ℓ−1)
    // items (each item is in half the subsets), and as many parent edges less its ℓ
    // singletons. Exact for a single basis, an upper bound otherwise.
    let candidates: usize = bases.iter().map(|b| (1usize << b.len()) - 1).sum();
    let item_slots: usize = bases.iter().map(|b| b.len() << (b.len() - 1)).sum();
    let edges: usize = bases
        .iter()
        .map(|b| (b.len() << (b.len() - 1)) - b.len())
        .sum();
    let mut result = NoisyCandidateCounts {
        items: Vec::with_capacity(item_slots),
        item_start: Vec::with_capacity(candidates + 1),
        counts: Vec::with_capacity(candidates),
        variances: Vec::with_capacity(candidates),
        parent_start: Vec::with_capacity(candidates + 1),
        parents: Vec::with_capacity(edges),
    };
    result.item_start.push(0);
    // Basis `b`'s mask → id table is `tables[table_start[b]..][..2^ℓ_b]`.
    let mut table_start = Vec::with_capacity(bases.len());
    let mut table_len = 0;
    for b in bases {
        table_start.push(table_len);
        table_len += 1 << b.len();
    }
    let mut tables = vec![0u32; table_len];
    let mut first_entry: Vec<(usize, usize)> = Vec::with_capacity(candidates);

    // Merge the per-basis walks by their heads. `pending` holds the live walks sorted
    // descending by (head, basis), so the smallest head is last and walks sharing it
    // pop in basis order: folding them in that order replays the float sequence of
    // folding the bases in one after another (lines 16–23 of Algorithm 1).
    let mut walks: Vec<SubsetWalk> = bases.iter().map(|b| SubsetWalk::new(b.items())).collect();
    fn key<'w>(walks: &'w [SubsetWalk], b: usize) -> (&'w [Item], usize) {
        (walks[b].items(), b)
    }
    let mut pending: Vec<usize> = (0..walks.len()).collect();
    pending.sort_by(|&a, &b| key(&walks, b).cmp(&key(&walks, a)));
    let mut ties: Vec<usize> = Vec::with_capacity(walks.len());
    while let Some(head) = pending.pop() {
        ties.clear();
        ties.push(head);
        while let Some(&next) = pending.last() {
            if walks[next].items() != walks[head].items() {
                break;
            }
            ties.push(pending.pop().expect("peeked"));
        }
        let id = result.counts.len();
        for (t, &b) in ties.iter().enumerate() {
            let walk = &walks[b];
            let sum = sums[b][walk.mask];
            let variance_units = 2f64.powi((bases[b].len() - walk.len) as i32);
            if t == 0 {
                result.items.extend_from_slice(walk.items());
                result.item_start.push(result.items.len() as u32);
                result.counts.push(sum);
                result.variances.push(variance_units);
                first_entry.push((b, walk.mask));
            } else {
                // Inverse-variance weighting (lines 21–23 of Algorithm 1).
                let v = result.variances[id];
                let nv = variance_units;
                result.counts[id] = (nv / (v + nv)) * result.counts[id] + (v / (v + nv)) * sum;
                result.variances[id] = v * nv / (v + nv);
            }
            tables[table_start[b] + walk.mask] = id as u32;
        }
        for &b in &ties {
            walks[b].advance();
            if !walks[b].is_done() {
                let at = pending.partition_point(|&p| key(&walks, p) > key(&walks, b));
                pending.insert(at, b);
            }
        }
    }

    // The parent of (basis b, mask m) through bit `bit` is `table_b[m & !bit]`; bits
    // ascend with items, so each parent list is in ascending removed-item order.
    result.parent_start.push(0);
    for &(b, mask) in &first_entry {
        if mask.count_ones() >= 2 {
            let table = &tables[table_start[b]..];
            let mut rest = mask;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                result.parents.push(table[mask & !bit]);
                rest &= rest - 1;
            }
        }
        result.parent_start.push(result.parents.len() as u32);
    }
    result
}

/// The shared engine seam of Algorithm 1: draws every basis' bin noise in the fixed
/// order (basis order, mask order) **before** any counting happens, then obtains the
/// exact merged histograms from `exact_histograms_for` and reconstructs.
///
/// Every counting engine — indexed, row-scan, sharded — plugs in here, which is what
/// makes them byte-identical for a fixed seed: the noise stream never depends on the
/// engine, the exact histograms are integers (and integer sums across shards or threads
/// are reassociation-free), and the reconstruction is shared code. The noise is drawn
/// exactly once per bin, against the *merged* histogram — never per shard.
///
/// # Panics
/// Panics if any basis is longer than [`MAX_SUPPORTED_BASIS_LEN`] (the bin table would not fit
/// in memory — the paper caps ℓ at 12 for the same reason).
pub fn basis_freq_counts_with_histograms<R: Rng + ?Sized>(
    rng: &mut R,
    basis_set: &BasisSet,
    epsilon: Epsilon,
    exact_histograms_for: impl FnOnce(&[ItemSet]) -> Vec<Vec<u64>>,
) -> NoisyCandidateCounts {
    assert_basis_len(basis_set);
    if basis_set.is_empty() {
        return NoisyCandidateCounts::default();
    }
    let w = basis_set.width();
    let noise = LaplaceNoise::new(w as f64, epsilon).expect("width >= 1 and epsilon validated");
    let noise_vecs: Vec<Vec<f64>> = basis_set
        .bases()
        .iter()
        .map(|b| sample_bin_noise(rng, b.len(), &noise))
        .collect();
    let exact_hists = exact_histograms_for(basis_set.bases());
    debug_assert_eq!(exact_hists.len(), basis_set.width());
    reconstruct(basis_set, noise_vecs, exact_hists)
}

/// Runs the bin-counting and reconstruction phases of Algorithm 1 on a pre-built
/// [`VerticalIndex`], returning noisy counts for every candidate in `C(B)`.
///
/// The per-bin noise is drawn sequentially (basis order, mask order) before counting;
/// the exact histograms are then computed by the index — across threads when the
/// `parallel` feature (default) is enabled and the workload is wide enough. Output is
/// byte-identical to [`basis_freq_counts_naive`] for the same RNG seed.
///
/// # Panics
/// Panics if any basis is longer than [`MAX_SUPPORTED_BASIS_LEN`].
pub fn basis_freq_counts_with_index<R: Rng + ?Sized>(
    rng: &mut R,
    index: &VerticalIndex,
    basis_set: &BasisSet,
    epsilon: Epsilon,
) -> NoisyCandidateCounts {
    basis_freq_counts_with_histograms(rng, basis_set, epsilon, |bases| {
        index.bin_histograms(bases, pb_fim::index::available_parallelism())
    })
}

/// Runs the bin-counting and reconstruction phases of Algorithm 1, building a vertical
/// index over `db` first (the default engine). See [`basis_freq_counts_with_index`].
pub fn basis_freq_counts<R: Rng + ?Sized>(
    rng: &mut R,
    db: &TransactionDb,
    basis_set: &BasisSet,
    epsilon: Epsilon,
) -> NoisyCandidateCounts {
    assert_basis_len(basis_set);
    if basis_set.is_empty() {
        return NoisyCandidateCounts::default();
    }
    // Only the items the bases actually mention need bitmaps.
    let spanned = basis_set.spanned_items();
    let index = VerticalIndex::build_restricted(db, &spanned);
    basis_freq_counts_with_index(rng, &index, basis_set, epsilon)
}

/// The row-scan engine: Algorithm 1 exactly as the paper states it, with no index.
///
/// Byte-identical output to [`basis_freq_counts`] for the same seed; kept as the
/// correctness reference and benchmark baseline.
pub fn basis_freq_counts_naive<R: Rng + ?Sized>(
    rng: &mut R,
    db: &TransactionDb,
    basis_set: &BasisSet,
    epsilon: Epsilon,
) -> NoisyCandidateCounts {
    basis_freq_counts_with_histograms(rng, basis_set, epsilon, |bases| {
        bases.iter().map(|b| exact_bins_naive(db, b)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_shard::ShardedDb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::new(items.to_vec())
    }

    fn sample_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 2, 3],
            vec![2, 3],
            vec![1],
            vec![4, 5],
            vec![4, 5],
            vec![1, 2, 3, 4],
        ])
    }

    #[test]
    fn zeta_and_naive_superset_sums_agree() {
        let bins: Vec<f64> = (0..32).map(|i| (i * 7 % 13) as f64).collect();
        let a = superset_sums(&bins);
        let b = superset_sums_naive(&bins);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
        // Index 0 (empty set) must equal the total.
        assert!((a[0] - bins.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn noiseless_counts_equal_true_supports() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[4, 5])]);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite);
        for (itemset, estimate) in counts.iter() {
            let truth = db.support(&itemset) as f64;
            assert!(
                (estimate.count - truth).abs() < 1e-9,
                "{itemset:?}: estimate {} truth {}",
                estimate.count,
                truth
            );
        }
        // Candidate set of {1,2,3} ∪ {4,5}: 7 + 3 = 10 non-empty subsets.
        assert_eq!(counts.len(), 10);
        assert!(!counts.is_empty());
    }

    #[test]
    fn indexed_and_naive_engines_are_byte_identical() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[2, 3, 4]), set(&[4, 5])]);
        for seed in 0..20 {
            for eps in [Epsilon::Finite(0.5), Epsilon::Infinite] {
                let indexed = basis_freq_counts(&mut StdRng::seed_from_u64(seed), &db, &basis, eps);
                let naive =
                    basis_freq_counts_naive(&mut StdRng::seed_from_u64(seed), &db, &basis, eps);
                assert_eq!(indexed.len(), naive.len());
                for (itemset, est) in indexed.iter() {
                    let n = naive.get(&itemset).expect("same candidate set");
                    assert_eq!(est.count.to_bits(), n.count.to_bits(), "{itemset:?}");
                    assert_eq!(est.variance_units.to_bits(), n.variance_units.to_bits());
                }
                // And the ranked output is byte-identical too.
                let a = indexed.top_k(5);
                let b = naive.top_k(5);
                assert_eq!(a.len(), b.len());
                for ((sa, ca), (sb, cb)) in a.iter().zip(&b) {
                    assert_eq!(sa, sb);
                    assert_eq!(ca.to_bits(), cb.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharded_engine_is_byte_identical_for_any_shard_count() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[2, 3, 4]), set(&[4, 5])]);
        for shards in [1usize, 2, 3, 8] {
            let sharded = ShardedDb::partition(&db, shards);
            for seed in 0..10 {
                for eps in [Epsilon::Finite(0.5), Epsilon::Infinite] {
                    let single =
                        basis_freq_counts(&mut StdRng::seed_from_u64(seed), &db, &basis, eps);
                    let merged = basis_freq_counts_with_histograms(
                        &mut StdRng::seed_from_u64(seed),
                        &basis,
                        eps,
                        |bases| sharded.bin_histograms(bases),
                    );
                    assert_eq!(single.len(), merged.len());
                    for (itemset, est) in single.iter() {
                        let m = merged.get(&itemset).expect("same candidate set");
                        assert_eq!(est.count.to_bits(), m.count.to_bits(), "{itemset:?}");
                        assert_eq!(est.variance_units.to_bits(), m.variance_units.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn prebuilt_index_matches_internal_build() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[4, 5])]);
        let index = VerticalIndex::build(&db);
        let a = basis_freq_counts(
            &mut StdRng::seed_from_u64(3),
            &db,
            &basis,
            Epsilon::Finite(1.0),
        );
        let b = basis_freq_counts_with_index(
            &mut StdRng::seed_from_u64(3),
            &index,
            &basis,
            Epsilon::Finite(1.0),
        );
        for (itemset, est) in a.iter() {
            assert_eq!(
                est.count.to_bits(),
                b.get(&itemset).unwrap().count.to_bits()
            );
        }
    }

    #[test]
    fn exact_bins_naive_partitions_database() {
        let db = sample_db();
        let bins = exact_bins_naive(&db, &set(&[1, 2]));
        assert_eq!(bins.iter().sum::<u64>(), db.len() as u64);
        // The full mask equals the support of the whole basis.
        assert_eq!(bins[0b11], db.support(&set(&[1, 2])) as u64);
        // t ∩ {1,2} = {1,2} for rows [1,2,3], [1,2], [1,2,3], [1,2,3,4]: 4 rows.
        assert_eq!(bins[0b11], 4);
        assert_eq!(bins[0b01], 1); // [1]
        assert_eq!(bins[0b10], 1); // [2,3]
        assert_eq!(bins[0b00], 2); // [4,5], [4,5]
    }

    #[test]
    fn noiseless_topk_matches_exact_topk_within_candidates() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[4, 5])]);
        let mut rng = StdRng::seed_from_u64(2);
        let top = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite).top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, set(&[1]));
        assert_eq!(top[0].1, 5.0);
        assert_eq!(top[1].0, set(&[2]));
        // Counts are non-increasing.
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn top_k_selection_matches_full_sort() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[2, 3, 4]), set(&[4, 5])]);
        let mut rng = StdRng::seed_from_u64(17);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Finite(0.7));
        // Reference: sort everything, truncate.
        let mut full: Vec<(ItemSet, f64)> =
            counts.iter().map(|(s, e)| (s.clone(), e.count)).collect();
        full.sort_by(|a, b| compare_ranked((a.0.items(), a.1), (b.0.items(), b.1)));
        for k in [0, 1, 3, 7, counts.len(), counts.len() + 5] {
            let got = counts.top_k(k);
            assert_eq!(got.len(), k.min(counts.len()));
            assert_eq!(&got[..], &full[..got.len()]);
        }
    }

    #[test]
    fn top_k_handles_zero_oversized_k_and_ties() {
        let db = sample_db();
        let basis = BasisSet::single(set(&[1, 2, 3]));
        let counts = basis_freq_counts(
            &mut StdRng::seed_from_u64(4),
            &db,
            &basis,
            Epsilon::Infinite,
        );
        assert!(counts.top_k(0).is_empty());

        // Exact supports tie in three groups: 5, 4 and 3. Within a group the shorter
        // itemset ranks first, then the smaller itemset.
        let expected = vec![
            (set(&[1]), 5.0),
            (set(&[2]), 5.0),
            (set(&[3]), 4.0),
            (set(&[1, 2]), 4.0),
            (set(&[2, 3]), 4.0),
            (set(&[1, 3]), 3.0),
            (set(&[1, 2, 3]), 3.0),
        ];
        assert_eq!(counts.top_k(counts.len() + 10), expected);
        // A cut inside a tie group keeps the tie-break's winners.
        assert_eq!(counts.top_k(4), expected[..4]);

        // All counts equal: the order is (length, itemset) alone.
        let mut flat = counts.clone();
        flat.map_counts(|_, _| 1.0);
        let top: Vec<ItemSet> = flat.top_k(5).into_iter().map(|(s, _)| s).collect();
        assert_eq!(
            top,
            vec![set(&[1]), set(&[2]), set(&[3]), set(&[1, 2]), set(&[1, 3])]
        );
    }

    #[test]
    fn overlapping_bases_combine_estimates() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3]), set(&[2, 3, 4])]);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite);
        // {2,3} is covered by both bases; with no noise both estimates equal the truth and the
        // combined variance halves.
        let e = counts.get(&set(&[2, 3])).unwrap();
        assert!((e.count - db.support(&set(&[2, 3])) as f64).abs() < 1e-9);
        assert!((e.variance_units - 1.0).abs() < 1e-9); // 2 and 2 combine to 1
                                                        // {1} is covered once by a length-3 basis: 2^(3-1) = 4 units.
        let e1 = counts.get(&set(&[1])).unwrap();
        assert!((e1.variance_units - 4.0).abs() < 1e-9);
        assert!(counts.get(&set(&[9])).is_none());
    }

    #[test]
    fn noisy_counts_are_unbiased_over_repetitions() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2])]);
        let target = set(&[1, 2]);
        let truth = db.support(&target) as f64;
        let reps = 3_000;
        let mut total = 0.0;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed);
            let counts = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Finite(1.0));
            total += counts.get(&target).unwrap().count;
        }
        let mean = total / reps as f64;
        // Each estimate sums a single bin with Lap(1) noise (w = 1, |X| = |B|), so the standard
        // error of the mean over 3000 repetitions is about 0.026; allow 5 sigma.
        assert!((mean - truth).abs() < 0.15, "mean {mean}, truth {truth}");
    }

    #[test]
    fn higher_epsilon_means_lower_error() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2, 3])]);
        let target = set(&[1, 2, 3]);
        let truth = db.support(&target) as f64;
        let mse = |eps: f64, seed_base: u64| {
            let mut total = 0.0;
            for s in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed_base + s);
                let c = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Finite(eps))
                    .get(&target)
                    .unwrap()
                    .count;
                total += (c - truth) * (c - truth);
            }
            total / 200.0
        };
        assert!(mse(0.1, 1_000) > mse(2.0, 2_000));
    }

    #[test]
    fn empty_basis_set_yields_no_candidates() {
        let db = sample_db();
        let mut rng = StdRng::seed_from_u64(5);
        let counts = basis_freq_counts(&mut rng, &db, &BasisSet::new(vec![]), Epsilon::Finite(1.0));
        assert!(counts.is_empty());
        assert!(counts.top_k(5).is_empty());
    }

    #[test]
    fn top_k_larger_than_candidates_returns_all() {
        let db = sample_db();
        let basis = BasisSet::new(vec![set(&[1, 2])]);
        let mut rng = StdRng::seed_from_u64(6);
        let top = basis_freq_counts(&mut rng, &db, &basis, Epsilon::Infinite).top_k(100);
        assert_eq!(top.len(), 3); // {1}, {2}, {1,2}
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn rejects_overlong_basis() {
        let db = sample_db();
        let long: Vec<u32> = (0..25).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = basis_freq_counts(
            &mut rng,
            &db,
            &BasisSet::single(ItemSet::new(long)),
            Epsilon::Finite(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn naive_engine_rejects_overlong_basis_too() {
        let db = sample_db();
        let long: Vec<u32> = (0..25).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let _ = basis_freq_counts_naive(
            &mut rng,
            &db,
            &BasisSet::single(ItemSet::new(long)),
            Epsilon::Finite(1.0),
        );
    }
}
