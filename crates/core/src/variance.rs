//! The error-variance model of §4.2 (Equation 4).
//!
//! Reconstructing the count of an itemset `X ⊆ Bᵢ` sums `2^{|Bᵢ|−|X|}` noisy bins, each with
//! Laplace noise of scale `w/ε` and hence variance `2w²/ε²` (in count space). The error
//! variance of the reconstructed count is therefore
//!
//! ```text
//! EV[nfᵢ(X)] = 2^{|Bᵢ|−|X|} · 2w²/ε²            (Equation 4, in counts)
//! ```
//!
//! For basis design only *relative* comparisons matter: the factor `2w²/ε²` is common to every
//! candidate given a fixed basis-set width `w`, while merging bases changes both the exponent
//! and `w`. The functions below therefore expose the variance in units of `2/ε²`, i.e.
//! `w² · 2^{|Bᵢ|−|X|}`, which is exactly the quantity Algorithm 2 minimises.

use pb_fim::itemset::{Item, ItemSet};
use std::cmp::Ordering;

/// Relative variance (in units of `2/ε²`) of the estimate of `X` from a single basis of size
/// `basis_len`, for a basis set of width `width`.
pub fn single_basis_variance(width: usize, basis_len: usize, itemset_len: usize) -> f64 {
    debug_assert!(itemset_len <= basis_len);
    (width * width) as f64 * 2f64.powi((basis_len - itemset_len) as i32)
}

/// A list of subsets of a fixed universe `F` (a sorted item list), stored flat as
/// bitsets of `⌈|F|/64⌉` words: bit `p` stands for `F`'s `p`-th smallest item. Positions
/// ascend with items, so the bitsets order like the itemsets they encode.
#[derive(Debug, Clone)]
pub(crate) struct BitSets {
    words: usize,
    data: Vec<u64>,
}

impl BitSets {
    /// An empty list over a universe of `universe_len` items.
    pub(crate) fn new(universe_len: usize) -> Self {
        BitSets {
            words: universe_len.div_ceil(64).max(1),
            data: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len() / self.words
    }

    pub(crate) fn get(&self, i: usize) -> &[u64] {
        &self.data[i * self.words..(i + 1) * self.words]
    }

    pub(crate) fn get_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.words..(i + 1) * self.words]
    }

    pub(crate) fn push(&mut self, set: &[u64]) {
        self.data.extend_from_slice(set);
    }

    /// Appends the empty set and returns it for filling.
    pub(crate) fn push_empty(&mut self) -> &mut [u64] {
        let at = self.data.len();
        self.data.resize(at + self.words, 0);
        &mut self.data[at..]
    }

    /// Appends `set`, whose items must all be in `universe`.
    pub(crate) fn push_itemset(&mut self, universe: &[Item], set: &ItemSet) {
        let bits = self.push_empty();
        for item in set.iter() {
            let p = universe
                .binary_search(&item)
                .expect("set drawn from the universe");
            bits[p / 64] |= 1 << (p % 64);
        }
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.data.drain(i * self.words..(i + 1) * self.words);
    }

    /// Moves the sets from index `n` on into a new list.
    pub(crate) fn split_off(&mut self, n: usize) -> BitSets {
        BitSets {
            words: self.words,
            data: self.data.split_off(n * self.words),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    /// Set `i` as an itemset over `universe`.
    pub(crate) fn itemset(&self, universe: &[Item], i: usize) -> ItemSet {
        let items = ones(self.get(i)).map(|p| universe[p]).collect();
        ItemSet::from_sorted(items).expect("positions ascend with items")
    }
}

/// The positions set in `bits`, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

pub(crate) fn count(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// `ItemSet` order of two bitsets: the sorted item lists agree below the lowest bit
/// where the sets differ, and the set holding that bit is the smaller one unless the
/// other has no item above it (the other is then a proper prefix).
fn compare(a: &[u64], b: &[u64]) -> Ordering {
    let above = |s: &[u64], w: usize, bit: u32| {
        (s[w] >> bit >> 1) != 0 || s[w + 1..].iter().any(|&x| x != 0)
    };
    for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
        let diff = x ^ y;
        if diff != 0 {
            let bit = diff.trailing_zeros();
            return match (x >> bit & 1 == 1, above(a, w, bit), above(b, w, bit)) {
                (true, _, true) | (false, false, _) => Ordering::Less,
                _ => Ordering::Greater,
            };
        }
    }
    Ordering::Equal
}

/// The objective Algorithm 2 greedily minimises: the average relative error variance of
/// a basis set's best estimates of a fixed list of queries, over bitsets.
///
/// [`Objective::average`] takes the bases as listed and first normalises them the way
/// `BasisSet::new` does, on indices: longest first then `ItemSet` order, empties and
/// subsets of a kept basis dropped, the rest in `ItemSet` order. It then sums, per query,
/// `1/(w²·2^{|B|−|q|})` over the covering bases in that order and takes the reciprocal
/// (Equation 4 combined by inverse variance), or the penalty if no basis covers the
/// query; and averages over the queries in order. The float operations are the ones of
/// building the `BasisSet` and combining the covering estimates, step for step, so the
/// score is the same bits.
#[derive(Debug, Clone)]
pub(crate) struct Objective {
    queries: BitSets,
    query_lens: Vec<usize>,
    uncovered_penalty: f64,
    /// Scratch, reused across calls: the bases' lengths, their normalised order, and
    /// the kept bases.
    lens: Vec<usize>,
    order: Vec<usize>,
    kept: Vec<usize>,
}

impl Objective {
    /// The objective for `queries` (subsets of `universe`), where an uncovered query
    /// scores `uncovered_penalty`.
    pub(crate) fn new(universe: &[Item], queries: &[ItemSet], uncovered_penalty: f64) -> Self {
        let mut bits = BitSets::new(universe.len());
        for q in queries {
            bits.push_itemset(universe, q);
        }
        Objective {
            queries: bits,
            query_lens: queries.iter().map(ItemSet::len).collect(),
            uncovered_penalty,
            lens: Vec::new(),
            order: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// The average relative error variance over the queries under the basis set the
    /// listed `bases` normalise to (see the type docs); 0 with no queries.
    pub(crate) fn average(&mut self, bases: &BitSets) -> f64 {
        if self.query_lens.is_empty() {
            return 0.0;
        }
        self.lens.clear();
        self.lens
            .extend((0..bases.len()).map(|i| count(bases.get(i))));
        let lens = &self.lens;
        self.order.clear();
        self.order.extend((0..bases.len()).filter(|&i| lens[i] > 0));
        self.order.sort_by(|&a, &b| {
            lens[b]
                .cmp(&lens[a])
                .then_with(|| compare(bases.get(a), bases.get(b)))
        });
        self.kept.clear();
        for &i in &self.order {
            if !self
                .kept
                .iter()
                .any(|&k| is_subset(bases.get(i), bases.get(k)))
            {
                self.kept.push(i);
            }
        }
        self.kept
            .sort_by(|&a, &b| compare(bases.get(a), bases.get(b)));

        let w = self.kept.len();
        let mut total = 0.0;
        for (q, &q_len) in self.query_lens.iter().enumerate() {
            let query = self.queries.get(q);
            let mut inv_sum = 0.0;
            let mut covered = false;
            for &k in &self.kept {
                if is_subset(query, bases.get(k)) {
                    inv_sum += 1.0 / single_basis_variance(w, lens[k], q_len);
                    covered = true;
                }
            }
            total += if covered {
                1.0 / inv_sum
            } else {
                self.uncovered_penalty
            };
        }
        total / self.query_lens.len() as f64
    }
}

/// The `2^{ℓ−1}/ℓ²` factor of §4.2's item-grouping analysis: splitting `k` items into bases of
/// size ℓ gives per-item variance `(2^{ℓ−1}/ℓ²)·k²·V`. The paper observes this is minimised at
/// ℓ = 3.
pub fn grouping_factor(group_len: usize) -> f64 {
    assert!(group_len >= 1);
    2f64.powi(group_len as i32 - 1) / (group_len * group_len) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::new(items.to_vec())
    }

    #[test]
    fn equation_4_shape() {
        // Variance grows 2x per extra "free" position in the basis and with w².
        assert_eq!(single_basis_variance(1, 3, 3), 1.0);
        assert_eq!(single_basis_variance(1, 3, 2), 2.0);
        assert_eq!(single_basis_variance(1, 3, 1), 4.0);
        assert_eq!(single_basis_variance(2, 3, 1), 16.0);
        assert_eq!(single_basis_variance(3, 5, 5), 9.0);
    }

    /// The objective's score of `bases` for `queries` over the items they mention.
    fn average_variance(bases: &[ItemSet], queries: &[ItemSet], penalty: f64) -> f64 {
        let universe = bases
            .iter()
            .chain(queries)
            .fold(ItemSet::empty(), |acc, s| acc.union(s));
        let mut bits = BitSets::new(universe.len());
        for b in bases {
            bits.push_itemset(universe.items(), b);
        }
        Objective::new(universe.items(), queries, penalty).average(&bits)
    }

    #[test]
    fn combining_reduces_variance() {
        // Query {1} under two bases that cover it: w = 2, so each estimate has variance
        // 4·2^{|B|−1}, and the combination is 1/Σ 1/vᵢ.
        let q = [set(&[1])];
        assert_eq!(
            average_variance(&[set(&[1, 2]), set(&[1, 3])], &q, 1e9),
            4.0
        );
        let v = average_variance(&[set(&[1, 2]), set(&[1, 3, 4])], &q, 1e9);
        assert!((v - 1.0 / (1.0 / 8.0 + 1.0 / 16.0)).abs() < 1e-12);
        assert_eq!(average_variance(&[set(&[1, 2, 3])], &q, 1e9), 4.0);
        assert_eq!(average_variance(&[set(&[2, 3])], &q, 1e9), 1e9);
        // Combined variance never exceeds the best single estimate.
        assert!(v <= 8.0);
    }

    #[test]
    fn itemset_variance_uses_all_covering_bases() {
        let b = [set(&[1, 2, 3]), set(&[2, 3, 4])];
        // {2,3} covered by both bases: each gives w²·2^(3-2) = 4·2 = 8; combined 4.
        assert!((average_variance(&b, &[set(&[2, 3])], 1e9) - 4.0).abs() < 1e-12);
        // {1} covered only by the first: 4·2^(3-1) = 16.
        assert!((average_variance(&b, &[set(&[1])], 1e9) - 16.0).abs() < 1e-12);
        assert_eq!(average_variance(&b, &[set(&[9])], 1e9), 1e9);
        // Duplicate and subset bases are dropped before w is counted.
        let redundant = [
            set(&[1, 2, 3]),
            set(&[1, 2]),
            set(&[2, 3, 4]),
            set(&[1, 2, 3]),
        ];
        assert_eq!(
            average_variance(&redundant, &[set(&[2, 3])], 1e9),
            average_variance(&b, &[set(&[2, 3])], 1e9)
        );
    }

    #[test]
    fn average_variance_with_penalty() {
        let b = [set(&[1, 2])];
        let queries = vec![set(&[1]), set(&[9])];
        // {1}: 1·2^(2-1) = 2; {9}: penalty 100 ⇒ average 51.
        assert!((average_variance(&b, &queries, 100.0) - 51.0).abs() < 1e-12);
        assert_eq!(average_variance(&b, &[], 100.0), 0.0);
    }

    #[test]
    fn objective_matches_the_basis_set_formulation_bit_for_bit() {
        use crate::basis::BasisSet;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The score as first written: build the `BasisSet`, then combine each query's
        // covering estimates in basis order.
        fn reference(bases: &[ItemSet], queries: &[ItemSet], penalty: f64) -> f64 {
            let basis_set = BasisSet::new(bases.to_vec());
            let w = basis_set.width();
            let total: f64 = queries
                .iter()
                .map(|q| {
                    let inverses: Vec<f64> = basis_set
                        .covering_bases(q)
                        .into_iter()
                        .map(|i| {
                            1.0 / single_basis_variance(w, basis_set.bases()[i].len(), q.len())
                        })
                        .collect();
                    if inverses.is_empty() {
                        penalty
                    } else {
                        1.0 / inverses.iter().sum::<f64>()
                    }
                })
                .sum();
            total / queries.len() as f64
        }

        fn random_set(rng: &mut StdRng, n: u32, max_len: usize) -> ItemSet {
            let len = rng.gen_range(0..max_len + 1);
            ItemSet::new((0..len).map(|_| rng.gen_range(0..n) * 3).collect())
        }

        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3000 {
            // Small universes give overlapping, nested and duplicate bases; a wide one
            // puts sets across words.
            let n = [5u32, 9, 140][rng.gen_range(0..3)];
            let bases: Vec<ItemSet> = (0..rng.gen_range(0..9))
                .map(|_| random_set(&mut rng, n, 7))
                .collect();
            let queries: Vec<ItemSet> = (0..rng.gen_range(1..12))
                .map(|_| random_set(&mut rng, n, 2))
                .filter(|q| !q.is_empty())
                .collect();
            if queries.is_empty() {
                continue;
            }
            assert_eq!(
                average_variance(&bases, &queries, 1e12).to_bits(),
                reference(&bases, &queries, 1e12).to_bits(),
                "{bases:?} {queries:?}"
            );
        }
    }

    #[test]
    fn bitsets_order_like_itemsets_at_any_width() {
        // A universe wider than 128 items, so sets span several words.
        let universe: Vec<Item> = (0..200).map(|i| i * 3).collect();
        let sets = [
            set(&[0]),
            set(&[0, 3]),
            set(&[0, 3, 597]),
            set(&[0, 597]),
            set(&[3]),
            set(&[3, 6, 300]),
            set(&[300]),
            set(&[597]),
        ];
        let mut bits = BitSets::new(universe.len());
        for s in &sets {
            bits.push_itemset(&universe, s);
        }
        for (i, a) in sets.iter().enumerate() {
            assert_eq!(bits.itemset(&universe, i), *a);
            for (j, b) in sets.iter().enumerate() {
                assert_eq!(
                    compare(bits.get(i), bits.get(j)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(is_subset(bits.get(i), bits.get(j)), a.is_subset_of(b));
            }
        }
    }

    #[test]
    fn grouping_factor_minimised_at_three() {
        let f3 = grouping_factor(3);
        assert!((f3 - 4.0 / 9.0).abs() < 1e-12);
        for l in [1usize, 2, 4, 5, 6, 8] {
            assert!(grouping_factor(l) >= f3, "ℓ = {l} should not beat ℓ = 3");
        }
    }

    #[test]
    fn merging_two_bases_tradeoff_is_visible() {
        // Two singleton-pair bases vs one merged basis covering the same queries.
        let queries = vec![set(&[1]), set(&[2]), set(&[3]), set(&[4])];
        let split = [set(&[1, 2]), set(&[3, 4])];
        let merged = [set(&[1, 2, 3, 4])];
        // split: w=2 ⇒ each query 4·2 = 8. merged: w=1 ⇒ each query 1·2³ = 8. Equal here —
        // the point is simply that both terms move in opposite directions.
        assert!(
            (average_variance(&split, &queries, 1e9) - average_variance(&merged, &queries, 1e9))
                .abs()
                < 1e-9
        );
    }
}
