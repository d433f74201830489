//! Consistency post-processing of noisy candidate counts.
//!
//! The raw output of `BasisFreq` can violate constraints every exact count table satisfies:
//! counts can be negative, exceed `N`, or break the apriori monotonicity
//! `count(X) ≥ count(Y)` for `X ⊆ Y`. Because every adjustment here only looks at the noisy
//! counts (never at the data), it is post-processing and costs no additional privacy budget —
//! the same argument the paper uses for everything after line 12 of Algorithm 1. Consistency
//! enforcement of this kind is the standard accuracy booster for hierarchical noisy counts
//! (Hay et al., PVLDB 2010, reference 23 of the paper).
//!
//! ## Why the repair is variance-aware
//!
//! In Hay et al.'s hierarchies the coarse counts are the accurate ones, so pulling children
//! toward parents improves them. `BasisFreq` reconstruction is the *opposite*: a candidate
//! `X ⊆ Bᵢ` sums `2^{|Bᵢ|−|X|}` noisy bins, so **short itemsets carry more noise than long
//! ones**. Naively clamping every child down to the minimum of its (noisier) parents is
//! biased low and measurably *increases* error on wide bases (ablation A4). The repair here
//! instead resolves each violated parent-child pair by moving both endpoints in proportion
//! to their noise variances — the inverse-variance-weighted projection onto the constraint,
//! so the less trustworthy estimate absorbs more of the correction — iterated for
//! [`ConsistencyOptions::sweeps`] rounds (Dykstra-style), then finishes with one exact
//! cleanup sweep from long to short itemsets that raises any still-violated parent to the
//! maximum of its children (the direction that corrects high-variance estimates with
//! low-variance ones).
//!
//! ## In place on the lattice
//!
//! [`enforce_consistency_in_place`] runs on the candidate lattice of
//! [`NoisyCandidateCounts`] (see the `freq` module docs): candidate ids are in
//! `ItemSet` order, so the children's (length, itemset) visit order is a counting sort
//! of the ids by the lengths their item offsets give, and each child's parents come
//! from its CSR list in ascending removed-item order. Counts are rewritten in their
//! `Vec<f64>`; variances are read, never written. [`enforce_consistency`] is a thin
//! wrapper for callers that want a map: it runs the same pass on a clone.

use crate::freq::{Lattice, NoisyCandidateCounts, MAX_SUPPORTED_BASIS_LEN};
use pb_fim::itemset::ItemSet;
use std::collections::BTreeMap;

/// Options for [`enforce_consistency_in_place`] (and its map-returning wrapper
/// [`enforce_consistency`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyOptions {
    /// Clamp counts into `[0, N]`.
    pub clamp_range: bool,
    /// Enforce `count(X) ≥ count(Y)` whenever `X ⊂ Y` (apriori monotonicity) with
    /// variance-weighted pairwise projections plus an exact cleanup sweep (see the module
    /// docs for why the correction leans on the lower-variance endpoint).
    pub enforce_monotonicity: bool,
    /// Number of weighted-projection rounds before the exact cleanup sweep. More rounds
    /// spread corrections more evenly across overlapping constraints; the cleanup sweep
    /// guarantees zero violations regardless.
    pub sweeps: usize,
}

impl Default for ConsistencyOptions {
    fn default() -> Self {
        ConsistencyOptions {
            clamp_range: true,
            enforce_monotonicity: true,
            sweeps: 2,
        }
    }
}

/// Returns a consistency-adjusted copy of the noisy counts as a plain map: clones the
/// table, runs [`enforce_consistency_in_place`] on the clone and collects its counts.
///
/// `num_transactions` is the public database size used for range clamping (pass the noisy `N`
/// if the size itself is private).
pub fn enforce_consistency(
    counts: &NoisyCandidateCounts,
    num_transactions: usize,
    options: ConsistencyOptions,
) -> BTreeMap<ItemSet, f64> {
    let mut adjusted = counts.clone();
    enforce_consistency_in_place(&mut adjusted, num_transactions, options);
    adjusted.iter().map(|(s, e)| (s.clone(), e.count)).collect()
}

/// Rewrites the candidate counts with their consistency-adjusted values, in place on the
/// lattice (variances are kept: they describe the noise that was added, which
/// post-processing does not change).
///
/// `num_transactions` is the public database size used for range clamping.
pub fn enforce_consistency_in_place(
    table: &mut NoisyCandidateCounts,
    num_transactions: usize,
    options: ConsistencyOptions,
) {
    let (adjusted, lattice) = table.counts_and_lattice();
    let n = num_transactions as f64;

    if options.clamp_range {
        for v in adjusted.iter_mut() {
            *v = v.clamp(0.0, n);
        }
    }

    if options.enforce_monotonicity {
        // Children in (len, itemset) order: ids are in itemset order, so a counting sort
        // by length. Singletons have no candidate parents and are left out.
        let children = children_by_length(&lattice, adjusted.len());
        // Relative noise variance of each candidate ("bin units").
        let variance = |c: usize| lattice.variances[c].max(1e-12);

        // Phase 1 — weighted pairwise projections, `sweeps` rounds: a violated pair
        // (parent below child) splits the excess in proportion to the two variances, so
        // the noisier endpoint moves more. Overlapping constraints interact, hence the
        // Dykstra-style iteration rather than a single pass.
        for _ in 0..options.sweeps {
            for &child in &children {
                let child = child as usize;
                for &parent in lattice.parents_of(child) {
                    let parent = parent as usize;
                    let parent_count = adjusted[parent];
                    let child_count = adjusted[child];
                    let excess = child_count - parent_count;
                    if excess <= 0.0 {
                        continue;
                    }
                    let parent_share = variance(parent) / (variance(parent) + variance(child));
                    adjusted[parent] = parent_count + excess * parent_share;
                    adjusted[child] = child_count - excess * (1.0 - parent_share);
                }
            }
        }

        // Phase 2 — exact cleanup, one sweep from long to short: raise any parent still
        // below one of its children. Children of length ℓ+1 are final before any length-ℓ
        // candidate is visited as a child itself, and candidates are only ever raised, so
        // a single pass leaves zero violations.
        for &child in children.iter().rev() {
            let child = child as usize;
            let child_count = adjusted[child];
            for &parent in lattice.parents_of(child) {
                let parent_count = &mut adjusted[parent as usize];
                if *parent_count < child_count {
                    *parent_count = child_count;
                }
            }
        }

        // The projections and raises can push counts (slightly) outside [0, N]; re-clamp.
        // Clamping is monotone, so it cannot reintroduce violations.
        if options.clamp_range {
            for v in adjusted.iter_mut() {
                *v = v.clamp(0.0, n);
            }
        }
    }
}

/// The candidates of length ≥ 2 in (length, itemset) order: a counting sort of the ids
/// by the lengths their item offsets give, which keeps each length's ids ascending.
fn children_by_length(lattice: &Lattice<'_>, candidates: usize) -> Vec<u32> {
    // starts[l] = where length-l ids begin; lengths are at most the basis cap.
    let mut starts = [0usize; MAX_SUPPORTED_BASIS_LEN + 2];
    for c in 0..candidates {
        starts[lattice.len_of(c) + 1] += 1;
    }
    for l in 1..starts.len() {
        starts[l] += starts[l - 1];
    }
    let singletons = starts[2];
    let mut children = vec![0u32; candidates - singletons];
    for c in 0..candidates {
        let len = lattice.len_of(c);
        if len >= 2 {
            children[starts[len] - singletons] = c as u32;
            starts[len] += 1;
        }
    }
    children
}

/// Counts how many (parent ⊂ child within `C(B)`) monotonicity violations remain in a count
/// table; used by tests and the ablation experiments.
pub fn count_monotonicity_violations(counts: &BTreeMap<ItemSet, f64>, tolerance: f64) -> usize {
    let mut violations = 0;
    for (child, &child_count) in counts {
        if child.len() < 2 {
            continue;
        }
        for item in child.iter() {
            let parent = child.without_item(item);
            if let Some(&parent_count) = counts.get(&parent) {
                if parent_count + tolerance < child_count {
                    violations += 1;
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::freq::basis_freq_counts;
    use pb_dp::Epsilon;
    use pb_fim::TransactionDb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 2, 3],
            vec![1],
            vec![2, 3],
            vec![3],
            vec![1, 2],
            vec![2],
        ])
    }

    fn noisy_counts(eps: f64, seed: u64) -> NoisyCandidateCounts {
        let basis = BasisSet::single(ItemSet::new(vec![1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(seed);
        basis_freq_counts(&mut rng, &db(), &basis, Epsilon::Finite(eps))
    }

    #[test]
    fn clamps_counts_into_range() {
        // Very small ε produces wild counts; after clamping everything is within [0, N].
        let counts = noisy_counts(0.01, 1);
        let adjusted = enforce_consistency(&counts, db().len(), ConsistencyOptions::default());
        for &v in adjusted.values() {
            assert!((0.0..=8.0).contains(&v), "count {v} out of range");
        }
    }

    #[test]
    fn removes_monotonicity_violations() {
        let counts = noisy_counts(0.05, 3);
        let raw: BTreeMap<ItemSet, f64> =
            counts.iter().map(|(s, e)| (s.clone(), e.count)).collect();
        let adjusted = enforce_consistency(&counts, db().len(), ConsistencyOptions::default());
        let before = count_monotonicity_violations(&raw, 1e-9);
        let after = count_monotonicity_violations(&adjusted, 1e-6);
        assert!(after <= before);
        assert_eq!(
            after, 0,
            "violations should be fully repaired on this small lattice"
        );
    }

    #[test]
    fn noiseless_counts_are_untouched() {
        let basis = BasisSet::single(ItemSet::new(vec![1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(5);
        let counts = basis_freq_counts(&mut rng, &db(), &basis, Epsilon::Infinite);
        let adjusted = enforce_consistency(&counts, db().len(), ConsistencyOptions::default());
        for (s, e) in counts.iter() {
            assert!((adjusted[&s] - e.count).abs() < 1e-9);
        }
    }

    #[test]
    fn options_can_disable_each_step() {
        let counts = noisy_counts(0.01, 7);
        let nothing = enforce_consistency(
            &counts,
            db().len(),
            ConsistencyOptions {
                clamp_range: false,
                enforce_monotonicity: false,
                sweeps: 1,
            },
        );
        for (s, e) in counts.iter() {
            assert_eq!(nothing[&s], e.count);
        }
        let clamp_only = enforce_consistency(
            &counts,
            db().len(),
            ConsistencyOptions {
                clamp_range: true,
                enforce_monotonicity: false,
                sweeps: 1,
            },
        );
        assert!(clamp_only.values().all(|&v| (0.0..=8.0).contains(&v)));
    }

    #[test]
    fn consistency_usually_reduces_error_on_average() {
        // Averaged over repetitions, the post-processed counts should be at least as accurate
        // (in total absolute error) as the raw ones; this is the practical point of the module.
        let database = db();
        let mut raw_err = 0.0;
        let mut adj_err = 0.0;
        for seed in 0..60 {
            let counts = noisy_counts(0.3, 100 + seed);
            let adjusted =
                enforce_consistency(&counts, database.len(), ConsistencyOptions::default());
            for (s, e) in counts.iter() {
                let truth = database.support(&s) as f64;
                raw_err += (e.count - truth).abs();
                adj_err += (adjusted[&s] - truth).abs();
            }
        }
        assert!(
            adj_err <= raw_err * 1.02,
            "consistency should not hurt accuracy: raw {raw_err:.1}, adjusted {adj_err:.1}"
        );
    }
}
