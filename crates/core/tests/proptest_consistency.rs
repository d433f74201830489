//! Bit-identity of the candidate lattice against the map-based formulation it replaced.
//!
//! Two oracles, both written over `BTreeMap<ItemSet, _>` exactly as the lattice's
//! predecessors were:
//!
//! * `oracle_counts` — BasisFreq reconstruction: the same noise draws and exact bins,
//!   superset sums, and every basis' estimates merged into a map in basis order.
//! * `oracle_consistency` — the consistency repair with a map lookup (and a fresh parent
//!   itemset) per edge.
//!
//! Over random databases and overlapping multi-basis sets, every ε regime and every
//! [`ConsistencyOptions`] combination, the lattice must reproduce both to the bit.

use pb_core::consistency::count_monotonicity_violations;
use pb_core::freq::{exact_bins_naive, superset_sums, CandidateEstimate};
use pb_core::{
    basis_freq_counts, enforce_consistency, enforce_consistency_in_place, BasisSet,
    ConsistencyOptions, NoisyCandidateCounts,
};
use pb_dp::{Epsilon, LaplaceNoise};
use pb_fim::itemset::ItemSet;
use pb_fim::TransactionDb;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Reconstruction over a map: noise drawn per basis in mask order before counting, then
/// each candidate's estimates folded in basis order with inverse-variance weights.
fn oracle_counts(
    seed: u64,
    db: &TransactionDb,
    basis_set: &BasisSet,
    epsilon: Epsilon,
) -> BTreeMap<ItemSet, CandidateEstimate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries: BTreeMap<ItemSet, CandidateEstimate> = BTreeMap::new();
    if basis_set.is_empty() {
        return entries;
    }
    let noise = LaplaceNoise::new(basis_set.width() as f64, epsilon).unwrap();
    let noise_vecs: Vec<Vec<f64>> = basis_set
        .bases()
        .iter()
        .map(|b| {
            (0..(1usize << b.len()))
                .map(|_| noise.sample(&mut rng))
                .collect()
        })
        .collect();
    for (basis, noise) in basis_set.bases().iter().zip(noise_vecs) {
        let hist = exact_bins_naive(db, basis);
        let bins: Vec<f64> = noise
            .iter()
            .zip(&hist)
            .map(|(n, &c)| n + c as f64)
            .collect();
        let sums = superset_sums(&bins);
        let items = basis.items();
        let len = items.len();
        for (mask, &count) in sums.iter().enumerate().skip(1) {
            let members: Vec<u32> = items
                .iter()
                .enumerate()
                .filter(|(b, _)| mask & (1 << b) != 0)
                .map(|(_, &i)| i)
                .collect();
            let itemset = ItemSet::from_sorted(members).unwrap();
            let variance_units = 2f64.powi((len - itemset.len()) as i32);
            match entries.get_mut(&itemset) {
                None => {
                    entries.insert(
                        itemset,
                        CandidateEstimate {
                            count,
                            variance_units,
                        },
                    );
                }
                Some(existing) => {
                    let v = existing.variance_units;
                    let nv = variance_units;
                    existing.count = (nv / (v + nv)) * existing.count + (v / (v + nv)) * count;
                    existing.variance_units = v * nv / (v + nv);
                }
            }
        }
    }
    entries
}

/// The consistency repair over a map, one parent lookup per edge.
fn oracle_consistency(
    counts: &NoisyCandidateCounts,
    num_transactions: usize,
    options: ConsistencyOptions,
) -> BTreeMap<ItemSet, f64> {
    let mut adjusted: BTreeMap<ItemSet, f64> =
        counts.iter().map(|(s, e)| (s.clone(), e.count)).collect();

    if options.clamp_range {
        let n = num_transactions as f64;
        for v in adjusted.values_mut() {
            *v = v.clamp(0.0, n);
        }
    }

    if options.enforce_monotonicity {
        let mut sets: Vec<ItemSet> = adjusted.keys().cloned().collect();
        sets.sort_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)));
        let variance = |s: &ItemSet| counts.get(s).map_or(1.0, |e| e.variance_units.max(1e-12));

        for _ in 0..options.sweeps {
            for child in &sets {
                if child.len() < 2 {
                    continue;
                }
                for item in child.iter() {
                    let parent = child.without_item(item);
                    let Some(&parent_count) = adjusted.get(&parent) else {
                        continue;
                    };
                    let child_count = adjusted[child];
                    let excess = child_count - parent_count;
                    if excess <= 0.0 {
                        continue;
                    }
                    let parent_share = variance(&parent) / (variance(&parent) + variance(child));
                    *adjusted.get_mut(&parent).expect("parent key exists") =
                        parent_count + excess * parent_share;
                    *adjusted.get_mut(child).expect("child key exists") =
                        child_count - excess * (1.0 - parent_share);
                }
            }
        }

        for child in sets.iter().rev() {
            if child.len() < 2 {
                continue;
            }
            let child_count = adjusted[child];
            for item in child.iter() {
                let parent = child.without_item(item);
                if let Some(parent_count) = adjusted.get_mut(&parent) {
                    if *parent_count < child_count {
                        *parent_count = child_count;
                    }
                }
            }
        }

        if options.clamp_range {
            let n = num_transactions as f64;
            for v in adjusted.values_mut() {
                *v = v.clamp(0.0, n);
            }
        }
    }

    adjusted
}

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 1..60)
        .prop_map(TransactionDb::from_transactions)
}

/// Up to five bases of up to ten items over a twelve-item universe, so they overlap.
fn arb_basis_set() -> impl Strategy<Value = BasisSet> {
    prop::collection::vec(prop::collection::vec(0u32..12, 1..11), 1..6)
        .prop_map(|bases| BasisSet::new(bases.into_iter().map(ItemSet::new).collect()))
}

const EPSILONS: [Epsilon; 3] = [
    Epsilon::Finite(0.05),
    Epsilon::Finite(1.0),
    Epsilon::Infinite,
];

fn all_options() -> impl Iterator<Item = ConsistencyOptions> {
    [false, true].into_iter().flat_map(|clamp_range| {
        [false, true]
            .into_iter()
            .flat_map(move |enforce_monotonicity| {
                (0..=3).map(move |sweeps| ConsistencyOptions {
                    clamp_range,
                    enforce_monotonicity,
                    sweeps,
                })
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lattice_is_bit_identical_to_the_map_oracles(
        db in arb_db(),
        basis in arb_basis_set(),
        eps_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let epsilon = EPSILONS[eps_index];
        let counts = basis_freq_counts(&mut StdRng::seed_from_u64(seed), &db, &basis, epsilon);

        // Reconstruction: same candidates, `iter()` in map order, same bits via both
        // `iter()` and `get()`.
        let oracle = oracle_counts(seed, &db, &basis, epsilon);
        prop_assert_eq!(counts.len(), oracle.len());
        for ((set, est), (oracle_set, oracle_est)) in counts.iter().zip(&oracle) {
            prop_assert_eq!(&set, oracle_set);
            prop_assert_eq!(est.count.to_bits(), oracle_est.count.to_bits(), "{:?}", set);
            prop_assert_eq!(est.variance_units.to_bits(), oracle_est.variance_units.to_bits());
            let got = counts.get(&set).expect("every candidate is found");
            prop_assert_eq!(got.count.to_bits(), oracle_est.count.to_bits());
            prop_assert_eq!(got.variance_units.to_bits(), oracle_est.variance_units.to_bits());
        }
        prop_assert!(counts.get(&ItemSet::singleton(99)).is_none());
        prop_assert!(counts.get(&ItemSet::empty()).is_none());

        // Consistency: every option combination, in place and through the map wrapper.
        for options in all_options() {
            let expected = oracle_consistency(&counts, db.len(), options);
            let mut lattice = counts.clone();
            enforce_consistency_in_place(&mut lattice, db.len(), options);
            let wrapped = enforce_consistency(&counts, db.len(), options);
            prop_assert_eq!(lattice.len(), expected.len());
            prop_assert_eq!(wrapped.len(), expected.len());
            for (((set, est), (oracle_set, &oracle_count)), (_, &wrapped_count)) in
                lattice.iter().zip(&expected).zip(&wrapped)
            {
                prop_assert_eq!(&set, oracle_set);
                prop_assert_eq!(est.count.to_bits(), oracle_count.to_bits(), "{:?} {:?}", set, options);
                prop_assert_eq!(wrapped_count.to_bits(), oracle_count.to_bits());
                // Post-processing never touches the variances.
                let raw = counts.get(&set).unwrap();
                prop_assert_eq!(est.variance_units.to_bits(), raw.variance_units.to_bits());
            }
            if options.enforce_monotonicity {
                prop_assert_eq!(count_monotonicity_violations(&wrapped, 0.0), 0, "{:?}", options);
            }
        }
    }
}
