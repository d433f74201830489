//! Property tests pinning the two BasisFreq counting engines together.
//!
//! The indexed engine (vertical bitmaps, parallel sweeps) and the naive engine (the
//! paper's row scan) must produce *byte-identical* noisy output for the same seed on
//! arbitrary databases and basis sets — not just approximately equal: they consume the
//! RNG in the same order and add integer histograms to the same noise.

use pb_core::freq::{basis_freq_counts_with_index, exact_bins_naive};
use pb_core::{basis_freq, basis_freq_counts, basis_freq_counts_naive, basis_freq_naive, BasisSet};
use pb_dp::Epsilon;
use pb_fim::itemset::ItemSet;
use pb_fim::{TransactionDb, VerticalIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..50)
        .prop_map(TransactionDb::from_transactions)
}

fn arb_basis_set() -> impl Strategy<Value = BasisSet> {
    prop::collection::vec(prop::collection::vec(0u32..10, 1..5), 1..4)
        .prop_map(|bases| BasisSet::new(bases.into_iter().map(ItemSet::new).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_byte_identical_under_noise(db in arb_db(), basis in arb_basis_set(),
                                          seed in any::<u64>()) {
        let indexed = basis_freq_counts(
            &mut StdRng::seed_from_u64(seed), &db, &basis, Epsilon::Finite(0.5));
        let naive = basis_freq_counts_naive(
            &mut StdRng::seed_from_u64(seed), &db, &basis, Epsilon::Finite(0.5));
        prop_assert_eq!(indexed.len(), naive.len());
        for (itemset, est) in indexed.iter() {
            let other = naive.get(&itemset).expect("same candidate set");
            prop_assert_eq!(est.count.to_bits(), other.count.to_bits());
            prop_assert_eq!(est.variance_units.to_bits(), other.variance_units.to_bits());
        }
    }

    #[test]
    fn ranked_output_byte_identical(db in arb_db(), basis in arb_basis_set(),
                                    seed in any::<u64>(), k in 1usize..12) {
        let a = basis_freq(&mut StdRng::seed_from_u64(seed), &db, &basis, k, Epsilon::Finite(1.0));
        let b = basis_freq_naive(&mut StdRng::seed_from_u64(seed), &db, &basis, k, Epsilon::Finite(1.0));
        prop_assert_eq!(a.len(), b.len());
        for ((sa, ca), (sb, cb)) in a.iter().zip(&b) {
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }

    #[test]
    fn prebuilt_index_equals_internal_build(db in arb_db(), basis in arb_basis_set(),
                                            seed in any::<u64>()) {
        let index = VerticalIndex::build(&db);
        let a = basis_freq_counts(&mut StdRng::seed_from_u64(seed), &db, &basis, Epsilon::Finite(1.0));
        let b = basis_freq_counts_with_index(
            &mut StdRng::seed_from_u64(seed), &index, &basis, Epsilon::Finite(1.0));
        prop_assert_eq!(a.len(), b.len());
        for (itemset, est) in a.iter() {
            prop_assert_eq!(est.count.to_bits(), b.get(&itemset).unwrap().count.to_bits());
        }
    }

    #[test]
    fn indexed_histogram_matches_naive_bins(db in arb_db(), basis in arb_basis_set()) {
        let index = VerticalIndex::build(&db);
        for b in basis.bases() {
            prop_assert_eq!(index.bin_histogram(b), exact_bins_naive(&db, b));
        }
    }

    #[test]
    fn noiseless_indexed_counts_are_exact(db in arb_db(), basis in arb_basis_set()) {
        let counts = basis_freq_counts(
            &mut StdRng::seed_from_u64(0), &db, &basis, Epsilon::Infinite);
        for (itemset, est) in counts.iter() {
            prop_assert!((est.count - db.support(&itemset) as f64).abs() < 1e-9,
                         "{:?}: {} vs {}", itemset, est.count, db.support(&itemset));
        }
    }
}
