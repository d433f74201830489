//! Property-based tests for the mining substrate.
//!
//! The central invariants are that the two threshold miners (Apriori and FP-Growth) agree
//! on arbitrary databases, that both agree with brute-force support counting, and that
//! the best-first top-`k` walk is a prefix of FP-Growth's full ranking.

use pb_fim::apriori::apriori;
use pb_fim::fpgrowth::fpgrowth;
use pb_fim::itemset::ItemSet;
use pb_fim::rules::generate_rules;
use pb_fim::topk::top_k_itemsets;
use pb_fim::TransactionDb;
use proptest::prelude::*;

/// A small random transaction database: up to 30 transactions over up to 8 items.
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..8, 0..6), 0..30)
        .prop_map(TransactionDb::from_transactions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apriori_and_fpgrowth_agree(db in arb_db(), min_count in 1usize..5) {
        let a = apriori(&db, min_count, None);
        let f = fpgrowth(&db, min_count, None);
        prop_assert_eq!(a, f);
    }

    #[test]
    fn rule_confidences_are_consistent(db in arb_db(), min_count in 1usize..4) {
        let frequent = fpgrowth(&db, min_count, None);
        for rule in generate_rules(&frequent, db.len(), 0.0) {
            // Confidence and lift recomputed from exact supports must match.
            let whole = db.frequency(&rule.antecedent.union(&rule.consequent));
            let fa = db.frequency(&rule.antecedent);
            let fc = db.frequency(&rule.consequent);
            prop_assert!((rule.support - whole).abs() < 1e-9);
            prop_assert!((rule.confidence - whole / fa).abs() < 1e-9);
            prop_assert!((rule.lift - (whole / fa) / fc).abs() < 1e-9);
            prop_assert!(rule.confidence <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn mined_counts_match_bruteforce(db in arb_db(), min_count in 1usize..4) {
        for fi in fpgrowth(&db, min_count, None) {
            prop_assert_eq!(fi.count, db.support(&fi.items));
            prop_assert!(fi.count >= min_count);
        }
    }

    #[test]
    fn mining_is_complete(db in arb_db(), min_count in 1usize..4) {
        // Every subset of every transaction with enough support must be reported.
        let mined: std::collections::HashSet<ItemSet> =
            fpgrowth(&db, min_count, None).into_iter().map(|f| f.items).collect();
        for t in db.iter() {
            if t.len() <= 5 {
                for s in t.subsets() {
                    if !s.is_empty() && db.support(&s) >= min_count {
                        prop_assert!(mined.contains(&s), "missing {:?}", s);
                    }
                }
            }
        }
    }

    #[test]
    fn apriori_monotonicity(db in arb_db(), min_count in 1usize..4) {
        // Every non-empty subset of a frequent itemset is at least as frequent.
        for fi in fpgrowth(&db, min_count, None) {
            for s in fi.items.subsets() {
                if !s.is_empty() {
                    prop_assert!(db.support(&s) >= fi.count);
                }
            }
        }
    }

    #[test]
    fn topk_is_prefix_of_full_ranking(db in arb_db(), len_cap in 0usize..4,
                                      k_share in 0.0f64..1.0, extra_k in 0usize..3) {
        // max_len ∈ {None, 1, 2, 3}; k over 1..=n + 2, n the itemset count. Threshold 1
        // mines every itemset, so the walk's universe bound is checked too.
        let max_len = (len_cap > 0).then_some(len_cap);
        let all = fpgrowth(&db, 1, max_len);
        let k = 1 + (k_share * all.len() as f64) as usize + extra_k;
        let top = top_k_itemsets(&db, k, max_len);
        prop_assert_eq!(&top[..], &all[..k.min(all.len())]);
    }

    #[test]
    fn itemset_set_algebra(a in prop::collection::vec(0u32..20, 0..10),
                           b in prop::collection::vec(0u32..20, 0..10)) {
        let sa = ItemSet::new(a);
        let sb = ItemSet::new(b);
        let union = sa.union(&sb);
        let inter = sa.intersect(&sb);
        let diff = sa.difference(&sb);
        prop_assert!(sa.is_subset_of(&union) && sb.is_subset_of(&union));
        prop_assert!(inter.is_subset_of(&sa) && inter.is_subset_of(&sb));
        prop_assert!(diff.is_subset_of(&sa));
        prop_assert!(diff.intersect(&sb).is_empty());
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        prop_assert_eq!(sa.len() + sb.len(), union.len() + inter.len());
    }
}
