//! Algorithm 2 — `ConstructBasisSet`: building a basis set from frequent items and pairs.
//!
//! Given the (privately selected) frequent items `F` and frequent pairs `P`, the basis set is
//! assembled from:
//!
//! * `B₁` — the maximal cliques of size ≥ 2 of the frequent-pairs graph `(F, P)`
//!   (Proposition 5: these cover every frequent itemset of size ≥ 2 whose pairs are all in `P`),
//! * `B₂` — the items of `F` that appear in no pair, grouped into itemsets of at most 3
//!   (the §4.2 analysis shows groups of 3 minimise the per-item error variance).
//!
//! Two greedy refinement passes then minimise the average-case error variance for the queries
//! `F ∪ P`: merging pairs of `B₁` bases while it helps (fewer bases ⇒ less noise per bin, but
//! longer bases ⇒ exponentially more bins per reconstruction), and dissolving `B₂` groups into
//! other bases when that helps. Basis length never exceeds `max_basis_len`.
//!
//! ## Scoring candidates
//!
//! Each pass scores every candidate merge or dissolve, so the scoring is the work of
//! the construction. F's items are mapped to bit positions once, and every basis and
//! query becomes a bitset of `⌈|F|/64⌉` words (any |F|: λ exceeds 128 at large k). A
//! candidate is written into one reused scratch list — the groups' words with the
//! merge or dissolve applied — and scored there by the variance module's objective,
//! which normalises the list on indices exactly as `BasisSet::new` would and sums the
//! error variances in the same float order. No candidate `BasisSet` is built; only the
//! winner of the last pass becomes one.

use crate::basis::BasisSet;
use crate::variance::{count, ones, BitSets, Objective};
use pb_fim::itemset::{Item, ItemSet};
use pb_graph::bron_kerbosch::maximal_cliques_with_min_size;
use pb_graph::UndirectedGraph;
use std::collections::BTreeSet;

/// Penalty assigned to a query left uncovered while evaluating a candidate basis set; large
/// enough that no refinement step ever un-covers a query.
const UNCOVERED_PENALTY: f64 = 1e12;

/// Builds a basis set from frequent items `F` and frequent pairs `P` (Algorithm 2).
///
/// Pairs whose endpoints are not both in `F` are ignored. `max_basis_len` caps the basis
/// length ℓ (the paper uses 12); maximal cliques larger than the cap are split into
/// consecutive chunks.
pub fn construct_basis_set(
    frequent_items: &ItemSet,
    frequent_pairs: &[(Item, Item)],
    max_basis_len: usize,
) -> BasisSet {
    assert!(max_basis_len >= 1, "max_basis_len must be at least 1");
    if frequent_items.is_empty() {
        return BasisSet::new(vec![]);
    }

    // The frequent-pairs graph.
    let mut graph = UndirectedGraph::new();
    let mut paired_items: BTreeSet<Item> = BTreeSet::new();
    for &(a, b) in frequent_pairs {
        if a != b && frequent_items.contains(a) && frequent_items.contains(b) {
            graph.add_edge(a, b);
            paired_items.insert(a);
            paired_items.insert(b);
        }
    }

    // Every basis and query is a bitset over F's items.
    let universe = frequent_items.items();

    // B1: maximal cliques of size >= 2, split if they exceed the length cap.
    let mut b1 = BitSets::new(universe.len());
    for clique in maximal_cliques_with_min_size(&graph, 2) {
        for chunk in clique.chunks(max_basis_len) {
            b1.push_itemset(universe, &ItemSet::new(chunk.to_vec()));
        }
    }

    // B2: unpaired items grouped into itemsets of at most 3.
    let unpaired: Vec<Item> = frequent_items
        .iter()
        .filter(|i| !paired_items.contains(i))
        .collect();
    let mut b2 = BitSets::new(universe.len());
    for chunk in unpaired.chunks(3) {
        b2.push_itemset(universe, &ItemSet::new(chunk.to_vec()));
    }

    // Queries: every frequent item and every frequent pair.
    let mut queries: Vec<ItemSet> = frequent_items.iter().map(ItemSet::singleton).collect();
    for &(a, b) in frequent_pairs {
        if a != b && frequent_items.contains(a) && frequent_items.contains(b) {
            queries.push(ItemSet::pair(a, b));
        }
    }
    let mut objective = Objective::new(universe, &queries, UNCOVERED_PENALTY);
    // Each candidate basis list is written here, scored, and overwritten by the next.
    let mut candidate = BitSets::new(universe.len());

    // Pass 1: greedily merge bases of B1 while that reduces the average error variance.
    loop {
        let current = objective.average(concat(&mut candidate, &b1, &b2));
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..b1.len() {
            for j in (i + 1)..b1.len() {
                if !merge_into(&mut candidate, &b1, &b2, i, j, max_basis_len) {
                    continue;
                }
                let reduction = current - objective.average(&candidate);
                if reduction > 1e-12 && best.is_none_or(|(_, _, r)| reduction > r) {
                    best = Some((i, j, reduction));
                }
            }
        }
        match best {
            Some((i, j, _)) => {
                let merged = b1.get(j).to_vec();
                for (acc, x) in b1.get_mut(i).iter_mut().zip(merged) {
                    *acc |= x;
                }
                b1.remove(j);
            }
            None => break,
        }
    }

    // Pass 2: try dissolving B2 groups into the smallest existing bases.
    loop {
        let current = objective.average(concat(&mut candidate, &b1, &b2));
        let mut best: Option<(usize, f64)> = None;
        for i in 0..b2.len() {
            dissolve_into(&mut candidate, &b1, &b2, i, max_basis_len);
            let reduction = current - objective.average(&candidate);
            if reduction > 1e-12 && best.is_none_or(|(_, r)| reduction > r) {
                best = Some((i, reduction));
            }
        }
        match best {
            Some((i, _)) => {
                dissolve_into(&mut candidate, &b1, &b2, i, max_basis_len);
                let mut new_b1 = candidate.clone();
                b2 = new_b1.split_off(b1.len());
                b1 = new_b1;
            }
            None => break,
        }
    }

    let bases = (0..b1.len())
        .map(|i| b1.itemset(universe, i))
        .chain((0..b2.len()).map(|i| b2.itemset(universe, i)))
        .collect();
    BasisSet::new(bases)
}

/// Writes `b1` then `b2` into `out`.
fn concat<'a>(out: &'a mut BitSets, b1: &BitSets, b2: &BitSets) -> &'a BitSets {
    out.clear();
    for i in 0..b1.len() {
        out.push(b1.get(i));
    }
    for i in 0..b2.len() {
        out.push(b2.get(i));
    }
    out
}

/// Writes into `out` the bases with `b1[i]` replaced by `b1[i] ∪ b1[j]` and `b1[j]`
/// removed; false (and `out` unspecified) if the union exceeds the length cap.
fn merge_into(
    out: &mut BitSets,
    b1: &BitSets,
    b2: &BitSets,
    i: usize,
    j: usize,
    max_basis_len: usize,
) -> bool {
    out.clear();
    let merged = out.push_empty();
    for ((m, &x), &y) in merged.iter_mut().zip(b1.get(i)).zip(b1.get(j)) {
        *m = x | y;
    }
    if count(merged) > max_basis_len {
        return false;
    }
    for t in (0..b1.len()).filter(|&t| t != i && t != j) {
        out.push(b1.get(t));
    }
    for t in 0..b2.len() {
        out.push(b2.get(t));
    }
    true
}

/// Writes into `out` the bases after dissolving group `idx` of `b2`: `b1`, then `b2`
/// without the group, each of the group's items (ascending) added to the currently
/// smallest basis that still has room under the length cap — `B₂` groups first, then
/// `B₁`, the first of equal lengths — or, where none has room, appended as its own
/// basis so coverage is preserved. `out[..b1.len()]` is the new `B₁`, the rest the new
/// `B₂`.
fn dissolve_into(out: &mut BitSets, b1: &BitSets, b2: &BitSets, idx: usize, max_basis_len: usize) {
    out.clear();
    for i in 0..b1.len() {
        out.push(b1.get(i));
    }
    for i in (0..b2.len()).filter(|&i| i != idx) {
        out.push(b2.get(i));
    }
    let n1 = b1.len();
    for p in ones(b2.get(idx)) {
        let mut target: Option<(usize, usize)> = None; // (index in out, len)
        for i in (n1..out.len()).chain(0..n1) {
            let len = count(out.get(i));
            if len < max_basis_len && target.is_none_or(|(_, l)| len < l) {
                target = Some((i, len));
            }
        }
        let bits = match target {
            Some((i, _)) => out.get_mut(i),
            None => out.push_empty(),
        };
        bits[p / 64] |= 1 << (p % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[u32]) -> ItemSet {
        ItemSet::new(v.to_vec())
    }

    #[test]
    fn covers_every_item_and_pair() {
        let f = items(&[1, 2, 3, 4, 5, 6, 7]);
        let p = vec![(1, 2), (2, 3), (1, 3), (4, 5)];
        let basis = construct_basis_set(&f, &p, 12);
        for i in f.iter() {
            assert!(basis.covers(&ItemSet::singleton(i)), "item {i} uncovered");
        }
        for &(a, b) in &p {
            assert!(
                basis.covers(&ItemSet::pair(a, b)),
                "pair ({a},{b}) uncovered"
            );
        }
        assert!(basis.length() <= 12);
    }

    #[test]
    fn clique_structure_is_respected() {
        // Items 1,2,3 form a triangle: they must end up together in some basis.
        let f = items(&[1, 2, 3, 9]);
        let p = vec![(1, 2), (2, 3), (1, 3)];
        let basis = construct_basis_set(&f, &p, 12);
        assert!(basis.covers(&items(&[1, 2, 3])));
        // Item 9 participates in no pair but must still be covered.
        assert!(basis.covers(&ItemSet::singleton(9)));
    }

    #[test]
    fn no_pairs_groups_items_into_small_bases() {
        // Algorithm 2 starts from groups of 3 and may redistribute a leftover group when that
        // lowers the average error variance, so the final length is small but not always 3.
        let f = items(&[1, 2, 3, 4, 5, 6, 7]);
        let basis = construct_basis_set(&f, &[], 12);
        assert!(
            basis.length() <= 4,
            "groups should stay small, got length {}",
            basis.length()
        );
        assert!(basis.width() >= 2);
        for i in f.iter() {
            assert!(basis.covers(&ItemSet::singleton(i)));
        }
    }

    #[test]
    fn no_pairs_six_items_stay_in_threes() {
        // With 6 items two groups of 3 are exactly the §4.2 optimum; nothing should change.
        let f = items(&[1, 2, 3, 4, 5, 6]);
        let basis = construct_basis_set(&f, &[], 12);
        assert_eq!(basis.width(), 2);
        assert_eq!(basis.length(), 3);
    }

    #[test]
    fn empty_inputs() {
        let basis = construct_basis_set(&ItemSet::empty(), &[], 12);
        assert!(basis.is_empty());
        let basis = construct_basis_set(&items(&[5]), &[], 12);
        assert_eq!(basis.width(), 1);
        assert!(basis.covers(&ItemSet::singleton(5)));
    }

    #[test]
    fn pairs_outside_f_are_ignored() {
        let f = items(&[1, 2]);
        let p = vec![(1, 2), (3, 4), (1, 9)];
        let basis = construct_basis_set(&f, &p, 12);
        assert!(basis.covers(&items(&[1, 2])));
        assert!(!basis.covers(&ItemSet::singleton(3)));
        assert!(!basis.covers(&ItemSet::singleton(9)));
    }

    #[test]
    fn respects_length_cap() {
        // A clique of 6 items with a cap of 4 must be split but still cover all items.
        let f = items(&[0, 1, 2, 3, 4, 5]);
        let mut p = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                p.push((a, b));
            }
        }
        let basis = construct_basis_set(&f, &p, 4);
        assert!(basis.length() <= 4);
        for i in f.iter() {
            assert!(basis.covers(&ItemSet::singleton(i)));
        }
    }

    #[test]
    fn disjoint_pair_cliques_remain_covered() {
        // Ten disjoint frequent pairs over 20 items. Merging pairs into length-4 bases is
        // EV-neutral for singleton queries (2^{ℓ-1}/ℓ² is equal at ℓ=2 and ℓ=4) and strictly
        // worse for the pair queries, so the greedy pass must leave the structure alone while
        // keeping every query covered.
        let all: Vec<u32> = (0..20).collect();
        let f = items(&all);
        let p: Vec<(u32, u32)> = (0..10).map(|i| (2 * i, 2 * i + 1)).collect();
        let basis = construct_basis_set(&f, &p, 12);
        assert_eq!(basis.width(), 10);
        assert_eq!(basis.length(), 2);
        for &(a, b) in &p {
            assert!(basis.covers(&ItemSet::pair(a, b)));
        }
        for i in f.iter() {
            assert!(basis.covers(&ItemSet::singleton(i)));
        }
    }

    #[test]
    fn deterministic_output() {
        let f = items(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let p = vec![(1, 2), (3, 4), (5, 6), (1, 3)];
        let a = construct_basis_set(&f, &p, 12);
        let b = construct_basis_set(&f, &p, 12);
        assert_eq!(a, b);
    }
}
