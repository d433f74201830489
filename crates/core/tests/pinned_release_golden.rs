//! Pinned-seed release goldens.
//!
//! These tests freeze the released bytes of the end-to-end pipeline for fixed
//! seeds: the exact itemsets AND the exact bit patterns of every noisy count
//! (`f64::to_bits`, not approximate comparison). They guard the container
//! choices on the release path — the `HashMap` → `BTreeMap` sweep that
//! `pb-audit`'s hash-iter lint drove must not change a single released bit,
//! and any future change that reorders iteration, reassociates a float sum,
//! or moves a noise draw will fail here with the exact divergent value.
//!
//! The goldens were captured once (same code, same vendored RNG) and are as
//! portable as the RNG stream: `StdRng` is the repo's own vendored,
//! platform-independent generator.

use pb_core::{basis_freq_counts, enforce_consistency, BasisSet, ConsistencyOptions, PrivBasis};
use pb_dp::Epsilon;
use pb_fim::itemset::ItemSet;
use pb_fim::TransactionDb;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic synthetic database: item `j` (0-based, of 8) appears in row
/// `t` when `t % (j + 2) == 0` — nested-ish frequencies with no RNG involved.
fn golden_db() -> TransactionDb {
    let rows: Vec<Vec<u32>> = (0..200u32)
        .map(|t| (0..8u32).filter(|j| t % (j + 2) == 0).collect())
        .collect();
    TransactionDb::from_transactions(rows)
}

fn set(items: &[u32]) -> ItemSet {
    ItemSet::new(items.to_vec())
}

/// Renders a release as `"{itemset}:{count_bits_hex}"` lines for exact
/// comparison (and reproducible goldens).
fn render(release: &[(ItemSet, f64)]) -> Vec<String> {
    release
        .iter()
        .map(|(s, c)| {
            let items: Vec<String> = s.items().iter().map(|i| i.to_string()).collect();
            format!("{}:{:016x}", items.join(","), c.to_bits())
        })
        .collect()
}

#[test]
fn end_to_end_release_is_pinned() {
    let db = golden_db();
    let out = PrivBasis::with_defaults()
        .run(&mut StdRng::seed_from_u64(42), &db, 6, Epsilon::Finite(1.0))
        .expect("run succeeds");
    assert_eq!(
        render(&out.itemsets),
        GOLDEN_END_TO_END,
        "released bytes moved: itemsets or noisy-count bit patterns changed"
    );
}

/// The `sparse_db` construction of the algorithm's unit tests: 40 items with strictly
/// decreasing frequencies (0.5 down to ~0.3) and pseudo-independent occurrences from a
/// fixed mixing function, no RNG. Pairs co-occur near the product of the singleton
/// frequencies, so at k = 45 the θ anchor is a pair: λ covers the 40 items, λ₂ > 0, and
/// the release goes through pair selection and ConstructBasisSet.
fn multi_basis_db() -> TransactionDb {
    fn mix(i: usize, j: u32) -> u64 {
        let mut x = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^ (x >> 29)
    }
    let rows: Vec<Vec<u32>> = (0..3_000usize)
        .map(|i| {
            (0..40u32)
                .filter(|&j| mix(i, j) % 1000 < 500 - 5 * j as u64)
                .collect()
        })
        .collect();
    TransactionDb::from_transactions(rows)
}

#[test]
fn multi_basis_release_is_pinned() {
    let db = multi_basis_db();
    let out = PrivBasis::with_defaults()
        .run(
            &mut StdRng::seed_from_u64(42),
            &db,
            45,
            Epsilon::Finite(1.0),
        )
        .expect("run succeeds");
    assert!(out.lambda2 > 0, "the fixture must select pairs");
    assert!(
        out.basis_set.width() > 1,
        "the fixture must build several bases"
    );
    let bases: Vec<String> = out
        .basis_set
        .bases()
        .iter()
        .map(|b| {
            let items: Vec<String> = b.items().iter().map(|i| i.to_string()).collect();
            items.join(",")
        })
        .collect();
    assert_eq!(
        (out.lambda, out.lambda2),
        GOLDEN_MULTI_BASIS_LAMBDAS,
        "λ or λ₂ moved"
    );
    assert_eq!(bases, GOLDEN_MULTI_BASIS_BASES, "the basis set moved");
    assert_eq!(
        render(&out.itemsets),
        GOLDEN_MULTI_BASIS,
        "released bytes moved: itemsets or noisy-count bit patterns changed"
    );
}

#[test]
fn basis_freq_release_is_pinned() {
    let db = golden_db();
    let basis = BasisSet::new(vec![set(&[0, 1, 2, 3]), set(&[2, 3, 4, 5]), set(&[6, 7])]);
    let top = basis_freq_counts(
        &mut StdRng::seed_from_u64(7),
        &db,
        &basis,
        Epsilon::Finite(0.5),
    )
    .top_k(10);
    assert_eq!(render(&top), GOLDEN_BASIS_FREQ);
}

#[test]
fn consistency_adjusted_release_is_pinned() {
    let db = golden_db();
    let basis = BasisSet::new(vec![set(&[0, 1, 2, 3]), set(&[2, 3, 4, 5])]);
    let counts = basis_freq_counts(
        &mut StdRng::seed_from_u64(11),
        &db,
        &basis,
        Epsilon::Finite(0.8),
    );
    let adjusted = enforce_consistency(&counts, db.len(), ConsistencyOptions::default());
    let mut rows: Vec<(ItemSet, f64)> = adjusted.into_iter().collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(render(&rows), GOLDEN_CONSISTENCY);
}

const GOLDEN_END_TO_END: &[&str] = &[
    "0:405cfd9682894525",
    "1:4056d71d184bb331",
    "6:405646701f3e847e",
    "4:405193fb7b3ae348",
    "2:4050c6b06fd2988f",
    "0,2:4050c6b06fd2988f",
];

const GOLDEN_BASIS_FREQ: &[&str] = &[
    "0:404a88c4b74be306",
    "1:4046b36e06ca90ea",
    "6:404097ff02380412",
    "4:403f0f0ec739df8e",
    "0,2:403c5627f17a8680",
    "2:403938e24e2c5965",
    "7:40364f9378d7773e",
    "0,1:402caaf1f78ca1b7",
    "3:4023297b3788731c",
    "1,2:40205c3eaa9d51bd",
];

const GOLDEN_CONSISTENCY: &[&str] = &[
    "0:40583059dc324682",
    "0,1:403c767f0ffeb05a",
    "0,1,2:4022790ba906b1ef",
    "0,1,2,3:401552d382960567",
    "0,1,3:4021b7605e74813c",
    "0,2:404601a5931fae72",
    "0,2,3:40234988bf660e62",
    "0,3:403463706a659426",
    "1:404edf9e0bff594c",
    "1,2:4022790ba906b1ef",
    "1,2,3:401552d382960567",
    "1,3:4029d3dadc9cbff6",
    "2:404601a5931fae72",
    "2,3:40234988bf660e62",
    "2,3,4:400ea592096db418",
    "2,3,4,5:0000000000000000",
    "2,3,5:0000000000000000",
    "2,4:402d2483bf58b574",
    "2,4,5:0000000000000000",
    "2,5:40188d02bd2d47bf",
    "3:4045f28fb105bdfa",
    "3,4:4029a98b2caebcc4",
    "3,4,5:0000000000000000",
    "3,5:400a85e2fff880ca",
    "4:4039ac764a421570",
    "4,5:0000000000000000",
    "5:4038106d5af4c44c",
];

const GOLDEN_MULTI_BASIS_LAMBDAS: (usize, usize) = (40, 10);

const GOLDEN_MULTI_BASIS_BASES: &[&str] = &[
    "0,3,9", "1,6,17", "2,5,11", "4,12,16", "7,10,15", "8,23", "11,18,27", "13,14,19", "20,21,22",
    "24,25,26", "28,29,30", "31,32,33", "34,35,36", "37,38,39",
];

const GOLDEN_MULTI_BASIS: &[&str] = &[
    "1:409908262efdad26",
    "6:40985c62c2ed284a",
    "0:40979e5b6791b0f4",
    "3:4097290a6bf2a008",
    "20:4096f59917ac15f2",
    "4:409675eea4fb4958",
    "13:40962787eccf6e72",
    "17:409610a907add309",
    "2:409605a714840dbc",
    "8:4095e553b91be122",
    "12:409572c729cffbaa",
    "10:4095226a4663b421",
    "9:4094fb60574103e2",
    "15:4094d5a7bbea26a2",
    "14:4094c6717c14a5d0",
    "7:4094affc2875ddcd",
    "19:409491a25cc0f0ce",
    "11:40945f501560b41e",
    "26:4093a3942aa04ea2",
    "22:409370971926bdc0",
    "21:409323134249cfdc",
    "25:4093216505f3cc1f",
    "23:409305d4243bbfbc",
    "24:4092f8eaad991889",
    "5:4092e45edd293a7e",
    "16:4092dcd4758976d0",
    "32:40916991db57b878",
    "28:40915d0e3134574c",
    "18:409145296eff92fa",
    "29:4090d689338cd481",
    "30:4090978203a9a887",
    "31:409029acd46c55de",
    "34:40901b731bcd7ef6",
    "33:408f879839465df4",
    "35:408f0d29af22231c",
    "27:408e55797c0d7407",
    "37:408c8e8e8901aa4a",
    "38:408be1e0a9059508",
    "36:408b2492b10a05ae",
    "39:4089cb56ef5f919c",
    "1,6:4087ebdfc721dba6",
    "0,3:4087925a93ba58da",
    "1,17:4086013a1616ca75",
    "0,9:4085a16206915d24",
    "4,12:40858c8331a514e9",
];
