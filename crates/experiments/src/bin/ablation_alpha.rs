//! Ablation A1: sensitivity to the privacy-budget split (α₁, α₂, α₃).
//!
//! The paper fixes α = (0.1, 0.4, 0.5) without tuning and notes the optimum depends on the
//! dataset. This ablation sweeps a few splits on a dense and a sparse profile and reports the
//! false negative rate at ε = 0.5.
//!
//! Run with: `cargo run --release -p pb-experiments --bin ablation_alpha`

#![forbid(unsafe_code)]

use pb_core::{PrivBasis, PrivBasisParams, QueryContext};
use pb_datagen::DatasetProfile;
use pb_dp::Epsilon;
use pb_experiments::{reps_from_env, scale_from_env, to_published};
use pb_fim::topk::top_k_itemsets;
use pb_metrics::{false_negative_rate, mean_and_stderr, TsvTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let epsilon = 0.5;
    let reps = reps_from_env().max(3);
    let splits: &[(f64, f64, f64)] = &[
        (0.1, 0.4, 0.5), // paper default
        (0.1, 0.2, 0.7),
        (0.1, 0.6, 0.3),
        (0.2, 0.4, 0.4),
        (0.05, 0.45, 0.5),
        (0.3, 0.3, 0.4),
    ];
    let cases = [
        (DatasetProfile::Mushroom, 100usize),
        (DatasetProfile::Kosarak, 200usize),
    ];

    let mut table = TsvTable::new([
        "dataset",
        "k",
        "alpha1",
        "alpha2",
        "alpha3",
        "FNR mean",
        "FNR stderr",
    ]);
    for &(profile, k) in &cases {
        let db = profile.generate(scale_from_env(profile), 42).into_shared();
        let truth = top_k_itemsets(&db, k, None);
        // θ depends on the data and k alone, so every split and repetition shares it.
        let context = QueryContext::new(db);
        for &(a1, a2, a3) in splits {
            let pb = PrivBasis::new(PrivBasisParams {
                alpha1: a1,
                alpha2: a2,
                alpha3: a3,
                ..Default::default()
            });
            let fnrs: Vec<f64> = (0..reps)
                .map(|rep| {
                    let mut rng = StdRng::seed_from_u64(7_000 + rep as u64);
                    let out = pb
                        .run_shared(&mut rng, &context, k, Epsilon::Finite(epsilon))
                        .expect("valid split");
                    false_negative_rate(&truth, &to_published(&out.itemsets))
                })
                .collect();
            let s = mean_and_stderr(&fnrs);
            table.push_row([
                profile.name().to_string(),
                k.to_string(),
                a1.to_string(),
                a2.to_string(),
                a3.to_string(),
                format!("{:.4}", s.mean),
                format!("{:.4}", s.std_error),
            ]);
        }
    }
    println!("# Ablation A1 — privacy-budget split (ε = {epsilon}, reps = {reps})\n");
    println!("{}", table.to_aligned());
    println!("# TSV\n{}", table.to_tsv());
}
