//! # pb-experiments — the experiment harness
//!
//! Shared code behind the binaries that regenerate every table and figure of the paper's
//! evaluation (§5). Each binary prints the same rows/series the paper reports, as aligned
//! text and as TSV (pipe into a file to plot).
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2a` | Table 2(a): dataset parameters (N, \|I\|, avg \|t\|, λ, λ₂, λ₃) |
//! | `table2b` | Table 2(b): TF effectiveness (f_k·N, m, \|U\|, γ·N) |
//! | `fig1` … `fig5` | Figures 1–5: FNR and relative error vs ε for PB and TF |
//! | `ablation_alpha` | privacy-budget split sensitivity |
//! | `ablation_lambda2` | λ₂ heuristic vs the naive `ηk − λ` |
//! | `ablation_ev` | the 2^{ℓ−1}/ℓ² grouping analysis and reconstruction strategies |
//!
//! Scale: by default every binary runs the synthetic profiles at a reduced number of
//! transactions (`PB_SCALE`, see [`default_scale`]) so a full figure finishes in a couple of
//! minutes; set the `PB_SCALE` environment variable to `1.0` to run at the paper's full `N`.
//! Repetitions default to 3 (the paper's choice) and can be raised with `PB_REPS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pb_core::{PrivBasis, QueryContext};
use pb_datagen::DatasetProfile;
use pb_dp::Epsilon;
use pb_fim::stats::top_k_stats;
use pb_fim::topk::top_k_itemsets;
use pb_fim::{FrequentItemset, ItemSet, TransactionDb};
use pb_metrics::{
    false_negative_rate, mean_and_stderr, relative_error, PublishedItemset, Summary, TsvTable,
};
use pb_tf::{suggest_m, TfConfig, TfMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ε grid used by Figures 1–2 (dense datasets).
pub const EPS_GRID_DENSE: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// The ε grid used by Figures 3–4 (sparse datasets).
pub const EPS_GRID_SPARSE: [f64; 9] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// The ε grid used by Figure 5 (AOL).
pub const EPS_GRID_AOL: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Default dataset scale for a profile: chosen so each figure sweep finishes in minutes while
/// keeping enough transactions that the noise/signal trade-off is meaningful.
pub fn default_scale(profile: DatasetProfile) -> f64 {
    match profile {
        DatasetProfile::Retail => 0.05,
        DatasetProfile::Mushroom => 0.25,
        DatasetProfile::PumsbStar => 0.05,
        DatasetProfile::Kosarak => 0.01,
        DatasetProfile::Aol => 0.004,
    }
}

/// Reads the dataset scale from `PB_SCALE` (falling back to [`default_scale`]).
pub fn scale_from_env(profile: DatasetProfile) -> f64 {
    std::env::var("PB_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 10.0)
        .unwrap_or_else(|| default_scale(profile))
}

/// Reads the repetition count from `PB_REPS` (default 3, as in the paper).
pub fn reps_from_env() -> usize {
    std::env::var("PB_REPS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|r| *r >= 1)
        .unwrap_or(3)
}

/// One (method, k) series of a figure: mean ± standard error per ε.
#[derive(Debug, Clone)]
pub struct Series {
    /// Display label, e.g. `PB, k = 100`.
    pub label: String,
    /// One summary per ε grid point.
    pub points: Vec<Summary>,
}

/// The data behind one figure: an ε grid and the FNR / relative-error series for every
/// (method, k) combination.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Dataset name.
    pub dataset: String,
    /// The ε grid.
    pub epsilons: Vec<f64>,
    /// False-negative-rate series.
    pub fnr: Vec<Series>,
    /// Relative-error series.
    pub relative_error: Vec<Series>,
}

impl FigureData {
    /// Renders one of the two panels as a table (ε column plus mean and stderr per series).
    pub fn to_table(&self, panel: &str) -> TsvTable {
        let series = match panel {
            "fnr" => &self.fnr,
            _ => &self.relative_error,
        };
        let mut header = vec!["epsilon".to_string()];
        for s in series {
            header.push(format!("{} mean", s.label));
            header.push(format!("{} stderr", s.label));
        }
        let mut table = TsvTable::new(header);
        for (i, eps) in self.epsilons.iter().enumerate() {
            let mut row = vec![format!("{eps:.2}")];
            for s in series {
                row.push(format!("{:.4}", s.points[i].mean));
                row.push(format!("{:.4}", s.points[i].std_error));
            }
            table.push_row(row);
        }
        table
    }

    /// Prints both panels in the format used by all figure binaries.
    pub fn print(&self) {
        println!("## {} — false negative rate", self.dataset);
        println!("{}", self.to_table("fnr").to_aligned());
        println!("## {} — relative error", self.dataset);
        println!("{}", self.to_table("re").to_aligned());
        println!("### TSV (fnr)\n{}", self.to_table("fnr").to_tsv());
        println!("### TSV (relative error)\n{}", self.to_table("re").to_tsv());
    }
}

/// Converts a private release into the form the metrics take.
pub fn to_published(itemsets: &[(ItemSet, f64)]) -> Vec<PublishedItemset> {
    itemsets
        .iter()
        .map(|(s, c)| PublishedItemset::new(s.clone(), *c))
        .collect()
}

/// Runs the PB-vs-TF sweep behind one figure.
///
/// For every `k` and every ε, both methods are run `reps` times on the same synthetic dataset
/// and the FNR / relative error against the exact top-`k` are averaged. The TF length cap `m`
/// is chosen per `k` with the same "best precision" rule the paper uses.
pub fn figure_sweep(
    profile: DatasetProfile,
    scale: f64,
    ks: &[usize],
    epsilons: &[f64],
    reps: usize,
    seed: u64,
) -> FigureData {
    let db = profile.generate(scale, seed).into_shared();
    // One context for the whole sweep: the index is built once, and θ is mined once per
    // k rather than once per repetition.
    let context = QueryContext::new(std::sync::Arc::clone(&db));
    let pb = PrivBasis::with_defaults();

    let mut fnr_series = Vec::new();
    let mut re_series = Vec::new();

    // The paper reports the m that gives TF its best precision. The `suggest_m` heuristic picks
    // it from coverage and γ-effectiveness; `PB_TF_M` overrides it (the paper's figure captions
    // record the m actually used — e.g. m = 1 for retail and AOL — and the override lets the
    // harness reproduce exactly that configuration).
    let m_override = std::env::var("PB_TF_M")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());

    for &k in ks {
        let truth = top_k_itemsets(&db, k, None);
        let m =
            m_override.unwrap_or_else(|| suggest_m(&db, k, 1.0, 0.9, profile.paper_num_items(), 3));

        let mut pb_fnr = vec![Vec::with_capacity(reps); epsilons.len()];
        let mut pb_re = vec![Vec::with_capacity(reps); epsilons.len()];
        let mut tf_fnr = vec![Vec::with_capacity(reps); epsilons.len()];
        let mut tf_re = vec![Vec::with_capacity(reps); epsilons.len()];

        for (ei, &eps) in epsilons.iter().enumerate() {
            let mut tf_cfg = TfConfig::new(k, m, Epsilon::Finite(eps));
            tf_cfg.universe_size = Some(profile.paper_num_items());
            let tf = TfMethod::new(tf_cfg);
            for rep in 0..reps {
                let run_seed = seed
                    .wrapping_mul(31)
                    .wrapping_add((k as u64) << 20)
                    .wrapping_add((ei as u64) << 8)
                    .wrapping_add(rep as u64);
                let mut rng = StdRng::seed_from_u64(run_seed);
                let out = pb
                    .run_shared(&mut rng, &context, k, Epsilon::Finite(eps))
                    .expect("default parameters are valid");
                let published = to_published(&out.itemsets);
                pb_fnr[ei].push(false_negative_rate(&truth, &published));
                pb_re[ei].push(relative_error(&db, &published));

                let tf_out = tf.run(&mut rng, &db);
                let tf_published = to_published(&tf_out.itemsets);
                tf_fnr[ei].push(false_negative_rate(&truth, &tf_published));
                tf_re[ei].push(relative_error(&db, &tf_published));
            }
        }

        let lambda = top_k_stats(&db, k).lambda;
        fnr_series.push(Series {
            label: format!("PB k={k} (λ={lambda})"),
            points: pb_fnr.iter().map(|v| mean_and_stderr(v)).collect(),
        });
        fnr_series.push(Series {
            label: format!("TF k={k} (m={m})"),
            points: tf_fnr.iter().map(|v| mean_and_stderr(v)).collect(),
        });
        re_series.push(Series {
            label: format!("PB k={k} (λ={lambda})"),
            points: pb_re.iter().map(|v| mean_and_stderr(v)).collect(),
        });
        re_series.push(Series {
            label: format!("TF k={k} (m={m})"),
            points: tf_re.iter().map(|v| mean_and_stderr(v)).collect(),
        });
    }

    FigureData {
        dataset: profile.name().to_string(),
        epsilons: epsilons.to_vec(),
        fnr: fnr_series,
        relative_error: re_series,
    }
}

/// Convenience: run PrivBasis once and score it against the exact top-`k`.
pub fn score_privbasis(
    db: &TransactionDb,
    truth: &[FrequentItemset],
    pb: &PrivBasis,
    k: usize,
    eps: f64,
    seed: u64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = pb
        .run(&mut rng, db, k, Epsilon::Finite(eps))
        .expect("parameters validated by caller");
    let published = to_published(&out.itemsets);
    (
        false_negative_rate(truth, &published),
        relative_error(db, &published),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_are_sane() {
        for p in DatasetProfile::all() {
            let s = default_scale(p);
            assert!(s > 0.0 && s <= 1.0);
        }
        assert!(reps_from_env() >= 1);
    }

    #[test]
    fn figure_sweep_smoke() {
        // A tiny sweep: one k, two ε values, one repetition, small dataset.
        let data = figure_sweep(DatasetProfile::Mushroom, 0.05, &[10], &[0.5, 1.0], 1, 3);
        assert_eq!(data.epsilons.len(), 2);
        assert_eq!(data.fnr.len(), 2); // PB + TF
        assert_eq!(data.relative_error.len(), 2);
        for s in &data.fnr {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                assert!(p.mean >= 0.0 && p.mean <= 1.0);
            }
        }
        let table = data.to_table("fnr");
        assert_eq!(table.num_rows(), 2);
        assert!(data.to_table("re").to_tsv().contains("epsilon"));
    }

    #[test]
    fn score_helper_runs() {
        let db = DatasetProfile::Mushroom.generate(0.05, 1);
        let truth = top_k_itemsets(&db, 10, None);
        let (fnr, re) = score_privbasis(&db, &truth, &PrivBasis::with_defaults(), 10, 1.0, 5);
        assert!((0.0..=1.0).contains(&fnr));
        assert!(re >= 0.0);
    }
}
