//! # pb-core — the PrivBasis algorithm (Li, Qardaji, Su & Cao, VLDB 2012)
//!
//! PrivBasis publishes the top-`k` most frequent itemsets of a transaction database under
//! ε-differential privacy. Its central idea is the **θ-basis set** (Definition 2): a family
//! `B = {B₁,…,B_w}` of item sets such that every θ-frequent itemset is a subset of some `Bᵢ`.
//! Projecting the database onto each basis partitions the transactions into `2^|Bᵢ|` disjoint
//! bins whose noisy counts (Laplace noise of scale `w/ε`) let one reconstruct the frequency of
//! every candidate itemset `C(B) = ∪ᵢ {X ⊆ Bᵢ}` by post-processing — and the top-`k` is then
//! read off those reconstructed frequencies.
//!
//! The crate is organised along the paper's structure:
//!
//! * [`basis`] — basis sets and candidate sets (Definitions 2 and 3),
//! * [`freq`] — Algorithm 1 `BasisFreq`: noisy bin counts, reconstruction, and
//!   inverse-variance combination across overlapping bases,
//! * [`variance`] — the error-variance model of §4.2 (Equation 4) that drives basis design,
//! * [`construct`] — Algorithm 2 `ConstructBasisSet`: maximal cliques of the frequent-pairs
//!   graph, greedy merging, and leftover-item redistribution,
//! * [`algorithm`] — Algorithm 3 `PrivBasis`: λ estimation, frequent item/pair selection, the
//!   privacy-budget split α₁/α₂/α₃, and the end-to-end method,
//! * [`params`] — the tunable parameters with the paper's defaults.
//!
//! ## Quick example
//!
//! ```
//! use pb_core::{PrivBasis, PrivBasisParams};
//! use pb_dp::Epsilon;
//! use pb_fim::TransactionDb;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let db = TransactionDb::from_transactions(vec![
//!     vec![0, 1, 2], vec![0, 1], vec![0, 1, 2], vec![2, 3], vec![0, 1],
//! ]);
//! let pb = PrivBasis::new(PrivBasisParams::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let out = pb.run(&mut rng, &db, 3, Epsilon::Finite(2.0)).unwrap();
//! assert_eq!(out.itemsets.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod basis;
pub mod consistency;
pub mod construct;
pub mod context;
pub mod freq;
pub mod observe;
pub mod params;
pub mod variance;

pub use algorithm::{CountTransform, PrivBasis, PrivBasisError, PrivBasisOutput};
pub use basis::BasisSet;
pub use consistency::{enforce_consistency, enforce_consistency_in_place, ConsistencyOptions};
pub use construct::construct_basis_set;
pub use context::QueryContext;
pub use freq::{
    basis_freq, basis_freq_counts, basis_freq_counts_naive, basis_freq_counts_with_histograms,
    basis_freq_counts_with_index, basis_freq_naive, NoisyCandidateCounts,
};
pub use observe::{NoopObserver, PhaseObserver};
pub use params::{PrivBasisParams, SelectionScale};
