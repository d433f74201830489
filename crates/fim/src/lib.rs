//! # pb-fim — frequent itemset mining substrate
//!
//! This crate provides the non-private frequent itemset mining (FIM) machinery that the
//! PrivBasis reproduction is built on:
//!
//! * a compact transaction database representation ([`TransactionDb`], [`ItemSet`]),
//! * a vertical bitmap index ([`VerticalIndex`]) that turns support counting, pair
//!   counting, and the `BasisFreq` bin histogram into word-parallel AND/popcount kernels,
//! * the process-wide counting [`pool`] every per-query fan-out runs on,
//! * two reference miners — level-wise [`apriori`] and tree-based [`fpgrowth`] —
//!   that are tested against each other,
//! * top-`k` mining and threshold mining helpers ([`topk`]),
//! * maximal frequent itemset extraction ([`maximal`]),
//! * the dataset statistics reported in Table 2(a) of the paper
//!   (λ, λ₂, λ₃, f_k — see [`stats`]).
//!
//! Nothing in this crate touches differential privacy; it is the "ground truth" layer used
//! by the DP algorithms for evaluation and by the TF baseline for its pruned enumeration.
//!
//! ## Quick example
//!
//! ```
//! use pb_fim::{TransactionDb, ItemSet, topk::top_k_itemsets};
//!
//! let db = TransactionDb::from_transactions(vec![
//!     vec![1, 2, 3],
//!     vec![1, 2],
//!     vec![2, 3],
//!     vec![1, 2, 3],
//! ]);
//! let top = top_k_itemsets(&db, 3, None);
//! assert_eq!(top.len(), 3);
//! // {2} appears in every transaction, so it is the most frequent itemset.
//! assert_eq!(top[0].items, ItemSet::new(vec![2]));
//! assert_eq!(top[0].count, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod bitmap;
pub mod eclat;
pub mod fpgrowth;
pub mod index;
pub mod io;
pub mod itemset;
pub mod maximal;
pub mod pairs;
pub mod pool;
pub mod rules;
pub mod stats;
pub mod topk;
pub mod transaction;

pub use bitmap::Bitmap;
pub use index::VerticalIndex;
pub use itemset::{Item, ItemSet};
pub use pairs::PairCounts;
pub use rules::AssociationRule;
pub use topk::FrequentItemset;
pub use transaction::TransactionDb;
