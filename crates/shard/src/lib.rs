//! # pb-shard — sharded dataset execution with mergeable counting
//!
//! A registered dataset used to be one [`TransactionDb`](pb_fim::TransactionDb) plus one
//! [`VerticalIndex`](pb_fim::VerticalIndex): one index allocation that caps every dataset
//! at one machine's memory and leaves multi-core boxes idle above the per-query level.
//! This crate partitions the *rows* instead of the queries:
//!
//! * [`ShardPlan`] — a deterministic assignment of rows to `S` contiguous shards,
//!   recorded so a durable registry rebuilds the identical layout after a restart,
//! * [`ShardedDb`] — the partitioned dataset: one shared `TransactionDb` store, held
//!   once, cut into row ranges ([`RowRange`], a view, never a copy). Each shard counts
//!   on a lazily built `VerticalIndex` over its range (or on a worker process, when
//!   placed remotely). Fan-out/merge implementations cover every counting
//!   primitive the PrivBasis pipeline touches (item supports, candidate supports, pair
//!   counts, `BasisFreq` bin histograms, and the θ anchor via `pb-fim`'s best-first
//!   top-`k` walk over shard-merged counts).
//!   Each count op fans out one leg per shard on the process-wide counting pool
//!   ([`pb_fim::pool`]), within the workspace thread budget, and collects the results
//!   in shard order so merges never depend on scheduling.
//!
//! ## Why the merge is exact
//!
//! Every merged quantity is a count of transactions with some property, and the shards
//! partition the transactions: each transaction contributes to exactly one shard's
//! count. The global count is therefore the *sum* of per-shard counts — integer sums,
//! immune to reassociation — so a `ShardedDb` returns bit-identical numbers to an
//! unsharded scan for any shard count and any thread count. That exactness is what lets
//! the privacy layer above (`pb-core`) add its Laplace noise **once, after the merge**,
//! in the same fixed order as the unsharded engine: per the PrivBasis analysis, the bin
//! histograms of disjoint row shards sum to the whole database's histograms, and noising
//! the merged histogram is exactly what Algorithm 1 prescribes. (LDP-style systems such
//! as LDP-FPMiner exploit the same add-noise-after-aggregation structure when combining
//! per-client sketches.) Noise is never drawn per shard — that would both waste budget
//! and change the released bytes.
//!
//! This crate is deliberately privacy-free: it only counts. The noise, budget split, and
//! selection mechanisms all live in `pb-core`/`pb-dp`, which consume these merges
//! through `QueryContext`: every served dataset is a `ShardedDb`, and an unsharded
//! one is simply a single shard.
//!
//! ## Quick example
//!
//! ```
//! use pb_fim::{ItemSet, TransactionDb, VerticalIndex};
//! use pb_shard::ShardedDb;
//!
//! let db = TransactionDb::from_transactions(vec![
//!     vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2],
//! ]);
//! let sharded = ShardedDb::partition(&db, 3);
//! let basis = ItemSet::new(vec![0, 1]);
//! // Merged histograms equal the unsharded kernel bit for bit.
//! assert_eq!(
//!     sharded.bin_histograms(std::slice::from_ref(&basis))[0],
//!     VerticalIndex::build(&db).bin_histogram(&basis),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mine;
pub mod plan;
pub mod remote;
pub mod sharded;

pub use plan::ShardPlan;
pub use remote::{
    Fabric, FabricObserver, RemoteShard, ShardBackend, WorkerStats, DEFAULT_HEDGE_AFTER,
};
pub use sharded::{RowRange, Shard, ShardedDb};
