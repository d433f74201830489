//! # pb-service — a concurrent PrivBasis dataset-serving layer
//!
//! The library crates answer one-shot invocations; this crate turns them into a serving
//! system. A [`DatasetRegistry`] holds named [`TransactionDb`](pb_fim::TransactionDb)s,
//! each registered from one [`RegisterSpec`] (name, rows or file, shard layout, worker
//! placement, and central budget or LDP channel) and each with:
//!
//! * a **cached [`QueryContext`](pb_core::QueryContext)** behind `Arc`, built on first
//!   use and reused by every later query: the full
//!   [`VerticalIndex`](pb_fim::VerticalIndex) plus the memoized deterministic
//!   precomputation (item ranking, θ counts), fed to
//!   [`PrivBasis::run_shared`](pb_core::PrivBasis::run_shared) so per-query index builds
//!   and the θ mining pass disappear from the hot path — measured by the
//!   `service/cached_vs_cold_index` benchmark),
//! * a **privacy-budget ledger** ([`pb_dp::BudgetLedger`]): every top-`k` query debits
//!   its ε atomically before any mechanism runs, and an exhausted dataset rejects all
//!   further queries — sequential composition enforced at the serving layer, under any
//!   interleaving of client threads,
//! * optional **durability** ([`persist`], enabled by
//!   [`DatasetRegistry::with_persistence`] / `privbasis-cli serve --state-dir`): debits
//!   are journaled and made durable *before* the ε is released (staged inside the
//!   ledger critical section, group-committed outside it so concurrent debits share
//!   one fsync), membership lives in a manifest behind an exclusive state-dir lock,
//!   and a restarted — or `kill -9`ed — server recovers datasets, spent ε, and query
//!   counters exactly. Spent budget is the DP guarantee; it never resets with the
//!   process,
//! * optional **sharding** ([`RegisterSpec::shards`], CLI `--shards`):
//!   rows are partitioned across `pb_shard::ShardedDb` shards, counting fans out and
//!   merges by summation, and — because noise is drawn once on the merged counts —
//!   pinned-seed releases are byte-identical for any shard count. The layout is
//!   recorded in the manifest and restored on recovery.
//!
//! [`PbServer`] exposes the registry over `std::net::TcpListener` with a fixed worker
//! pool (sized by the `PB_NUM_THREADS` convention shared with `pb-fim`), speaking the
//! versioned [`pb_proto`] wire protocol: newline-delimited JSON, legacy v1 lines and v2
//! envelopes side by side. v2 adds **hot admin ops** — `register`, `unregister`,
//! `reshard` — gated by a bearer token ([`ServiceConfig::admin_token`]) and recorded in
//! the durable manifest, so a dataset registered over the wire survives `kill -9`. An
//! optional **HTTP/1.1 gateway** ([`http`], [`ServiceConfig::http_port`]) maps
//! `POST /v1/query`, `GET /v1/status`, and `POST /v1/admin/*` onto the same op handlers
//! and serves Prometheus text metrics at `GET /metrics` — three transports, one
//! behaviour, byte-identical pinned-seed releases.
//!
//! ## In-process quick example
//!
//! ```
//! use pb_service::{DatasetRegistry, PbServer, ServiceConfig};
//! use pb_dp::Epsilon;
//! use pb_fim::TransactionDb;
//! use pb_proto::PbClient;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(DatasetRegistry::new());
//! registry
//!     .register(
//!         "toy",
//!         TransactionDb::from_transactions(vec![vec![1, 2], vec![1, 2, 3], vec![2, 3]]),
//!         Epsilon::Finite(10.0),
//!     )
//!     .unwrap();
//! let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), ServiceConfig::default())
//!     .unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = PbClient::connect(addr).unwrap();
//! let reply = client.query("toy", 2, 1.0, Some(7)).unwrap();
//! assert_eq!(reply.dataset, "toy");
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit_log;
pub mod http;
pub mod persist;
pub mod protocol;
pub mod registry;
pub mod server;
pub(crate) mod telemetry;
pub(crate) mod worker;

// The JSON tree moved into `pb-proto` (the protocol crate is the single owner of the
// wire format); these aliases keep the original `pb_service::json::Json` paths working.
pub use pb_proto::json;
pub use pb_proto::{Json, JsonError};

pub use persist::{
    DebitJournal, GroupFlush, JournalStats, LedgerState, Manifest, ManifestEntry, StateDir,
};
pub use protocol::{QueryRequest, MAX_QUERY_K};
pub use registry::{
    DataSource, DatasetEntry, DatasetRegistry, Mode, RegisterSpec, RegistryError, SetupPhases,
};
pub use server::{PbServer, ServiceConfig};
