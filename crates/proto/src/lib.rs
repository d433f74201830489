//! # pb-proto — the versioned, typed wire protocol of the PrivBasis serving layer
//!
//! This crate is the single source of truth for what travels between a PrivBasis server
//! and its clients: the JSON encoding ([`json`]), the one-write line framing
//! ([`frame`]), the request envelope and operation model ([`message`]), the exhaustive
//! error-code table ([`error`]), and a typed blocking client ([`client`]). It is std-only and dependency-free, so anything — the
//! server, test harnesses, operator tooling — can embed it without pulling the mining
//! engine along.
//!
//! ## Versions
//!
//! * **v1 (legacy)** — newline-delimited JSON without an envelope, three ops
//!   (`query`/`status`/`shutdown`), string errors. Frozen: v1 lines keep parsing and
//!   their response bytes never change.
//! * **v2 (current)** — an [`Envelope`] (`v`, `id`, optional `auth` bearer token)
//!   around an exhaustive [`Op`] enum that adds hot admin operations
//!   (`register`/`unregister`/`reshard`), structured [`ErrorCode`]s, and server
//!   metadata in `status`. Every type encodes→parses to an equal value
//!   (property-tested), so server and client share one round-trippable surface.
//!
//! The pinned-seed *release bytes* (`"itemsets":[…]`) are identical across v1, v2, and
//! the HTTP gateway — versioning wraps the payload, it never perturbs it.
//!
//! ## One streaming encoder
//!
//! Every response — query releases, status, admin acknowledgements, and the shard
//! worker's `shard_histograms`/`shard_counts` replies — goes out through one encoder,
//! [`Response::encode`]. It writes straight into one `String` sized up front, with the
//! number and string rules of [`json`] (integral values below 1e15 as integers, other
//! numbers in shortest round-trip form, non-finite numbers as `null`; a string with
//! nothing to escape copied in one piece). No [`Json`] tree and no per-field key
//! `String` is built. The `Json` tree remains the parser's output and the request
//! encoder's input; its writer shares the same rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod frame;
pub mod json;
pub mod message;

pub use client::{ClientError, PbClient, RetryPolicy, DEFAULT_READ_TIMEOUT};
pub use error::{ErrorCode, WireError, ALL_ERROR_CODES};
pub use frame::write_line;
pub use json::{Json, JsonError};
pub use message::{
    AdminReply, AuditSummary, DatasetStatus, Envelope, JournalMetrics, LdpParams, Op, ParseFailure,
    ParsedResponse, PerturbRequest, QueryReply, QueryRequest, RegisterLdpRequest, RegisterRequest,
    RegisterSource, ReleasedItemset, Response, ServerInfo, StatusReply, MAX_BASIS_WIDTH,
    MAX_QUERY_K, MAX_SHARDS, PROTOCOL_VERSION,
};
