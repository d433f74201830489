//! The typed wire model: request envelopes, operations, and responses.
//!
//! One JSON object per line (TCP) or per HTTP body. Two request shapes share one
//! parser:
//!
//! * **v1 (legacy)** — no `v` field: `{"op":"query","dataset":"retail","k":10,
//!   "epsilon":0.5}`. Only `query`, `status`, and `shutdown` exist at v1, and v1
//!   responses reproduce the pre-envelope bytes exactly (no `v`, `id`, or `code`
//!   fields) so old clients keep working unchanged.
//! * **v2 (envelope)** — `{"v":2,"id":"q-1","op":...}` plus an optional `"auth"`
//!   bearer token. v2 adds the admin ops (`register`, `unregister`, `reshard`),
//!   structured [`ErrorCode`]s on failures, and server metadata in `status`.
//!
//! Every request and response type encodes to JSON and parses back to an equal value
//! (property-tested), so the same surface serves the server, the typed
//! [`PbClient`](crate::client::PbClient), and golden byte-identity tests.

use crate::error::{ErrorCode, WireError};
use crate::json::{push_array, push_counts, Json, ObjectWriter};

/// The newest protocol version this crate speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest `k` a query may request (the paper's experiments use k ≤ 400; the cap bounds
/// the non-private θ mining a hostile k would otherwise blow up).
pub const MAX_QUERY_K: usize = 4096;

/// Largest shard count an admin op may request (far above any useful layout; bounds the
/// per-shard allocation fan-out a hostile request could demand).
pub const MAX_SHARDS: usize = 4096;

/// Largest basis an individual `shard_histograms` op may name: a basis of `w` items
/// produces a `2^w`-bin histogram, so an unbounded width would let one request demand
/// an exponential allocation. The paper's bases stay below 16 items.
pub const MAX_BASIS_WIDTH: usize = 20;

/// The parameters of a `query` op.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Registered dataset name.
    pub dataset: String,
    /// Number of itemsets to publish.
    pub k: usize,
    /// ε to spend on this query (debited from the dataset's ledger).
    pub epsilon: f64,
    /// RNG seed; `None` lets the server pick a distinct one.
    pub seed: Option<u64>,
}

/// Where a hot-registered dataset's rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum RegisterSource {
    /// A FIMI-format file readable by the *server* (recorded in the durable manifest,
    /// so the dataset survives restarts).
    Path(String),
    /// Rows shipped inline in the request (not reloadable after a restart; recovery
    /// reports such datasets as skipped).
    Rows(Vec<Vec<u32>>),
}

/// The parameters of a `register` admin op.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterRequest {
    /// Name to register the dataset under.
    pub name: String,
    /// The rows: a server-side file path or inline rows.
    pub source: RegisterSource,
    /// Lifetime ε budget; `None` (wire `null`) disables accounting.
    pub budget: Option<f64>,
    /// Row-shard layout; `None` keeps the manifest's recorded layout (or 1 for a new
    /// name).
    pub shards: Option<usize>,
}

/// The LDP channel triple of a `mode: ldp` dataset — what clients need to perturb and
/// the server needs to debias. `epsilon_local = f64::INFINITY` (wire `null`) is the
/// identity channel used by round-trip tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdpParams {
    /// Total per-transaction local budget ε_local (`f64::INFINITY` travels as `null`).
    pub epsilon_local: f64,
    /// Item universe size `K` (real items are `0..K`).
    pub universe: u32,
    /// Fixed report length `L` (transactions are padded/truncated to `L` slots).
    pub pad: u64,
}

/// The parameters of a `register_ldp` admin op: rows (or a server-side file) that are
/// **already perturbed** client-side, plus the channel they were perturbed with.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterLdpRequest {
    /// Name to register the dataset under.
    pub name: String,
    /// The perturbed reports: a server-side file path or inline rows.
    pub source: RegisterSource,
    /// The channel the reports came through (recorded in the durable manifest).
    pub params: LdpParams,
    /// Row-shard layout; `None` keeps the manifest's recorded layout (or 1 for a new
    /// name).
    pub shards: Option<usize>,
}

/// The parameters of a `perturb` op: raw rows to push through the named LDP dataset's
/// registered channel. A convenience endpoint for trusted sidecars — a true LDP client
/// perturbs locally (`pb-ldp`) and never ships raw rows anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbRequest {
    /// The `mode: ldp` dataset whose channel parameters to use.
    pub dataset: String,
    /// The raw transactions.
    pub rows: Vec<Vec<u32>>,
    /// RNG seed; `None` lets the server pick one (echoed in the reply).
    pub seed: Option<u64>,
}

/// One parsed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A top-`k` query against one dataset.
    Query(QueryRequest),
    /// Service and ledger introspection.
    Status,
    /// Graceful server shutdown.
    Shutdown,
    /// Hot-register a dataset (admin; v2 only).
    Register(RegisterRequest),
    /// Remove a dataset from serving; its durable ledger stays on disk (admin; v2 only).
    Unregister {
        /// Dataset to remove.
        name: String,
    },
    /// Re-partition a live dataset's rows (admin; v2 only). Releases are byte-identical
    /// for any shard count, so this is a free operational knob.
    Reshard {
        /// Dataset to re-partition.
        name: String,
        /// New shard count (≥ 1).
        shards: usize,
    },
    /// Arm (or, with an empty spec, disarm) deterministic fault-injection plans
    /// (admin; v2 only). Only honoured by servers built with the `fault-inject`
    /// feature — others refuse with an `unavailable` code.
    Faults {
        /// A `pb-fault` plan spec (e.g. `journal.fsync=fail-once`); empty clears.
        spec: String,
    },
    /// Fetch the recorded span tree of a recent request by its correlation id
    /// (v2 only). Traces live in a bounded in-memory ring, so a hit is
    /// best-effort: old traces are evicted by new traffic.
    Trace {
        /// The trace id — the request's envelope `id` (client-supplied or
        /// server-assigned; query replies echo server-assigned ids).
        id: String,
    },
    /// Register a dataset of client-perturbed reports with its LDP channel parameters
    /// (admin; v2 only). Queries against it mine debiased supports and never touch a
    /// budget ledger — the privacy was spent at the clients.
    RegisterLdp(RegisterLdpRequest),
    /// Push raw rows through a registered LDP dataset's channel (v2 only; refused with
    /// `mode_mismatch` against central datasets).
    Perturb(PerturbRequest),
    /// Set the journal snapshot-compaction cadence for every durable dataset
    /// (admin; v2 only). Crash-safe: the cadence is recorded in the manifest.
    SnapshotEvery {
        /// Compact after this many journal records (≥ 1).
        every: u64,
    },
    /// Toggle the consistency post-processing pass for one dataset (admin; v2 only).
    /// Crash-safe: the toggle is recorded in the manifest.
    Consistency {
        /// Dataset to toggle.
        name: String,
        /// Whether queries run the consistency repair.
        enabled: bool,
    },
    /// Seed (or re-seed) a shard on a worker (v2 only; served only by `shard-worker`
    /// processes). Rows arrive in chunks bounded by the request-line cap; the final
    /// chunk carries `seal: true`, after which the shard serves count ops.
    ShardLoad {
        /// Shard identity on the worker (coordinator-chosen, e.g. `dataset/3`).
        key: String,
        /// This chunk's rows, appended in order.
        rows: Vec<Vec<u32>>,
        /// Drop any rows already held under `key` before appending (first chunk).
        reset: bool,
        /// Finish loading: build the shard and start serving count ops for it.
        seal: bool,
    },
    /// Exact shard-local support counts for a batch of itemsets (v2, worker only).
    /// Also the θ-anchor probe op: the coordinator's lattice walk sends candidate
    /// itemsets here one batch at a time.
    ShardSupports {
        /// Shard to count against.
        key: String,
        /// The candidate itemsets.
        itemsets: Vec<Vec<u32>>,
    },
    /// Exact shard-local support counts of all unordered pairs over `items` with
    /// non-zero shard support (v2, worker only).
    ShardPairs {
        /// Shard to count against.
        key: String,
        /// Items whose pairs are counted.
        items: Vec<u32>,
    },
    /// Exact shard-local `BasisFreq` bin histograms, one `2^|B|`-bin histogram per
    /// basis (v2, worker only). The coordinator merges these by integer summation
    /// before its single noise draw.
    ShardHistograms {
        /// Shard to count against.
        key: String,
        /// The bases (each at most [`MAX_BASIS_WIDTH`] items).
        bases: Vec<Vec<u32>>,
    },
}

impl Op {
    /// The wire spelling of the op.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Query(_) => "query",
            Op::Status => "status",
            Op::Shutdown => "shutdown",
            Op::Register(_) => "register",
            Op::Unregister { .. } => "unregister",
            Op::Reshard { .. } => "reshard",
            Op::Faults { .. } => "faults",
            Op::RegisterLdp(_) => "register_ldp",
            Op::Perturb(_) => "perturb",
            Op::SnapshotEvery { .. } => "snapshot_every",
            Op::Consistency { .. } => "consistency",
            Op::Trace { .. } => "trace",
            Op::ShardLoad { .. } => "shard_load",
            Op::ShardSupports { .. } => "shard_supports",
            Op::ShardPairs { .. } => "shard_pairs",
            Op::ShardHistograms { .. } => "shard_histograms",
        }
    }

    /// True for the ops gated by the admin bearer token.
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Op::Register(_)
                | Op::Unregister { .. }
                | Op::Reshard { .. }
                | Op::Faults { .. }
                | Op::RegisterLdp(_)
                | Op::SnapshotEvery { .. }
                | Op::Consistency { .. }
        )
    }

    /// True for the shard-worker count ops, which only `shard-worker` processes serve
    /// (a coordinator refuses them with a structured `unavailable`).
    pub fn is_shard_op(&self) -> bool {
        matches!(
            self,
            Op::ShardLoad { .. }
                | Op::ShardSupports { .. }
                | Op::ShardPairs { .. }
                | Op::ShardHistograms { .. }
        )
    }
}

/// One request line: version, correlation id, optional bearer token, operation.
///
/// `v == 1` models a legacy line: no envelope fields on the wire, no id, no auth, and
/// only the three v1 ops. `v == 2` is the enveloped form.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Protocol version (1 = legacy line without envelope fields).
    pub v: u32,
    /// Client-chosen correlation id, echoed in the response (`None` on legacy lines).
    pub id: Option<String>,
    /// Bearer token for admin ops (`None` on legacy lines).
    pub auth: Option<String>,
    /// The operation.
    pub op: Op,
}

/// A parse failure, carrying whatever version/id could be salvaged so the server can
/// shape the error response correctly (legacy bytes for legacy lines, envelope for v2).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// Best-known protocol version of the offending line (1 when unknown).
    pub v: u32,
    /// The request id, when one was readable.
    pub id: Option<String>,
    /// What went wrong.
    pub error: WireError,
}

impl Envelope {
    /// Builds a v2 envelope around an op.
    pub fn v2(id: impl Into<String>, auth: Option<String>, op: Op) -> Envelope {
        Envelope {
            v: PROTOCOL_VERSION,
            id: Some(id.into()),
            auth,
            op,
        }
    }

    /// Builds a legacy (v1) line.
    pub fn legacy(op: Op) -> Envelope {
        Envelope {
            v: 1,
            id: None,
            auth: None,
            op,
        }
    }

    /// Parses one request line (either shape).
    pub fn parse(line: &str) -> Result<Envelope, ParseFailure> {
        let fail = |v: u32, id: Option<String>, error: WireError| ParseFailure { v, id, error };
        let value =
            Json::parse(line).map_err(|e| fail(1, None, WireError::malformed(e.to_string())))?;
        // Version: absent (or an explicit 1) means a legacy line — the v1 server
        // ignored unknown fields, so `{"v":1,...}` always parsed as legacy.
        let v = match value.get("v") {
            None => 1,
            Some(raw) => match raw.as_u64() {
                Some(1) => 1,
                Some(2) => 2,
                _ => {
                    let id = value.get("id").and_then(Json::as_str).map(str::to_string);
                    return Err(fail(
                        PROTOCOL_VERSION,
                        id,
                        WireError::malformed(format!(
                            "unsupported protocol version `{raw}` (this server speaks v1 and v2)"
                        )),
                    ));
                }
            },
        };
        let id = if v >= 2 {
            match value.get("id") {
                None | Some(Json::Null) => None,
                Some(raw) => match raw.as_str() {
                    Some(s) => Some(s.to_string()),
                    None => {
                        return Err(fail(v, None, WireError::malformed("`id` must be a string")))
                    }
                },
            }
        } else {
            None
        };
        let auth = if v >= 2 {
            match value.get("auth") {
                None | Some(Json::Null) => None,
                Some(raw) => match raw.as_str() {
                    Some(s) => Some(s.to_string()),
                    None => {
                        return Err(fail(v, id, WireError::malformed("`auth` must be a string")))
                    }
                },
            }
        } else {
            None
        };
        let op_name = value.get("op").and_then(Json::as_str).unwrap_or("query");
        let op = Op::parse_fields(op_name, &value, v).map_err(|e| fail(v, id.clone(), e))?;
        Ok(Envelope { v, id, auth, op })
    }

    /// Encodes the canonical line for this envelope ([`Envelope::parse`] inverts it).
    pub fn encode(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if self.v >= 2 {
            fields.push(("v".into(), Json::Number(self.v as f64)));
            if let Some(id) = &self.id {
                fields.push(("id".into(), Json::String(id.clone())));
            }
            if let Some(auth) = &self.auth {
                fields.push(("auth".into(), Json::String(auth.clone())));
            }
        }
        fields.push(("op".into(), Json::String(self.op.name().into())));
        self.op.append_fields(&mut fields);
        Json::Object(fields).to_string()
    }
}

impl Op {
    /// Parses the op-specific fields of a request object. `v` gates which ops exist:
    /// legacy lines only know `query`/`status`/`shutdown`, and their error messages are
    /// kept byte-identical to the v1 server's.
    pub fn parse_fields(name: &str, value: &Json, v: u32) -> Result<Op, WireError> {
        match name {
            "status" => Ok(Op::Status),
            "shutdown" => Ok(Op::Shutdown),
            "query" => Ok(Op::Query(QueryRequest::from_json(value)?)),
            "register" if v >= 2 => Ok(Op::Register(RegisterRequest::from_json(value)?)),
            "unregister" if v >= 2 => Ok(Op::Unregister {
                name: required_str(value, "name", "unregister")?,
            }),
            "reshard" if v >= 2 => Ok(Op::Reshard {
                name: required_str(value, "name", "reshard")?,
                shards: parse_shards(value)?.ok_or_else(|| {
                    WireError::malformed("reshard needs a positive integer `shards`")
                })?,
            }),
            "faults" if v >= 2 => Ok(Op::Faults {
                spec: match value.get("spec") {
                    None | Some(Json::Null) => String::new(),
                    Some(raw) => raw
                        .as_str()
                        .ok_or_else(|| WireError::malformed("`spec` must be a string"))?
                        .to_string(),
                },
            }),
            "register_ldp" if v >= 2 => Ok(Op::RegisterLdp(RegisterLdpRequest::from_json(value)?)),
            "perturb" if v >= 2 => Ok(Op::Perturb(PerturbRequest::from_json(value)?)),
            "snapshot_every" if v >= 2 => Ok(Op::SnapshotEvery {
                every: value
                    .get("every")
                    .and_then(Json::as_u64)
                    .filter(|&e| e >= 1)
                    .ok_or_else(|| {
                        WireError::malformed("snapshot_every needs a positive integer `every`")
                    })?,
            }),
            "consistency" if v >= 2 => Ok(Op::Consistency {
                name: required_str(value, "name", "consistency")?,
                enabled: value
                    .get("enabled")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| WireError::malformed("consistency needs a boolean `enabled`"))?,
            }),
            "trace" if v >= 2 => Ok(Op::Trace {
                id: required_str(value, "trace_id", "trace")?,
            }),
            "shard_load" if v >= 2 => Ok(Op::ShardLoad {
                key: required_str(value, "key", "shard_load")?,
                rows: match value.get("rows") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(raw) => parse_u32_rows(raw, "rows")?,
                },
                reset: parse_flag(value, "reset")?,
                seal: parse_flag(value, "seal")?,
            }),
            "shard_supports" if v >= 2 => Ok(Op::ShardSupports {
                key: required_str(value, "key", "shard_supports")?,
                itemsets: parse_u32_rows(
                    value.get("itemsets").ok_or_else(|| {
                        WireError::malformed("shard_supports needs an `itemsets` array")
                    })?,
                    "itemsets",
                )?,
            }),
            "shard_pairs" if v >= 2 => Ok(Op::ShardPairs {
                key: required_str(value, "key", "shard_pairs")?,
                items: parse_u32_row(
                    value.get("items").ok_or_else(|| {
                        WireError::malformed("shard_pairs needs an `items` array")
                    })?,
                    "items",
                )?,
            }),
            "shard_histograms" if v >= 2 => {
                let bases = parse_u32_rows(
                    value.get("bases").ok_or_else(|| {
                        WireError::malformed("shard_histograms needs a `bases` array")
                    })?,
                    "bases",
                )?;
                if let Some(wide) = bases.iter().find(|b| b.len() > MAX_BASIS_WIDTH) {
                    return Err(WireError::malformed(format!(
                        "a basis may have at most {MAX_BASIS_WIDTH} items \
                         (histograms are 2^|B| bins); got {}",
                        wide.len()
                    )));
                }
                Ok(Op::ShardHistograms {
                    key: required_str(value, "key", "shard_histograms")?,
                    bases,
                })
            }
            other => Err(WireError::new(
                ErrorCode::UnknownOp,
                if v >= 2 {
                    format!(
                        "unknown op `{other}` (expected query, status, shutdown, trace, \
                         perturb, register, register_ldp, unregister, reshard, faults, \
                         snapshot_every, consistency, or the shard_* worker ops)"
                    )
                } else {
                    // Exact v1 bytes, including for admin ops a legacy line cannot use.
                    format!("unknown op `{other}` (expected query, status, or shutdown)")
                },
            )),
        }
    }

    /// Appends the op-specific fields to a request object under construction.
    fn append_fields(&self, fields: &mut Vec<(String, Json)>) {
        match self {
            Op::Status | Op::Shutdown => {}
            Op::Query(q) => {
                fields.push(("dataset".into(), Json::String(q.dataset.clone())));
                fields.push(("k".into(), Json::Number(q.k as f64)));
                fields.push(("epsilon".into(), Json::Number(q.epsilon)));
                if let Some(seed) = q.seed {
                    fields.push(("seed".into(), Json::Number(seed as f64)));
                }
            }
            Op::Register(r) => {
                fields.push(("name".into(), Json::String(r.name.clone())));
                match &r.source {
                    RegisterSource::Path(p) => {
                        fields.push(("path".into(), Json::String(p.clone())));
                    }
                    RegisterSource::Rows(rows) => {
                        let rows = rows
                            .iter()
                            .map(|row| {
                                Json::Array(row.iter().map(|&i| Json::Number(i as f64)).collect())
                            })
                            .collect();
                        fields.push(("rows".into(), Json::Array(rows)));
                    }
                }
                fields.push((
                    "budget".into(),
                    match r.budget {
                        Some(e) => Json::Number(e),
                        None => Json::Null,
                    },
                ));
                if let Some(shards) = r.shards {
                    fields.push(("shards".into(), Json::Number(shards as f64)));
                }
            }
            Op::Unregister { name } => {
                fields.push(("name".into(), Json::String(name.clone())));
            }
            Op::Reshard { name, shards } => {
                fields.push(("name".into(), Json::String(name.clone())));
                fields.push(("shards".into(), Json::Number(*shards as f64)));
            }
            Op::Faults { spec } => {
                fields.push(("spec".into(), Json::String(spec.clone())));
            }
            Op::RegisterLdp(r) => {
                fields.push(("name".into(), Json::String(r.name.clone())));
                match &r.source {
                    RegisterSource::Path(p) => {
                        fields.push(("path".into(), Json::String(p.clone())));
                    }
                    RegisterSource::Rows(rows) => {
                        fields.push(("rows".into(), u32_rows_json(rows)));
                    }
                }
                // ε_local = ∞ (the identity channel) encodes as null, like budgets.
                fields.push(("epsilon_local".into(), Json::Number(r.params.epsilon_local)));
                fields.push(("universe".into(), Json::Number(r.params.universe as f64)));
                fields.push(("pad".into(), Json::Number(r.params.pad as f64)));
                if let Some(shards) = r.shards {
                    fields.push(("shards".into(), Json::Number(shards as f64)));
                }
            }
            Op::Perturb(p) => {
                fields.push(("dataset".into(), Json::String(p.dataset.clone())));
                fields.push(("rows".into(), u32_rows_json(&p.rows)));
                if let Some(seed) = p.seed {
                    fields.push(("seed".into(), Json::Number(seed as f64)));
                }
            }
            Op::SnapshotEvery { every } => {
                fields.push(("every".into(), Json::Number(*every as f64)));
            }
            Op::Consistency { name, enabled } => {
                fields.push(("name".into(), Json::String(name.clone())));
                fields.push(("enabled".into(), Json::Bool(*enabled)));
            }
            Op::Trace { id } => {
                fields.push(("trace_id".into(), Json::String(id.clone())));
            }
            Op::ShardLoad {
                key,
                rows,
                reset,
                seal,
            } => {
                fields.push(("key".into(), Json::String(key.clone())));
                fields.push(("rows".into(), u32_rows_json(rows)));
                if *reset {
                    fields.push(("reset".into(), Json::Bool(true)));
                }
                if *seal {
                    fields.push(("seal".into(), Json::Bool(true)));
                }
            }
            Op::ShardSupports { key, itemsets } => {
                fields.push(("key".into(), Json::String(key.clone())));
                fields.push(("itemsets".into(), u32_rows_json(itemsets)));
            }
            Op::ShardPairs { key, items } => {
                fields.push(("key".into(), Json::String(key.clone())));
                fields.push((
                    "items".into(),
                    Json::Array(items.iter().map(|&i| Json::Number(i as f64)).collect()),
                ));
            }
            Op::ShardHistograms { key, bases } => {
                fields.push(("key".into(), Json::String(key.clone())));
                fields.push(("bases".into(), u32_rows_json(bases)));
            }
        }
    }
}

fn required_str(value: &Json, key: &str, op: &str) -> Result<String, WireError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::malformed(format!("{op} needs a `{key}` string")))
}

/// A boolean field that is absent (or null) by default; anything but a bool is refused.
fn parse_flag(value: &Json, key: &str) -> Result<bool, WireError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(raw) => raw
            .as_bool()
            .ok_or_else(|| WireError::malformed(format!("`{key}` must be a boolean"))),
    }
}

/// One array of u32 items (`[1,2,3]`).
fn parse_u32_row(raw: &Json, key: &str) -> Result<Vec<u32>, WireError> {
    let items = raw
        .as_array()
        .ok_or_else(|| WireError::malformed(format!("`{key}` must be an array of arrays")))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let item = item
            .as_u64()
            .filter(|&i| i <= u32::MAX as u64)
            .ok_or_else(|| {
                WireError::malformed(format!("`{key}` items must be integers in the u32 range"))
            })?;
        out.push(item as u32);
    }
    Ok(out)
}

/// An array of u32 arrays (`[[1,2],[3]]`) — register rows, shard rows, itemset batches.
fn parse_u32_rows(raw: &Json, key: &str) -> Result<Vec<Vec<u32>>, WireError> {
    let rows = raw
        .as_array()
        .ok_or_else(|| WireError::malformed(format!("`{key}` must be an array of arrays")))?;
    rows.iter().map(|row| parse_u32_row(row, key)).collect()
}

fn u32_rows_json(rows: &[Vec<u32>]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| Json::Array(row.iter().map(|&i| Json::Number(i as f64)).collect()))
            .collect(),
    )
}

fn parse_shards(value: &Json) -> Result<Option<usize>, WireError> {
    match value.get("shards") {
        None | Some(Json::Null) => Ok(None),
        Some(raw) => {
            let shards = raw
                .as_u64()
                .filter(|&s| s >= 1 && s <= MAX_SHARDS as u64)
                .ok_or_else(|| {
                    WireError::malformed(format!(
                        "`shards` must be an integer between 1 and {MAX_SHARDS}"
                    ))
                })?;
            Ok(Some(shards as usize))
        }
    }
}

impl QueryRequest {
    /// Parses the query fields out of a request object. Validation happens here, at the
    /// protocol boundary, with structured codes — bad values never reach the mechanism
    /// layer. Messages are byte-identical to the v1 server's.
    pub fn from_json(value: &Json) -> Result<QueryRequest, WireError> {
        let dataset = value
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::malformed("query needs a `dataset` string"))?
            .to_string();
        let k = value
            .get("k")
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::malformed("query needs a positive integer `k`"))?
            as usize;
        if k == 0 {
            return Err(WireError::malformed("`k` must be at least 1"));
        }
        // θ estimation mines the top η·k itemsets; an unbounded k would let any client
        // drive that miner to enumerate essentially every itemset (and the ε debit
        // happens first, so the attempt also burns budget). The paper's experiments use
        // k ≤ 400.
        if k > MAX_QUERY_K {
            return Err(WireError::malformed(format!(
                "`k` must be at most {MAX_QUERY_K}"
            )));
        }
        let epsilon = value
            .get("epsilon")
            .and_then(Json::as_f64)
            .ok_or_else(|| WireError::malformed("query needs a number `epsilon`"))?;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(WireError::malformed(
                "`epsilon` must be a positive finite number",
            ));
        }
        let seed = match value.get("seed") {
            None | Some(Json::Null) => None,
            Some(raw) => {
                let seed = raw
                    .as_u64()
                    .ok_or_else(|| WireError::malformed("`seed` must be a non-negative integer"))?;
                // JSON numbers travel as doubles: above 2^53 the client's digits
                // silently round, so the echoed seed would not reproduce the release
                // the client thinks it pinned. Reject rather than round.
                if seed > (1u64 << 53) {
                    return Err(WireError::malformed(
                        "`seed` must be at most 2^53 (JSON numbers are doubles; larger seeds would be silently rounded)",
                    ));
                }
                Some(seed)
            }
        };
        Ok(QueryRequest {
            dataset,
            k,
            epsilon,
            seed,
        })
    }
}

impl RegisterRequest {
    /// Parses the register fields out of a request object.
    pub fn from_json(value: &Json) -> Result<RegisterRequest, WireError> {
        let name = required_str(value, "name", "register")?;
        let source = match (value.get("path"), value.get("rows")) {
            (Some(_), Some(_)) => {
                return Err(WireError::malformed(
                    "register takes `path` or `rows`, not both",
                ))
            }
            (Some(raw), None) => RegisterSource::Path(
                raw.as_str()
                    .ok_or_else(|| WireError::malformed("`path` must be a string"))?
                    .to_string(),
            ),
            (None, Some(raw)) => RegisterSource::Rows(parse_u32_rows(raw, "rows")?),
            (None, None) => {
                return Err(WireError::malformed(
                    "register needs a `path` string or inline `rows`",
                ))
            }
        };
        let budget = match value.get("budget") {
            None => {
                return Err(WireError::malformed(
                    "register needs a `budget` number (or null for an unaccounted ledger)",
                ))
            }
            Some(Json::Null) => None,
            Some(raw) => {
                let budget = raw
                    .as_f64()
                    .filter(|e| e.is_finite() && *e > 0.0)
                    .ok_or_else(|| {
                        WireError::malformed("`budget` must be a positive finite number or null")
                    })?;
                Some(budget)
            }
        };
        let shards = parse_shards(value)?;
        Ok(RegisterRequest {
            name,
            source,
            budget,
            shards,
        })
    }
}

impl LdpParams {
    /// Parses the channel triple out of a `register_ldp` request object. Validation
    /// happens here, at the protocol boundary: ε_local positive (or null = identity),
    /// `universe` a non-zero u32, `pad` in `1..=` [`pb_ldp::MAX_PAD_LEN`].
    pub fn from_json(value: &Json) -> Result<LdpParams, WireError> {
        let epsilon_local = match value.get("epsilon_local") {
            None => return Err(WireError::malformed(
                "register_ldp needs an `epsilon_local` number (or null for the identity channel)",
            )),
            Some(Json::Null) => f64::INFINITY,
            Some(raw) => raw
                .as_f64()
                .filter(|e| e.is_finite() && *e > 0.0)
                .ok_or_else(|| {
                    WireError::malformed("`epsilon_local` must be a positive finite number or null")
                })?,
        };
        let universe = value
            .get("universe")
            .and_then(Json::as_u64)
            .filter(|&u| u >= 1 && u <= u32::MAX as u64)
            .ok_or_else(|| {
                WireError::malformed("register_ldp needs a positive integer `universe` (u32 range)")
            })? as u32;
        let pad = value
            .get("pad")
            .and_then(Json::as_u64)
            .filter(|&p| p >= 1 && p <= pb_ldp::MAX_PAD_LEN as u64)
            .ok_or_else(|| {
                WireError::malformed(format!(
                    "register_ldp needs a `pad` length between 1 and {}",
                    pb_ldp::MAX_PAD_LEN
                ))
            })?;
        Ok(LdpParams {
            epsilon_local,
            universe,
            pad,
        })
    }
}

impl RegisterLdpRequest {
    /// Parses the register_ldp fields out of a request object.
    pub fn from_json(value: &Json) -> Result<RegisterLdpRequest, WireError> {
        let name = required_str(value, "name", "register_ldp")?;
        let source = match (value.get("path"), value.get("rows")) {
            (Some(_), Some(_)) => {
                return Err(WireError::malformed(
                    "register_ldp takes `path` or `rows`, not both",
                ))
            }
            (Some(raw), None) => RegisterSource::Path(
                raw.as_str()
                    .ok_or_else(|| WireError::malformed("`path` must be a string"))?
                    .to_string(),
            ),
            (None, Some(raw)) => RegisterSource::Rows(parse_u32_rows(raw, "rows")?),
            (None, None) => {
                return Err(WireError::malformed(
                    "register_ldp needs a `path` string or inline `rows`",
                ))
            }
        };
        Ok(RegisterLdpRequest {
            name,
            source,
            params: LdpParams::from_json(value)?,
            shards: parse_shards(value)?,
        })
    }
}

impl PerturbRequest {
    /// Parses the perturb fields out of a request object.
    pub fn from_json(value: &Json) -> Result<PerturbRequest, WireError> {
        let dataset = required_str(value, "dataset", "perturb")?;
        let rows = parse_u32_rows(
            value
                .get("rows")
                .ok_or_else(|| WireError::malformed("perturb needs a `rows` array"))?,
            "rows",
        )?;
        let seed = match value.get("seed") {
            None | Some(Json::Null) => None,
            Some(raw) => {
                let seed = raw
                    .as_u64()
                    .ok_or_else(|| WireError::malformed("`seed` must be a non-negative integer"))?;
                if seed > (1u64 << 53) {
                    return Err(WireError::malformed(
                        "`seed` must be at most 2^53 (JSON numbers are doubles; larger seeds would be silently rounded)",
                    ));
                }
                Some(seed)
            }
        };
        Ok(PerturbRequest {
            dataset,
            rows,
            seed,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One published itemset with its noisy count.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleasedItemset {
    /// The items, ascending.
    pub items: Vec<u32>,
    /// The noisy support count.
    pub count: f64,
}

/// A successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Queried dataset.
    pub dataset: String,
    /// ε debited for this query.
    pub epsilon_spent: f64,
    /// ε remaining in the dataset's ledger (`f64::INFINITY` travels as `null`).
    pub remaining_budget: f64,
    /// The seed the release was drawn with (echoed or server-chosen).
    pub seed: u64,
    /// The effective λ of the release.
    pub lambda: u64,
    /// Number of candidate itemsets counted.
    pub candidate_count: u64,
    /// The published itemsets, descending by noisy count.
    pub itemsets: Vec<ReleasedItemset>,
}

/// Journal metrics of a durable dataset (mirrors `pb-service`'s journal stats without
/// depending on it — the protocol crate sits below the serving layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMetrics {
    /// Current journal file length in bytes.
    pub wal_bytes: u64,
    /// Records in the current journal file.
    pub wal_records: u64,
    /// Completed snapshot compactions over the journal handle's lifetime.
    pub snapshot_generation: u64,
}

/// One dataset's row inside a status response.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStatus {
    /// Registered name.
    pub name: String,
    /// Number of transactions.
    pub transactions: u64,
    /// Number of distinct items.
    pub items: u64,
    /// Whether the index structures have been built yet.
    pub index_cached: bool,
    /// Whether the ledger journals debits to a state directory.
    pub durable: bool,
    /// ε spent so far.
    pub spent: f64,
    /// ε remaining (`f64::INFINITY` travels as `null`).
    pub remaining: f64,
    /// Successfully answered queries.
    pub queries: u64,
    /// Row shards the dataset is counted over (1 = single index).
    pub shards: u64,
    /// The LDP channel of a `mode: ldp` dataset; `None` for central-mode datasets.
    /// Encoded on the wire (as `mode`/`epsilon_local`/`universe`/`pad`) only when
    /// present, so central rows keep their frozen bytes.
    pub ldp: Option<LdpParams>,
    /// Journal metrics (durable datasets only).
    pub journal: Option<JournalMetrics>,
    /// True when the dataset's journal has wedged and it serves in degraded
    /// read-only mode: status still answers, ε-spending queries are refused.
    /// Encoded on the wire only when true, so healthy rows keep their frozen bytes.
    pub degraded: bool,
}

/// Lifetime ε-audit tallies, replayed from the server's durable audit log. Unlike the
/// request counters beside them these survive a restart — they count what the audit
/// log has ever recorded, not what this process has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// Queries whose noisy itemsets were released (ε spent).
    pub released: u64,
    /// Queries refused before any release.
    pub refused: u64,
    /// Queries computed but discarded unreleased (fail-closed; no ε spent).
    pub failed_closed: u64,
}

/// Process-wide server metadata (v2 status responses only — v1 bytes are frozen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Newest protocol version the server speaks.
    pub protocol_version: u32,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Requests received across TCP and HTTP (metrics scrapes excluded).
    pub requests_total: u64,
    /// Requests answered with an error.
    pub rejected_total: u64,
    /// Connections refused at the door because the worker queue was saturated.
    pub shed_total: u64,
    /// Connections closed because a read/write deadline expired.
    pub deadline_closed_total: u64,
    /// Lifetime audit-log tallies. `None` on servers without an audit log; encoded
    /// on the wire only when present, so pre-audit v2 bytes are unchanged.
    pub audit: Option<AuditSummary>,
}

/// A status response.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReply {
    /// Server metadata; present on v2 responses, dropped from v1 encodings (their bytes
    /// are frozen).
    pub server: Option<ServerInfo>,
    /// Per-dataset rows, sorted by name.
    pub datasets: Vec<DatasetStatus>,
}

/// A successful admin-op acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminReply {
    /// `register` succeeded.
    Registered {
        /// Registered name.
        name: String,
        /// Row count of the registered data.
        transactions: u64,
        /// Shard layout it is served with.
        shards: u64,
        /// Whether the ledger is durable.
        durable: bool,
        /// ε already spent (non-zero when the name inherited a durable ledger).
        epsilon_spent: f64,
    },
    /// `unregister` succeeded.
    Unregistered {
        /// Removed name.
        name: String,
    },
    /// `reshard` succeeded.
    Resharded {
        /// Re-partitioned dataset.
        name: String,
        /// New shard count.
        shards: u64,
    },
    /// `faults` succeeded.
    FaultsArmed {
        /// The spec that was armed (empty = all plans cleared).
        spec: String,
        /// Number of plans the spec added (0 for a clear).
        armed: u64,
    },
    /// `register_ldp` succeeded.
    RegisteredLdp {
        /// Registered name.
        name: String,
        /// Number of perturbed reports registered.
        transactions: u64,
        /// Shard layout it is served with.
        shards: u64,
        /// The channel the reports came through (echoed from the manifest).
        params: LdpParams,
    },
    /// `snapshot_every` succeeded.
    SnapshotEvery {
        /// The new snapshot-compaction cadence.
        every: u64,
    },
    /// `consistency` succeeded.
    Consistency {
        /// The toggled dataset.
        name: String,
        /// The new setting.
        enabled: bool,
    },
}

/// Any response the server can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A query release.
    Query(QueryReply),
    /// A status report.
    Status(StatusReply),
    /// The shutdown acknowledgement.
    Shutdown,
    /// An admin-op acknowledgement.
    Admin(AdminReply),
    /// A `shard_load` acknowledgement: the shard key and the rows now held under it.
    ShardLoaded {
        /// The shard key.
        key: String,
        /// Total rows held under the key after this chunk.
        rows: u64,
    },
    /// Shard-local counts for a `shard_supports` or `shard_pairs` op. Supports arrive
    /// in request order; pair counts arrive as one count per pair `(items[i],
    /// items[j])` with `i < j` in request order, zeros included — positional identity
    /// is what lets the coordinator merge shards whose non-zero pair sets differ.
    ShardCounts(Vec<u64>),
    /// Shard-local bin histograms for a `shard_histograms` op, one `2^|B|`-bin
    /// histogram per requested basis, in request order.
    ShardHistograms(Vec<Vec<u64>>),
    /// A recorded request trace (the `trace` op payload).
    Trace(pb_trace::Trace),
    /// Perturbed rows from a `perturb` op, with the seed that drew them.
    Perturbed {
        /// The perturbed reports, in request order.
        rows: Vec<Vec<u32>>,
        /// The seed the perturbation was drawn with (echoed or server-chosen).
        seed: u64,
    },
    /// A structured failure.
    Error(WireError),
}

/// A decoded response line: the envelope fields plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResponse {
    /// Protocol version of the response (1 when no `v` field was present).
    pub v: u32,
    /// Echoed correlation id, when any.
    pub id: Option<String>,
    /// The payload.
    pub response: Response,
}

impl Response {
    /// True for error responses (the server's rejected-counter predicate).
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }

    /// Encodes the response for protocol version `v`, echoing `id`.
    ///
    /// v1 encodings reproduce the pre-envelope wire bytes exactly: no `v`/`id`/`code`
    /// fields, no server metadata in `status`. That frozen shape *is* the back-compat
    /// guarantee old clients rely on.
    ///
    /// Every arm streams into one `String`, sized up front from the payload, with the
    /// number and string rules of [`Json`]'s writer; no JSON tree is built.
    pub fn encode(&self, v: u32, id: Option<&str>) -> String {
        let mut out = String::with_capacity(self.encoded_size_hint(id));
        let mut w = ObjectWriter::new(&mut out);
        if v >= 2 {
            w.count("v", PROTOCOL_VERSION as u64);
            match id {
                Some(id) => w.string("id", id),
                None => w.key("id").push_str("null"),
            }
        }
        match self {
            Response::Error(e) => {
                w.string("status", "error");
                if v >= 2 {
                    w.string("code", e.code.as_str());
                }
                w.string("error", &e.message);
            }
            Response::Shutdown => {
                w.string("status", "ok");
                w.bool("shutting_down", true);
            }
            Response::Query(q) => {
                w.string("status", "ok");
                w.string("dataset", &q.dataset);
                w.number("epsilon_spent", q.epsilon_spent);
                w.number("remaining_budget", q.remaining_budget);
                w.count("seed", q.seed);
                w.count("lambda", q.lambda);
                w.count("candidate_count", q.candidate_count);
                push_array(w.key("itemsets"), &q.itemsets, |out, row| {
                    let mut obj = ObjectWriter::new(out);
                    push_counts(obj.key("items"), row.items.iter().map(|&i| u64::from(i)));
                    obj.number("count", row.count);
                    obj.finish();
                });
            }
            Response::Status(s) => {
                w.string("status", "ok");
                if v >= 2 {
                    let info = s.server.unwrap_or(ServerInfo {
                        protocol_version: PROTOCOL_VERSION,
                        uptime_secs: 0,
                        requests_total: 0,
                        rejected_total: 0,
                        shed_total: 0,
                        deadline_closed_total: 0,
                        audit: None,
                    });
                    w.count("protocol_version", info.protocol_version as u64);
                    w.count("uptime_secs", info.uptime_secs);
                    w.count("requests_total", info.requests_total);
                    w.count("rejected_total", info.rejected_total);
                    w.count("shed_total", info.shed_total);
                    w.count("deadline_closed_total", info.deadline_closed_total);
                    if let Some(audit) = info.audit {
                        w.count("audit_released", audit.released);
                        w.count("audit_refused", audit.refused);
                        w.count("audit_failed_closed", audit.failed_closed);
                    }
                }
                push_array(w.key("datasets"), &s.datasets, push_dataset_status);
            }
            Response::Admin(a) => {
                w.string("status", "ok");
                match a {
                    AdminReply::Registered {
                        name,
                        transactions,
                        shards,
                        durable,
                        epsilon_spent,
                    } => {
                        w.string("registered", name);
                        w.count("transactions", *transactions);
                        w.count("shards", *shards);
                        w.bool("durable", *durable);
                        w.number("epsilon_spent", *epsilon_spent);
                    }
                    AdminReply::Unregistered { name } => w.string("unregistered", name),
                    AdminReply::Resharded { name, shards } => {
                        w.string("resharded", name);
                        w.count("shards", *shards);
                    }
                    AdminReply::FaultsArmed { spec, armed } => {
                        w.string("faults_armed", spec);
                        w.count("armed", *armed);
                    }
                    AdminReply::RegisteredLdp {
                        name,
                        transactions,
                        shards,
                        params,
                    } => {
                        w.string("registered_ldp", name);
                        w.count("transactions", *transactions);
                        w.count("shards", *shards);
                        w.number("epsilon_local", params.epsilon_local);
                        w.count("universe", params.universe as u64);
                        w.count("pad", params.pad);
                    }
                    AdminReply::SnapshotEvery { every } => w.count("snapshot_every", *every),
                    AdminReply::Consistency { name, enabled } => {
                        w.string("consistency", name);
                        w.bool("enabled", *enabled);
                    }
                }
            }
            Response::ShardLoaded { key, rows } => {
                w.string("status", "ok");
                w.string("loaded", key);
                w.count("rows", *rows);
            }
            Response::ShardCounts(counts) => {
                w.string("status", "ok");
                push_counts(w.key("counts"), counts.iter().copied());
            }
            Response::ShardHistograms(histograms) => {
                w.string("status", "ok");
                push_array(w.key("histograms"), histograms, |out, hist| {
                    push_counts(out, hist.iter().copied())
                });
            }
            Response::Trace(trace) => {
                w.string("status", "ok");
                w.string("trace_id", &trace.id);
                w.string("trace_op", &trace.op);
                w.string("dataset", &trace.dataset);
                w.string("outcome", &trace.outcome);
                w.count("total_us", trace.total_us);
                push_array(w.key("spans"), &trace.spans, |out, span| {
                    let mut obj = ObjectWriter::new(out);
                    obj.string("name", &span.name);
                    obj.count("start_us", span.start_us);
                    obj.count("end_us", span.end_us);
                    if !span.attrs.is_empty() {
                        let mut attrs = ObjectWriter::new(obj.key("attrs"));
                        for (k, v) in &span.attrs {
                            attrs.string(k, v);
                        }
                        attrs.finish();
                    }
                    obj.finish();
                });
            }
            Response::Perturbed { rows, seed } => {
                w.string("status", "ok");
                push_array(w.key("perturbed"), rows, |out, row| {
                    push_counts(out, row.iter().map(|&i| u64::from(i)))
                });
                w.count("seed", *seed);
            }
        }
        w.finish();
        out
    }

    /// A close upper estimate of the encoded length, so `encode` allocates once: a
    /// fixed allowance for the envelope and scalar fields plus 12 bytes per list
    /// number (up to 11 digits and a comma) and the keys of each row.
    fn encoded_size_hint(&self, id: Option<&str>) -> usize {
        let base = 160 + id.map_or(0, str::len);
        base + match self {
            Response::Error(e) => e.message.len(),
            Response::Query(q) => {
                q.dataset.len()
                    + q.itemsets
                        .iter()
                        .map(|row| 40 + 12 * row.items.len())
                        .sum::<usize>()
            }
            Response::Status(s) => 320 * s.datasets.len(),
            Response::ShardCounts(counts) => 12 * counts.len(),
            Response::ShardHistograms(h) => h.iter().map(|b| 2 + 12 * b.len()).sum(),
            Response::Trace(t) => t.spans.iter().map(|s| 64 + 32 * s.attrs.len()).sum(),
            Response::Perturbed { rows, .. } => rows.iter().map(|r| 2 + 12 * r.len()).sum(),
            Response::Shutdown | Response::Admin(_) | Response::ShardLoaded { .. } => 0,
        }
    }

    /// Parses one response line (either shape).
    pub fn parse(line: &str) -> Result<ParsedResponse, String> {
        let value = Json::parse(line).map_err(|e| e.to_string())?;
        let v = match value.get("v") {
            None => 1,
            Some(raw) => raw
                .as_u64()
                .filter(|&v| v >= 1)
                .ok_or("`v` must be a positive integer")? as u32,
        };
        let id = match value.get("id") {
            None | Some(Json::Null) => None,
            Some(raw) => Some(raw.as_str().ok_or("`id` must be a string")?.to_string()),
        };
        let status = value
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response needs a `status` string")?;
        let response = match status {
            "error" => {
                let message = value
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("error responses need an `error` message")?
                    .to_string();
                let code = match value.get("code").and_then(Json::as_str) {
                    Some(code) => ErrorCode::parse(code)
                        .ok_or_else(|| format!("unknown error code `{code}`"))?,
                    None => ErrorCode::classify_legacy(&message),
                };
                Response::Error(WireError { code, message })
            }
            "ok" => Self::parse_ok_body(&value, v)?,
            other => return Err(format!("unknown status `{other}`")),
        };
        Ok(ParsedResponse { v, id, response })
    }

    fn parse_ok_body(value: &Json, v: u32) -> Result<Response, String> {
        if value.get("shutting_down").is_some() {
            return Ok(Response::Shutdown);
        }
        if let Some(rows) = value.get("datasets").and_then(Json::as_array) {
            let server = if v >= 2 {
                Some(ServerInfo {
                    protocol_version: require_u64(value, "protocol_version")? as u32,
                    uptime_secs: require_u64(value, "uptime_secs")?,
                    requests_total: require_u64(value, "requests_total")?,
                    rejected_total: require_u64(value, "rejected_total")?,
                    // Lenient (default 0): pre-degradation v2 servers omit these.
                    shed_total: optional_u64(value, "shed_total"),
                    deadline_closed_total: optional_u64(value, "deadline_closed_total"),
                    // Present only on servers with an audit log.
                    audit: value.get("audit_released").map(|_| AuditSummary {
                        released: optional_u64(value, "audit_released"),
                        refused: optional_u64(value, "audit_refused"),
                        failed_closed: optional_u64(value, "audit_failed_closed"),
                    }),
                })
            } else {
                None
            };
            let datasets = rows
                .iter()
                .map(parse_dataset_status)
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(Response::Status(StatusReply { server, datasets }));
        }
        if value.get("itemsets").is_some() {
            return Ok(Response::Query(QueryReply {
                dataset: require_str(value, "dataset")?,
                epsilon_spent: require_f64(value, "epsilon_spent")?,
                remaining_budget: optional_budget(value, "remaining_budget")?,
                seed: require_u64(value, "seed")?,
                lambda: require_u64(value, "lambda")?,
                candidate_count: require_u64(value, "candidate_count")?,
                itemsets: value
                    .get("itemsets")
                    .and_then(Json::as_array)
                    .ok_or("`itemsets` must be an array")?
                    .iter()
                    .map(parse_released_itemset)
                    .collect::<Result<Vec<_>, String>>()?,
            }));
        }
        if value.get("registered").is_some() {
            return Ok(Response::Admin(AdminReply::Registered {
                name: require_str(value, "registered")?,
                transactions: require_u64(value, "transactions")?,
                shards: require_u64(value, "shards")?,
                durable: value
                    .get("durable")
                    .and_then(Json::as_bool)
                    .ok_or("`durable` must be a bool")?,
                epsilon_spent: require_f64(value, "epsilon_spent")?,
            }));
        }
        if value.get("unregistered").is_some() {
            return Ok(Response::Admin(AdminReply::Unregistered {
                name: require_str(value, "unregistered")?,
            }));
        }
        if value.get("resharded").is_some() {
            return Ok(Response::Admin(AdminReply::Resharded {
                name: require_str(value, "resharded")?,
                shards: require_u64(value, "shards")?,
            }));
        }
        if value.get("faults_armed").is_some() {
            return Ok(Response::Admin(AdminReply::FaultsArmed {
                spec: require_str(value, "faults_armed")?,
                armed: require_u64(value, "armed")?,
            }));
        }
        if value.get("registered_ldp").is_some() {
            return Ok(Response::Admin(AdminReply::RegisteredLdp {
                name: require_str(value, "registered_ldp")?,
                transactions: require_u64(value, "transactions")?,
                shards: require_u64(value, "shards")?,
                params: LdpParams {
                    epsilon_local: optional_budget(value, "epsilon_local")?,
                    universe: require_u64(value, "universe")? as u32,
                    pad: require_u64(value, "pad")?,
                },
            }));
        }
        if value.get("snapshot_every").is_some() {
            return Ok(Response::Admin(AdminReply::SnapshotEvery {
                every: require_u64(value, "snapshot_every")?,
            }));
        }
        if value.get("consistency").is_some() {
            return Ok(Response::Admin(AdminReply::Consistency {
                name: require_str(value, "consistency")?,
                enabled: value
                    .get("enabled")
                    .and_then(Json::as_bool)
                    .ok_or("`enabled` must be a bool")?,
            }));
        }
        if value.get("perturbed").is_some() {
            let rows = value
                .get("perturbed")
                .and_then(Json::as_array)
                .ok_or("`perturbed` must be an array of arrays")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or("`perturbed` must be an array of arrays")?
                        .iter()
                        .map(|i| {
                            i.as_u64()
                                .filter(|&i| i <= u32::MAX as u64)
                                .map(|i| i as u32)
                                .ok_or("`perturbed` items must be u32 integers")
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Perturbed {
                rows,
                seed: require_u64(value, "seed")?,
            });
        }
        if value.get("loaded").is_some() {
            return Ok(Response::ShardLoaded {
                key: require_str(value, "loaded")?,
                rows: require_u64(value, "rows")?,
            });
        }
        if let Some(raw) = value.get("counts").and_then(Json::as_array) {
            let counts = raw
                .iter()
                .map(|c| c.as_u64().ok_or("`counts` must be integers"))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::ShardCounts(counts));
        }
        if let Some(raw) = value.get("histograms").and_then(Json::as_array) {
            let histograms = raw
                .iter()
                .map(|hist| {
                    hist.as_array()
                        .ok_or("`histograms` must be arrays of integers")?
                        .iter()
                        .map(|c| c.as_u64().ok_or("`histograms` must be arrays of integers"))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::ShardHistograms(histograms));
        }
        if let Some(raw) = value.get("spans").and_then(Json::as_array) {
            let spans = raw
                .iter()
                .map(parse_trace_span)
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(Response::Trace(pb_trace::Trace {
                id: require_str(value, "trace_id")?,
                op: require_str(value, "trace_op")?,
                dataset: require_str(value, "dataset")?,
                outcome: require_str(value, "outcome")?,
                total_us: require_u64(value, "total_us")?,
                spans,
            }));
        }
        Err("unrecognised ok-response body".to_string())
    }
}

/// Appends one dataset's status row.
fn push_dataset_status(out: &mut String, d: &DatasetStatus) {
    let mut w = ObjectWriter::new(out);
    w.string("name", &d.name);
    w.count("transactions", d.transactions);
    w.count("items", d.items);
    w.bool("index_cached", d.index_cached);
    w.bool("durable", d.durable);
    w.number("epsilon_spent", d.spent);
    w.number("remaining_budget", d.remaining);
    w.count("queries", d.queries);
    w.count("shards", d.shards);
    // Only on LDP rows: central rows keep their frozen v1 bytes.
    if let Some(ldp) = d.ldp {
        w.string("mode", "ldp");
        w.number("epsilon_local", ldp.epsilon_local);
        w.count("universe", ldp.universe as u64);
        w.count("pad", ldp.pad);
    }
    if let Some(journal) = d.journal {
        w.count("journal_bytes", journal.wal_bytes);
        w.count("journal_records", journal.wal_records);
        w.count("snapshot_generation", journal.snapshot_generation);
    }
    // Only on the wire when true: healthy rows keep their frozen v1 bytes, and the
    // v1/v2 payload-identity guarantee holds in both states.
    if d.degraded {
        w.bool("degraded", true);
    }
    w.finish();
}

fn parse_trace_span(raw: &Json) -> Result<pb_trace::Span, String> {
    let attrs = match raw.get("attrs") {
        None => Vec::new(),
        Some(Json::Object(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|v| (k.clone(), v.to_string()))
                    .ok_or("span `attrs` values must be strings".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?,
        Some(_) => return Err("span `attrs` must be an object".to_string()),
    };
    Ok(pb_trace::Span {
        name: require_str(raw, "name")?,
        start_us: require_u64(raw, "start_us")?,
        end_us: require_u64(raw, "end_us")?,
        attrs,
    })
}

fn parse_dataset_status(row: &Json) -> Result<DatasetStatus, String> {
    let journal = match (
        row.get("journal_bytes").and_then(Json::as_u64),
        row.get("journal_records").and_then(Json::as_u64),
        row.get("snapshot_generation").and_then(Json::as_u64),
    ) {
        (Some(wal_bytes), Some(wal_records), Some(snapshot_generation)) => Some(JournalMetrics {
            wal_bytes,
            wal_records,
            snapshot_generation,
        }),
        _ => None,
    };
    Ok(DatasetStatus {
        name: require_str(row, "name")?,
        transactions: require_u64(row, "transactions")?,
        items: require_u64(row, "items")?,
        index_cached: row
            .get("index_cached")
            .and_then(Json::as_bool)
            .ok_or("`index_cached` must be a bool")?,
        durable: row
            .get("durable")
            .and_then(Json::as_bool)
            .ok_or("`durable` must be a bool")?,
        spent: require_f64(row, "epsilon_spent")?,
        remaining: optional_budget(row, "remaining_budget")?,
        queries: require_u64(row, "queries")?,
        shards: require_u64(row, "shards")?,
        ldp: match row.get("mode").and_then(Json::as_str) {
            Some("ldp") => Some(LdpParams {
                epsilon_local: optional_budget(row, "epsilon_local")?,
                universe: require_u64(row, "universe")? as u32,
                pad: require_u64(row, "pad")?,
            }),
            Some(other) => return Err(format!("unknown dataset mode `{other}`")),
            None => None,
        },
        journal,
        degraded: row.get("degraded").and_then(Json::as_bool).unwrap_or(false),
    })
}

fn parse_released_itemset(row: &Json) -> Result<ReleasedItemset, String> {
    let items = row
        .get("items")
        .and_then(Json::as_array)
        .ok_or("itemset rows need an `items` array")?
        .iter()
        .map(|item| {
            item.as_u64()
                .filter(|&i| i <= u32::MAX as u64)
                .map(|i| i as u32)
                .ok_or_else(|| "itemset items must be u32 integers".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ReleasedItemset {
        items,
        count: require_f64(row, "count")?,
    })
}

fn require_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("response missing string `{key}`"))
}

fn require_f64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response missing number `{key}`"))
}

fn require_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response missing integer `{key}`"))
}

/// A counter that older servers may not send yet — absent means 0.
fn optional_u64(value: &Json, key: &str) -> u64 {
    value.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `null` means an infinite budget (JSON has no Infinity literal).
fn optional_budget(value: &Json, key: &str) -> Result<f64, String> {
    match value.get(key) {
        Some(Json::Null) => Ok(f64::INFINITY),
        Some(raw) => raw
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number or null")),
        None => Err(format!("response missing number `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_query_lines_parse_as_v1() {
        let e =
            Envelope::parse(r#"{"op":"query","dataset":"retail","k":10,"epsilon":0.5}"#).unwrap();
        assert_eq!(e.v, 1);
        assert_eq!(e.id, None);
        assert_eq!(
            e.op,
            Op::Query(QueryRequest {
                dataset: "retail".into(),
                k: 10,
                epsilon: 0.5,
                seed: None,
            })
        );
        // op defaults to query; seed accepted; explicit v:1 is still legacy.
        let e = Envelope::parse(r#"{"v":1,"dataset":"d","k":1,"epsilon":1,"seed":42}"#).unwrap();
        assert_eq!(e.v, 1);
        assert_eq!(
            e.op,
            Op::Query(QueryRequest {
                dataset: "d".into(),
                k: 1,
                epsilon: 1.0,
                seed: Some(42),
            })
        );
        assert_eq!(
            Envelope::parse(r#"{"op":"status"}"#).unwrap().op,
            Op::Status
        );
        assert_eq!(
            Envelope::parse(r#"{"op":"shutdown"}"#).unwrap().op,
            Op::Shutdown
        );
    }

    #[test]
    fn v2_envelopes_carry_id_and_auth() {
        let e = Envelope::parse(
            r#"{"v":2,"id":"q-1","auth":"tok","op":"register","name":"d","path":"/x.dat","budget":2.5,"shards":4}"#,
        )
        .unwrap();
        assert_eq!(e.v, 2);
        assert_eq!(e.id.as_deref(), Some("q-1"));
        assert_eq!(e.auth.as_deref(), Some("tok"));
        assert_eq!(
            e.op,
            Op::Register(RegisterRequest {
                name: "d".into(),
                source: RegisterSource::Path("/x.dat".into()),
                budget: Some(2.5),
                shards: Some(4),
            })
        );
        assert!(e.op.is_admin());
    }

    #[test]
    fn admin_ops_require_the_envelope() {
        // A legacy line cannot invoke admin ops — and its error message is the exact v1
        // unknown-op text.
        let err =
            Envelope::parse(r#"{"op":"register","name":"d","path":"x","budget":1}"#).unwrap_err();
        assert_eq!(err.v, 1);
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        assert_eq!(
            err.error.message,
            "unknown op `register` (expected query, status, or shutdown)"
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"op":"query","k":1,"epsilon":1}"#, // missing dataset
            r#"{"op":"query","dataset":"d","epsilon":1}"#, // missing k
            r#"{"op":"query","dataset":"d","k":0,"epsilon":1}"#, // zero k
            r#"{"op":"query","dataset":"d","k":2}"#, // missing epsilon
            r#"{"op":"query","dataset":"d","k":2,"epsilon":-1}"#, // negative epsilon
            r#"{"op":"query","dataset":"d","k":2,"epsilon":1,"seed":-3}"#, // negative seed
            r#"{"op":"query","dataset":"d","k":2,"epsilon":1,"seed":100000000000000000}"#, // seed > 2^53
            r#"{"op":"query","dataset":"d","k":5000,"epsilon":1}"#, // k above MAX_QUERY_K
            r#"{"op":"frobnicate"}"#,                               // unknown op
            r#"{"v":3,"id":"x","op":"status"}"#,                    // unsupported version
            r#"{"v":2,"id":7,"op":"status"}"#,                      // non-string id
            r#"{"v":2,"op":"register","name":"d","budget":1}"#,     // no source
            r#"{"v":2,"op":"register","name":"d","path":"x","rows":[[1]],"budget":1}"#, // both
            r#"{"v":2,"op":"register","name":"d","path":"x"}"#,     // missing budget
            r#"{"v":2,"op":"register","name":"d","path":"x","budget":0}"#, // zero budget
            r#"{"v":2,"op":"register","name":"d","rows":[[1,-2]],"budget":1}"#, // bad item
            r#"{"v":2,"op":"reshard","name":"d"}"#,                 // missing shards
            r#"{"v":2,"op":"reshard","name":"d","shards":0}"#,      // zero shards
            r#"{"v":2,"op":"unregister"}"#,                         // missing name
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","universe":5,"pad":2}"#, // missing epsilon_local
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":0,"universe":5,"pad":2}"#, // zero epsilon_local
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":1,"pad":2}"#, // missing universe
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":1,"universe":0,"pad":2}"#, // zero universe
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":1,"universe":5}"#, // missing pad
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":1,"universe":5,"pad":0}"#, // zero pad
            r#"{"v":2,"op":"register_ldp","name":"d","path":"x","epsilon_local":1,"universe":5,"pad":5000}"#, // pad above MAX_PAD_LEN
            r#"{"v":2,"op":"register_ldp","name":"d","epsilon_local":1,"universe":5,"pad":2}"#, // no source
            r#"{"v":2,"op":"perturb","rows":[[1]]}"#, // missing dataset
            r#"{"v":2,"op":"perturb","dataset":"d"}"#, // missing rows
            r#"{"v":2,"op":"perturb","dataset":"d","rows":[[1]],"seed":-1}"#, // negative seed
            r#"{"v":2,"op":"snapshot_every"}"#,       // missing every
            r#"{"v":2,"op":"snapshot_every","every":0}"#, // zero every
            r#"{"v":2,"op":"consistency","name":"d"}"#, // missing enabled
            r#"{"v":2,"op":"consistency","name":"d","enabled":1}"#, // non-bool enabled
            r#"{"v":2,"op":"consistency","enabled":true}"#, // missing name
        ] {
            assert!(Envelope::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn v1_response_bytes_are_frozen() {
        // These exact strings are the pre-envelope wire format; changing any of them
        // breaks deployed v1 clients.
        assert_eq!(
            Response::Error(WireError::malformed("nope")).encode(1, None),
            r#"{"status":"error","error":"nope"}"#
        );
        assert_eq!(
            Response::Shutdown.encode(1, None),
            r#"{"status":"ok","shutting_down":true}"#
        );
        let q = Response::Query(QueryReply {
            dataset: "d".into(),
            epsilon_spent: 0.5,
            remaining_budget: 1.5,
            seed: 7,
            lambda: 3,
            candidate_count: 7,
            itemsets: vec![ReleasedItemset {
                items: vec![1, 2],
                count: 812.4,
            }],
        });
        assert_eq!(
            q.encode(1, None),
            r#"{"status":"ok","dataset":"d","epsilon_spent":0.5,"remaining_budget":1.5,"seed":7,"lambda":3,"candidate_count":7,"itemsets":[{"items":[1,2],"count":812.4}]}"#
        );
        let s = Response::Status(StatusReply {
            server: Some(ServerInfo {
                protocol_version: 2,
                uptime_secs: 9,
                requests_total: 4,
                rejected_total: 1,
                shed_total: 0,
                deadline_closed_total: 0,
                audit: None,
            }),
            datasets: vec![DatasetStatus {
                name: "d".into(),
                transactions: 5,
                items: 3,
                index_cached: true,
                durable: true,
                spent: 0.5,
                remaining: 1.5,
                queries: 2,
                shards: 4,
                journal: Some(JournalMetrics {
                    wal_bytes: 40,
                    wal_records: 2,
                    snapshot_generation: 1,
                }),
                degraded: false,
                ldp: None,
            }],
        });
        let v1 = s.encode(1, None);
        assert_eq!(
            v1,
            r#"{"status":"ok","datasets":[{"name":"d","transactions":5,"items":3,"index_cached":true,"durable":true,"epsilon_spent":0.5,"remaining_budget":1.5,"queries":2,"shards":4,"journal_bytes":40,"journal_records":2,"snapshot_generation":1}]}"#,
            "v1 status must not leak server metadata"
        );
        // The v2 encoding carries the envelope and the server block.
        let v2 = s.encode(2, Some("abc"));
        assert!(v2.starts_with(r#"{"v":2,"id":"abc","status":"ok","protocol_version":2,"uptime_secs":9,"requests_total":4,"rejected_total":1,"#), "{v2}");
        // Infinite remaining budget serialises as null rather than breaking the parser.
        let inf = Response::Status(StatusReply {
            server: None,
            datasets: vec![DatasetStatus {
                name: "d".into(),
                transactions: 1,
                items: 1,
                index_cached: false,
                durable: false,
                spent: 0.0,
                remaining: f64::INFINITY,
                queries: 0,
                shards: 1,
                journal: None,
                degraded: false,
                ldp: None,
            }],
        })
        .encode(1, None);
        assert!(inf.contains(r#""remaining_budget":null"#));
        assert!(Json::parse(&inf).is_ok());
    }

    #[test]
    fn responses_parse_back_to_equal_values() {
        let replies = [
            Response::Shutdown,
            Response::Error(WireError::new(ErrorCode::Unauthorized, "no")),
            Response::Admin(AdminReply::Registered {
                name: "d".into(),
                transactions: 10,
                shards: 2,
                durable: true,
                epsilon_spent: 0.25,
            }),
            Response::Admin(AdminReply::Unregistered { name: "d".into() }),
            Response::Admin(AdminReply::Resharded {
                name: "d".into(),
                shards: 8,
            }),
            Response::Admin(AdminReply::FaultsArmed {
                spec: "journal.fsync=fail-once".into(),
                armed: 1,
            }),
            Response::Admin(AdminReply::RegisteredLdp {
                name: "reports".into(),
                transactions: 1000,
                shards: 4,
                params: LdpParams {
                    epsilon_local: 2.0,
                    universe: 100,
                    pad: 8,
                },
            }),
            // ε_local = ∞ (the identity channel) travels as null and parses back.
            Response::Admin(AdminReply::RegisteredLdp {
                name: "clear".into(),
                transactions: 3,
                shards: 1,
                params: LdpParams {
                    epsilon_local: f64::INFINITY,
                    universe: 10,
                    pad: 2,
                },
            }),
            Response::Admin(AdminReply::SnapshotEvery { every: 64 }),
            Response::Admin(AdminReply::Consistency {
                name: "d".into(),
                enabled: false,
            }),
            Response::Perturbed {
                rows: vec![vec![1, 2], vec![], vec![7]],
                seed: 9,
            },
            Response::ShardLoaded {
                key: "d/3".into(),
                rows: 120,
            },
            Response::ShardCounts(vec![5, 0, 17]),
            Response::ShardHistograms(vec![vec![1, 0, 2, 4], vec![9, 3]]),
        ];
        for reply in replies {
            let line = reply.encode(2, Some("id-1"));
            let parsed = Response::parse(&line).unwrap();
            assert_eq!(parsed.v, 2);
            assert_eq!(parsed.id.as_deref(), Some("id-1"));
            assert_eq!(parsed.response, reply, "{line}");
        }
        // Legacy error lines classify by message.
        let parsed =
            Response::parse(r#"{"status":"error","error":"privacy budget exceeded: x"}"#).unwrap();
        assert_eq!(parsed.v, 1);
        match parsed.response {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BudgetExhausted),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_op_and_reply_round_trip() {
        // The op is v2-only and unauthenticated (traces carry no raw data).
        let e = Envelope::parse(r#"{"v":2,"id":"t1","op":"trace","trace_id":"q-77"}"#).unwrap();
        assert_eq!(e.op, Op::Trace { id: "q-77".into() });
        assert!(!e.op.is_admin());
        assert!(!e.op.is_shard_op());
        let envelope = Envelope::v2("t2", None, e.op);
        assert_eq!(Envelope::parse(&envelope.encode()).unwrap(), envelope);
        let err = Envelope::parse(r#"{"op":"trace","trace_id":"x"}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        // A missing trace_id is malformed, not a lookup of the empty id.
        let err = Envelope::parse(r#"{"v":2,"op":"trace"}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::Malformed);

        // The reply round-trips its span tree, attributes included.
        let reply = Response::Trace(pb_trace::Trace {
            id: "q-77".into(),
            op: "query".into(),
            dataset: "retail".into(),
            outcome: "released".into(),
            total_us: 1500,
            spans: vec![
                pb_trace::Span::new("parse", 0, 10),
                pb_trace::Span::new("shard_rpc", 100, 900)
                    .attr("worker", "127.0.0.1:9000")
                    .attr("hedged", "true"),
            ],
        });
        let line = reply.encode(2, Some("t1"));
        let parsed = Response::parse(&line).unwrap();
        assert_eq!(parsed.id.as_deref(), Some("t1"));
        assert_eq!(parsed.response, reply, "{line}");
    }

    #[test]
    fn faults_op_is_v2_only_and_admin_gated() {
        let e = Envelope::parse(
            r#"{"v":2,"id":"f1","auth":"tok","op":"faults","spec":"journal.fsync=fail-once"}"#,
        )
        .unwrap();
        assert_eq!(
            e.op,
            Op::Faults {
                spec: "journal.fsync=fail-once".into()
            }
        );
        assert!(e.op.is_admin());
        // Omitted spec means "clear all plans".
        let e = Envelope::parse(r#"{"v":2,"op":"faults"}"#).unwrap();
        assert_eq!(
            e.op,
            Op::Faults {
                spec: String::new()
            }
        );
        // Round trip through the canonical encoding.
        let envelope = Envelope::v2("f2", Some("tok".into()), e.op);
        assert_eq!(Envelope::parse(&envelope.encode()).unwrap(), envelope);
        // A legacy line cannot reach the fault surface at all.
        let err = Envelope::parse(r#"{"op":"faults"}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
    }

    #[test]
    fn shard_ops_are_v2_only_and_round_trip() {
        let ops = [
            Op::ShardLoad {
                key: "d/0".into(),
                rows: vec![vec![1, 2, 3], vec![], vec![7]],
                reset: true,
                seal: false,
            },
            Op::ShardLoad {
                key: "d/0".into(),
                rows: vec![],
                reset: false,
                seal: true,
            },
            Op::ShardSupports {
                key: "d/0".into(),
                itemsets: vec![vec![1, 2], vec![3]],
            },
            Op::ShardPairs {
                key: "d/0".into(),
                items: vec![1, 2, 5],
            },
            Op::ShardHistograms {
                key: "d/0".into(),
                bases: vec![vec![1, 2, 3], vec![4]],
            },
        ];
        for op in ops {
            assert!(op.is_shard_op());
            assert!(!op.is_admin());
            let envelope = Envelope::v2("s1", None, op);
            assert_eq!(Envelope::parse(&envelope.encode()).unwrap(), envelope);
        }
        // Legacy lines cannot reach the worker surface.
        let err =
            Envelope::parse(r#"{"op":"shard_supports","key":"d/0","itemsets":[[1]]}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        // Field validation is structural, with structured codes.
        for bad in [
            r#"{"v":2,"op":"shard_load","rows":[[1]]}"#, // missing key
            r#"{"v":2,"op":"shard_load","key":"d","rows":[[-1]]}"#, // negative item
            r#"{"v":2,"op":"shard_load","key":"d","rows":[[1]],"seal":3}"#, // non-bool seal
            r#"{"v":2,"op":"shard_supports","key":"d"}"#, // missing itemsets
            r#"{"v":2,"op":"shard_pairs","key":"d","items":[[1]]}"#, // nested items
            r#"{"v":2,"op":"shard_histograms","key":"d","bases":[[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21]]}"#, // basis wider than MAX_BASIS_WIDTH
        ] {
            let err = Envelope::parse(bad).unwrap_err();
            assert_eq!(err.error.code, ErrorCode::Malformed, "{bad}");
        }
    }

    #[test]
    fn degraded_datasets_and_shed_counters_travel_on_v2() {
        let s = Response::Status(StatusReply {
            server: Some(ServerInfo {
                protocol_version: 2,
                uptime_secs: 1,
                requests_total: 7,
                rejected_total: 2,
                shed_total: 3,
                deadline_closed_total: 4,
                audit: Some(AuditSummary {
                    released: 11,
                    refused: 2,
                    failed_closed: 1,
                }),
            }),
            datasets: vec![DatasetStatus {
                name: "wedged".into(),
                transactions: 5,
                items: 3,
                index_cached: true,
                durable: true,
                spent: 0.5,
                remaining: 1.5,
                queries: 2,
                shards: 1,
                journal: None,
                degraded: true,
                ldp: None,
            }],
        });
        let line = s.encode(2, Some("x"));
        assert!(line.contains(r#""shed_total":3"#), "{line}");
        assert!(line.contains(r#""deadline_closed_total":4"#), "{line}");
        assert!(line.contains(r#""degraded":true"#), "{line}");
        assert_eq!(Response::parse(&line).unwrap().response, s);
        // A v2 status from an older server (no shed counters, no degraded field)
        // still parses — the counters default to 0, degraded to false.
        let old = r#"{"v":2,"id":null,"status":"ok","protocol_version":2,"uptime_secs":1,"requests_total":7,"rejected_total":2,"datasets":[{"name":"d","transactions":1,"items":1,"index_cached":false,"durable":false,"epsilon_spent":0,"remaining_budget":1,"queries":0,"shards":1}]}"#;
        let parsed = Response::parse(old).unwrap();
        match parsed.response {
            Response::Status(s) => {
                let info = s.server.unwrap();
                assert_eq!(info.shed_total, 0);
                assert_eq!(info.deadline_closed_total, 0);
                assert!(!s.datasets[0].degraded);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_budget_round_trips_as_null() {
        let q = Response::Query(QueryReply {
            dataset: "d".into(),
            epsilon_spent: 0.5,
            remaining_budget: f64::INFINITY,
            seed: 1,
            lambda: 1,
            candidate_count: 1,
            itemsets: vec![],
        });
        let line = q.encode(2, None);
        assert!(line.contains(r#""remaining_budget":null"#));
        let parsed = Response::parse(&line).unwrap();
        assert_eq!(parsed.response, q);
        assert_eq!(parsed.id, None);
    }

    #[test]
    fn ldp_envelopes_have_frozen_bytes() {
        // These exact strings are the v2 LDP wire format; clients and servers both
        // round-trip through them, so changing any of them is a protocol break.
        let register = Envelope::v2(
            "r1",
            Some("tok".into()),
            Op::RegisterLdp(RegisterLdpRequest {
                name: "reports".into(),
                source: RegisterSource::Rows(vec![vec![1, 2], vec![3]]),
                params: LdpParams {
                    epsilon_local: 1.5,
                    universe: 100,
                    pad: 8,
                },
                shards: Some(2),
            }),
        );
        assert!(register.op.is_admin());
        assert_eq!(
            register.encode(),
            r#"{"v":2,"id":"r1","auth":"tok","op":"register_ldp","name":"reports","rows":[[1,2],[3]],"epsilon_local":1.5,"universe":100,"pad":8,"shards":2}"#
        );
        assert_eq!(Envelope::parse(&register.encode()).unwrap(), register);

        let perturb = Envelope::v2(
            "p1",
            None,
            Op::Perturb(PerturbRequest {
                dataset: "reports".into(),
                rows: vec![vec![4, 5]],
                seed: Some(7),
            }),
        );
        // Perturbation spends no budget and reveals no raw data, so it is not
        // admin-gated — any tenant connection can use it.
        assert!(!perturb.op.is_admin());
        assert_eq!(
            perturb.encode(),
            r#"{"v":2,"id":"p1","op":"perturb","dataset":"reports","rows":[[4,5]],"seed":7}"#
        );
        assert_eq!(Envelope::parse(&perturb.encode()).unwrap(), perturb);

        // The replies are frozen too.
        let registered = Response::Admin(AdminReply::RegisteredLdp {
            name: "reports".into(),
            transactions: 1000,
            shards: 2,
            params: LdpParams {
                epsilon_local: 1.5,
                universe: 100,
                pad: 8,
            },
        });
        assert_eq!(
            registered.encode(2, Some("r1")),
            r#"{"v":2,"id":"r1","status":"ok","registered_ldp":"reports","transactions":1000,"shards":2,"epsilon_local":1.5,"universe":100,"pad":8}"#
        );
        let perturbed = Response::Perturbed {
            rows: vec![vec![1, 2], vec![]],
            seed: 7,
        };
        assert_eq!(
            perturbed.encode(2, Some("p1")),
            r#"{"v":2,"id":"p1","status":"ok","perturbed":[[1,2],[]],"seed":7}"#
        );

        // Legacy lines cannot reach the LDP surface, and the v1 unknown-op message
        // keeps its frozen spelling.
        for op in ["register_ldp", "perturb", "snapshot_every", "consistency"] {
            let err = Envelope::parse(&format!(r#"{{"op":"{op}"}}"#)).unwrap_err();
            assert_eq!(err.error.code, ErrorCode::UnknownOp);
            assert_eq!(
                err.error.message,
                format!("unknown op `{op}` (expected query, status, or shutdown)")
            );
        }
    }

    #[test]
    fn ldp_dataset_status_carries_its_mode() {
        // v2 encoding always carries a server block, so round-tripping needs Some.
        let server = Some(ServerInfo {
            protocol_version: PROTOCOL_VERSION,
            uptime_secs: 0,
            requests_total: 0,
            rejected_total: 0,
            shed_total: 0,
            deadline_closed_total: 0,
            audit: None,
        });
        let s = Response::Status(StatusReply {
            server,
            datasets: vec![DatasetStatus {
                name: "reports".into(),
                transactions: 1000,
                items: 100,
                index_cached: false,
                durable: true,
                spent: 0.0,
                remaining: f64::INFINITY,
                queries: 3,
                shards: 2,
                journal: None,
                degraded: false,
                ldp: Some(LdpParams {
                    epsilon_local: 1.5,
                    universe: 100,
                    pad: 8,
                }),
            }],
        });
        let line = s.encode(2, Some("s1"));
        assert!(line.contains(r#""mode":"ldp""#), "{line}");
        assert!(line.contains(r#""epsilon_local":1.5"#), "{line}");
        assert!(line.contains(r#""universe":100"#), "{line}");
        assert!(line.contains(r#""pad":8"#), "{line}");
        assert_eq!(Response::parse(&line).unwrap().response, s);
        // The identity channel (ε_local = ∞, wire null) round-trips too.
        let identity = Response::Status(StatusReply {
            server,
            datasets: vec![DatasetStatus {
                ldp: Some(LdpParams {
                    epsilon_local: f64::INFINITY,
                    universe: 10,
                    pad: 2,
                }),
                ..match &s {
                    Response::Status(s) => s.datasets[0].clone(),
                    _ => unreachable!(),
                }
            }],
        });
        let line = identity.encode(2, None);
        assert!(line.contains(r#""epsilon_local":null"#), "{line}");
        assert_eq!(Response::parse(&line).unwrap().response, identity);
        // An unknown mode string is a parse error, not a silent central fallback.
        let weird = line.replace(r#""mode":"ldp""#, r#""mode":"weird""#);
        assert!(Response::parse(&weird).is_err());
    }

    #[test]
    fn offline_knob_ops_are_admin_gated_and_round_trip() {
        let e =
            Envelope::parse(r#"{"v":2,"id":"k1","auth":"tok","op":"snapshot_every","every":32}"#)
                .unwrap();
        assert_eq!(e.op, Op::SnapshotEvery { every: 32 });
        assert!(e.op.is_admin());
        let envelope = Envelope::v2("k2", Some("tok".into()), e.op);
        assert_eq!(Envelope::parse(&envelope.encode()).unwrap(), envelope);

        let e = Envelope::parse(
            r#"{"v":2,"id":"k3","auth":"tok","op":"consistency","name":"d","enabled":false}"#,
        )
        .unwrap();
        assert_eq!(
            e.op,
            Op::Consistency {
                name: "d".into(),
                enabled: false,
            }
        );
        assert!(e.op.is_admin());
        let envelope = Envelope::v2("k4", Some("tok".into()), e.op);
        assert_eq!(Envelope::parse(&envelope.encode()).unwrap(), envelope);
    }
}
