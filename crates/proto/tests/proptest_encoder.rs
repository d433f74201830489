//! The streaming `Response::encode` against the tree encoder it replaced.
//!
//! `oracle_tree` is the former encoder, kept here verbatim as a test oracle: it builds
//! a `Json` tree with one `String` per key. `oracle_print` is the former tree writer
//! with its own number and escape rules, so neither the streaming encoder nor
//! `Json`'s `Display` is checked against code it shares. Every `Response` arm, at v1
//! and v2, with and without an id, must encode to the same bytes.

use pb_proto::{
    AdminReply, AuditSummary, DatasetStatus, JournalMetrics, Json, LdpParams, QueryReply,
    ReleasedItemset, Response, ServerInfo, StatusReply, WireError, ALL_ERROR_CODES,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;
use std::fmt::Write;

/// The former `Response::encode`, minus its final `to_string()`.
fn oracle_tree(response: &Response, v: u32, id: Option<&str>) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    if v >= 2 {
        fields.push(("v".into(), Json::Number(PROTOCOL_VERSION as f64)));
        fields.push((
            "id".into(),
            match id {
                Some(id) => Json::String(id.into()),
                None => Json::Null,
            },
        ));
    }
    match response {
        Response::Error(e) => {
            fields.push(("status".into(), Json::String("error".into())));
            if v >= 2 {
                fields.push(("code".into(), Json::String(e.code.as_str().into())));
            }
            fields.push(("error".into(), Json::String(e.message.clone())));
        }
        Response::Shutdown => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push(("shutting_down".into(), Json::Bool(true)));
        }
        Response::Query(q) => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push(("dataset".into(), Json::String(q.dataset.clone())));
            fields.push(("epsilon_spent".into(), Json::Number(q.epsilon_spent)));
            fields.push(("remaining_budget".into(), Json::Number(q.remaining_budget)));
            fields.push(("seed".into(), Json::Number(q.seed as f64)));
            fields.push(("lambda".into(), Json::Number(q.lambda as f64)));
            fields.push((
                "candidate_count".into(),
                Json::Number(q.candidate_count as f64),
            ));
            let itemsets = q
                .itemsets
                .iter()
                .map(|row| {
                    Json::Object(vec![
                        (
                            "items".into(),
                            Json::Array(
                                row.items.iter().map(|&i| Json::Number(i as f64)).collect(),
                            ),
                        ),
                        ("count".into(), Json::Number(row.count)),
                    ])
                })
                .collect();
            fields.push(("itemsets".into(), Json::Array(itemsets)));
        }
        Response::Status(s) => {
            fields.push(("status".into(), Json::String("ok".into())));
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
                fields.push((
                    "protocol_version".into(),
                    Json::Number(info.protocol_version as f64),
                ));
                fields.push(("uptime_secs".into(), Json::Number(info.uptime_secs as f64)));
                fields.push((
                    "requests_total".into(),
                    Json::Number(info.requests_total as f64),
                ));
                fields.push((
                    "rejected_total".into(),
                    Json::Number(info.rejected_total as f64),
                ));
                fields.push(("shed_total".into(), Json::Number(info.shed_total as f64)));
                fields.push((
                    "deadline_closed_total".into(),
                    Json::Number(info.deadline_closed_total as f64),
                ));
                if let Some(audit) = info.audit {
                    fields.push(("audit_released".into(), Json::Number(audit.released as f64)));
                    fields.push(("audit_refused".into(), Json::Number(audit.refused as f64)));
                    fields.push((
                        "audit_failed_closed".into(),
                        Json::Number(audit.failed_closed as f64),
                    ));
                }
            }
            let rows = s.datasets.iter().map(dataset_status_json).collect();
            fields.push(("datasets".into(), Json::Array(rows)));
        }
        Response::Admin(a) => {
            fields.push(("status".into(), Json::String("ok".into())));
            match a {
                AdminReply::Registered {
                    name,
                    transactions,
                    shards,
                    durable,
                    epsilon_spent,
                } => {
                    fields.push(("registered".into(), Json::String(name.clone())));
                    fields.push(("transactions".into(), Json::Number(*transactions as f64)));
                    fields.push(("shards".into(), Json::Number(*shards as f64)));
                    fields.push(("durable".into(), Json::Bool(*durable)));
                    fields.push(("epsilon_spent".into(), Json::Number(*epsilon_spent)));
                }
                AdminReply::Unregistered { name } => {
                    fields.push(("unregistered".into(), Json::String(name.clone())));
                }
                AdminReply::Resharded { name, shards } => {
                    fields.push(("resharded".into(), Json::String(name.clone())));
                    fields.push(("shards".into(), Json::Number(*shards as f64)));
                }
                AdminReply::FaultsArmed { spec, armed } => {
                    fields.push(("faults_armed".into(), Json::String(spec.clone())));
                    fields.push(("armed".into(), Json::Number(*armed as f64)));
                }
                AdminReply::RegisteredLdp {
                    name,
                    transactions,
                    shards,
                    params,
                } => {
                    fields.push(("registered_ldp".into(), Json::String(name.clone())));
                    fields.push(("transactions".into(), Json::Number(*transactions as f64)));
                    fields.push(("shards".into(), Json::Number(*shards as f64)));
                    fields.push(("epsilon_local".into(), Json::Number(params.epsilon_local)));
                    fields.push(("universe".into(), Json::Number(params.universe as f64)));
                    fields.push(("pad".into(), Json::Number(params.pad as f64)));
                }
                AdminReply::SnapshotEvery { every } => {
                    fields.push(("snapshot_every".into(), Json::Number(*every as f64)));
                }
                AdminReply::Consistency { name, enabled } => {
                    fields.push(("consistency".into(), Json::String(name.clone())));
                    fields.push(("enabled".into(), Json::Bool(*enabled)));
                }
            }
        }
        Response::ShardLoaded { key, rows } => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push(("loaded".into(), Json::String(key.clone())));
            fields.push(("rows".into(), Json::Number(*rows as f64)));
        }
        Response::ShardCounts(counts) => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push((
                "counts".into(),
                Json::Array(counts.iter().map(|&c| Json::Number(c as f64)).collect()),
            ));
        }
        Response::ShardHistograms(histograms) => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push((
                "histograms".into(),
                Json::Array(
                    histograms
                        .iter()
                        .map(|hist| {
                            Json::Array(hist.iter().map(|&c| Json::Number(c as f64)).collect())
                        })
                        .collect(),
                ),
            ));
        }
        Response::Trace(trace) => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push(("trace_id".into(), Json::String(trace.id.clone())));
            fields.push(("trace_op".into(), Json::String(trace.op.clone())));
            fields.push(("dataset".into(), Json::String(trace.dataset.clone())));
            fields.push(("outcome".into(), Json::String(trace.outcome.clone())));
            fields.push(("total_us".into(), Json::Number(trace.total_us as f64)));
            let spans = trace
                .spans
                .iter()
                .map(|span| {
                    let mut fields = vec![
                        ("name".into(), Json::String(span.name.clone())),
                        ("start_us".into(), Json::Number(span.start_us as f64)),
                        ("end_us".into(), Json::Number(span.end_us as f64)),
                    ];
                    if !span.attrs.is_empty() {
                        fields.push((
                            "attrs".into(),
                            Json::Object(
                                span.attrs
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::String(v.clone())))
                                    .collect(),
                            ),
                        ));
                    }
                    Json::Object(fields)
                })
                .collect();
            fields.push(("spans".into(), Json::Array(spans)));
        }
        Response::Perturbed { rows, seed } => {
            fields.push(("status".into(), Json::String("ok".into())));
            fields.push(("perturbed".into(), u32_rows_json(rows)));
            fields.push(("seed".into(), Json::Number(*seed as f64)));
        }
    }
    Json::Object(fields)
}

fn dataset_status_json(d: &DatasetStatus) -> Json {
    let mut fields = vec![
        ("name".into(), Json::String(d.name.clone())),
        ("transactions".into(), Json::Number(d.transactions as f64)),
        ("items".into(), Json::Number(d.items as f64)),
        ("index_cached".into(), Json::Bool(d.index_cached)),
        ("durable".into(), Json::Bool(d.durable)),
        ("epsilon_spent".into(), Json::Number(d.spent)),
        ("remaining_budget".into(), Json::Number(d.remaining)),
        ("queries".into(), Json::Number(d.queries as f64)),
        ("shards".into(), Json::Number(d.shards as f64)),
    ];
    // Only on LDP rows: central rows keep their frozen v1 bytes.
    if let Some(ldp) = d.ldp {
        fields.push(("mode".into(), Json::String("ldp".into())));
        fields.push(("epsilon_local".into(), Json::Number(ldp.epsilon_local)));
        fields.push(("universe".into(), Json::Number(ldp.universe as f64)));
        fields.push(("pad".into(), Json::Number(ldp.pad as f64)));
    }
    if let Some(journal) = d.journal {
        fields.push((
            "journal_bytes".into(),
            Json::Number(journal.wal_bytes as f64),
        ));
        fields.push((
            "journal_records".into(),
            Json::Number(journal.wal_records as f64),
        ));
        fields.push((
            "snapshot_generation".into(),
            Json::Number(journal.snapshot_generation as f64),
        ));
    }
    // Only on the wire when true: healthy rows keep their frozen v1 bytes, and the
    // v1/v2 payload-identity guarantee holds in both states.
    if d.degraded {
        fields.push(("degraded".into(), Json::Bool(true)));
    }
    Json::Object(fields)
}

fn u32_rows_json(rows: &[Vec<u32>]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| Json::Array(row.iter().map(|&i| Json::Number(i as f64)).collect()))
            .collect(),
    )
}

/// The former compact tree writer.
fn oracle_print(value: &Json) -> String {
    let mut out = String::new();
    print_into(&mut out, value);
    out
}

fn print_into(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Number(x) => print_number(out, *x),
        Json::String(s) => print_escaped(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_into(out, item);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_escaped(out, k);
                out.push(':');
                print_into(out, v);
            }
            out.push('}');
        }
    }
}

fn print_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{}", x as i64).unwrap();
    } else {
        write!(out, "{x}").unwrap();
    }
}

fn print_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Floats at the writer's edges: non-finite (→ `null`), `-0.0`, integral values at and
/// around the 1e15 switch to float formatting, above 2^53, subnormal and extreme.
const EDGE_FLOATS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    1.0,
    -7.0,
    0.1,
    -2.5,
    1e-7,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1e15,
    -1e15,
    1e15 + 2.0,
    9_007_199_254_740_993.0,
    1e16,
    1e21,
    1e22,
    5e-324,
    f64::MAX,
    f64::MIN,
];

/// Counts at the edges of the integer fast path (they travel as `f64`).
const EDGE_COUNTS: &[u64] = &[
    0,
    1,
    999_999_999_999_999,
    1_000_000_000_000_000,
    1_000_000_000_000_001,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    u32::MAX as u64,
    u64::MAX - 1,
    u64::MAX,
];

fn arb_float() -> impl Strategy<Value = f64> {
    (
        0usize..EDGE_FLOATS.len() + 2,
        any::<u64>(),
        -1.0e6f64..1.0e6,
    )
        .prop_map(
            |(pick, bits, plain)| match pick.checked_sub(EDGE_FLOATS.len()) {
                None => EDGE_FLOATS[pick],
                Some(0) => f64::from_bits(bits),
                Some(_) => plain,
            },
        )
}

fn arb_count() -> impl Strategy<Value = u64> {
    (0usize..EDGE_COUNTS.len() + 2, any::<u64>(), 0u64..100_000).prop_map(|(pick, any, small)| {
        match pick.checked_sub(EDGE_COUNTS.len()) {
            None => EDGE_COUNTS[pick],
            Some(0) => any,
            Some(_) => small,
        }
    })
}

fn arb_item() -> impl Strategy<Value = u32> {
    (any::<bool>(), any::<u32>(), 0u32..1000)
        .prop_map(|(wide, any, small)| if wide { any } else { small })
}

const NON_ASCII: &[&str] = &["é", "€", "😀", "\u{2028}", "\u{feff}", "日本"];

/// Every ASCII character (all 32 controls, `"`, `\`, DEL) plus non-ASCII text.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..128 + NON_ASCII.len(), 0..16).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| match p.checked_sub(128) {
                None => char::from(p as u8).to_string(),
                Some(i) => NON_ASCII[i].to_string(),
            })
            .collect()
    })
}

fn arb_itemsets() -> impl Strategy<Value = Vec<ReleasedItemset>> {
    prop::collection::vec((prop::collection::vec(arb_item(), 0..5), arb_float()), 0..6).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(items, count)| ReleasedItemset { items, count })
                .collect()
        },
    )
}

fn arb_ldp() -> impl Strategy<Value = LdpParams> {
    (arb_float(), any::<u32>(), arb_count()).prop_map(|(epsilon_local, universe, pad)| LdpParams {
        epsilon_local,
        universe,
        pad,
    })
}

fn arb_dataset_status() -> impl Strategy<Value = DatasetStatus> {
    (
        (arb_text(), arb_count(), arb_count(), arb_count()),
        (any::<bool>(), any::<bool>(), arb_count(), arb_count()),
        (arb_float(), arb_float()),
        (
            any::<bool>(),
            arb_ldp(),
            any::<bool>(),
            (arb_count(), arb_count(), arb_count()),
        ),
    )
        .prop_map(
            |(
                (name, transactions, items, shards),
                (index_cached, durable, queries, flags),
                (spent, remaining),
                (ldp, params, journaled, (wal_bytes, wal_records, snapshot_generation)),
            )| DatasetStatus {
                name,
                transactions,
                items,
                index_cached,
                durable,
                spent,
                remaining,
                queries,
                shards,
                ldp: ldp.then_some(params),
                journal: journaled.then_some(JournalMetrics {
                    wal_bytes,
                    wal_records,
                    snapshot_generation,
                }),
                degraded: flags % 2 == 0,
            },
        )
}

fn arb_server() -> impl Strategy<Value = Option<ServerInfo>> {
    (
        (any::<bool>(), any::<u32>(), arb_count(), arb_count()),
        (arb_count(), arb_count(), arb_count()),
        (any::<bool>(), arb_count(), arb_count(), arb_count()),
    )
        .prop_map(
            |(
                (present, protocol_version, uptime_secs, requests_total),
                (rejected_total, shed_total, deadline_closed_total),
                (audited, released, refused, failed_closed),
            )| {
                present.then_some(ServerInfo {
                    protocol_version,
                    uptime_secs,
                    requests_total,
                    rejected_total,
                    shed_total,
                    deadline_closed_total,
                    audit: audited.then_some(AuditSummary {
                        released,
                        refused,
                        failed_closed,
                    }),
                })
            },
        )
}

fn arb_spans() -> impl Strategy<Value = Vec<pb_trace::Span>> {
    prop::collection::vec(
        (
            arb_text(),
            arb_count(),
            arb_count(),
            prop::collection::vec((arb_text(), arb_text()), 0..3),
        ),
        0..4,
    )
    .prop_map(|spans| {
        spans
            .into_iter()
            .map(|(name, start_us, end_us, attrs)| pb_trace::Span {
                name,
                start_us,
                end_us,
                attrs,
            })
            .collect()
    })
}

/// One value of every `Response` arm (every admin reply included), from one draw.
fn arb_responses() -> impl Strategy<Value = Vec<Response>> {
    (
        (
            arb_text(),
            arb_text(),
            arb_itemsets(),
            (arb_float(), arb_float()),
        ),
        (arb_count(), arb_count(), arb_count(), any::<bool>()),
        (
            arb_server(),
            prop::collection::vec(arb_dataset_status(), 0..3),
            0usize..ALL_ERROR_CODES.len(),
            arb_ldp(),
        ),
        (
            prop::collection::vec(arb_count(), 0..6),
            prop::collection::vec(prop::collection::vec(arb_count(), 0..9), 0..3),
            prop::collection::vec(prop::collection::vec(arb_item(), 0..4), 0..4),
            arb_spans(),
        ),
    )
        .prop_map(
            |(
                (name, text, itemsets, (x, y)),
                (a, b, c, flag),
                (server, datasets, code, params),
                (counts, histograms, rows, spans),
            )| {
                vec![
                    Response::Query(QueryReply {
                        dataset: name.clone(),
                        epsilon_spent: x,
                        remaining_budget: y,
                        seed: a,
                        lambda: b,
                        candidate_count: c,
                        itemsets,
                    }),
                    Response::Status(StatusReply { server, datasets }),
                    Response::Shutdown,
                    Response::Error(WireError::new(ALL_ERROR_CODES[code], text.clone())),
                    Response::Admin(AdminReply::Registered {
                        name: name.clone(),
                        transactions: a,
                        shards: b,
                        durable: flag,
                        epsilon_spent: x,
                    }),
                    Response::Admin(AdminReply::Unregistered { name: name.clone() }),
                    Response::Admin(AdminReply::Resharded {
                        name: name.clone(),
                        shards: c,
                    }),
                    Response::Admin(AdminReply::FaultsArmed {
                        spec: text.clone(),
                        armed: a,
                    }),
                    Response::Admin(AdminReply::RegisteredLdp {
                        name: name.clone(),
                        transactions: b,
                        shards: c,
                        params,
                    }),
                    Response::Admin(AdminReply::SnapshotEvery { every: a }),
                    Response::Admin(AdminReply::Consistency {
                        name: name.clone(),
                        enabled: flag,
                    }),
                    Response::ShardLoaded {
                        key: text.clone(),
                        rows: b,
                    },
                    Response::ShardCounts(counts),
                    Response::ShardHistograms(histograms),
                    Response::Trace(pb_trace::Trace {
                        id: text.clone(),
                        op: name.clone(),
                        dataset: name,
                        outcome: text,
                        total_us: c,
                        spans,
                    }),
                    Response::Perturbed { rows, seed: a },
                ]
            },
        )
}

/// Asserts the streaming bytes equal the oracle's at v1 and v2, with and without an
/// id, and that `Json`'s own writer prints the oracle tree the oracle's way.
fn assert_same_bytes(response: &Response, id: &str) {
    for v in [1, PROTOCOL_VERSION] {
        for id in [None, Some(id)] {
            let tree = oracle_tree(response, v, id);
            let expected = oracle_print(&tree);
            assert_eq!(response.encode(v, id), expected, "v{v} id {id:?}");
            assert_eq!(tree.to_string(), expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_encoder_matches_the_tree_oracle(responses in arb_responses(), id in arb_text()) {
        for response in &responses {
            assert_same_bytes(response, &id);
        }
    }
}

#[test]
fn every_edge_value_encodes_like_the_oracle() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let text = format!("q\"b\\s/{controls}\u{7f}é€😀");
    for &x in EDGE_FLOATS {
        for &n in EDGE_COUNTS {
            let query = Response::Query(QueryReply {
                dataset: text.clone(),
                epsilon_spent: x,
                remaining_budget: -x,
                seed: n,
                lambda: n,
                candidate_count: n,
                itemsets: vec![
                    ReleasedItemset {
                        items: vec![],
                        count: x,
                    },
                    ReleasedItemset {
                        items: vec![0, u32::MAX],
                        count: n as f64,
                    },
                ],
            });
            assert_same_bytes(&query, &text);
            assert_same_bytes(&Response::ShardCounts(vec![n, 0, n]), "");
        }
    }
    for empty in [
        Response::Query(QueryReply {
            dataset: String::new(),
            epsilon_spent: 0.0,
            remaining_budget: f64::INFINITY,
            seed: 0,
            lambda: 0,
            candidate_count: 0,
            itemsets: vec![],
        }),
        Response::ShardCounts(vec![]),
        Response::ShardHistograms(vec![]),
        Response::ShardHistograms(vec![vec![], vec![]]),
        Response::Perturbed {
            rows: vec![vec![]],
            seed: 0,
        },
        Response::Status(StatusReply {
            server: None,
            datasets: vec![],
        }),
    ] {
        assert_same_bytes(&empty, &text);
    }
}
