//! Black-box observability tests: the `trace` op and `/v1/trace/{id}` return the span
//! tree of a finished request, `/metrics` renders a structurally valid Prometheus
//! exposition with latency histograms, and the durable ε-audit log reconciles exactly
//! with the debit journal across an unclean restart.

use pb_dp::Epsilon;
use pb_fim::TransactionDb;
use pb_proto::PbClient;
use pb_service::http::validate_prometheus;
use pb_service::{
    DataSource, DatasetRegistry, Json, PbServer, RegisterSpec, ServiceConfig, StateDir,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// A dense little market-basket database with an unambiguous top-k.
fn fixture_db(n: usize) -> TransactionDb {
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let slot = i % 10;
        let mut row: Vec<u32> = (0..5u32).filter(|&j| slot < 10 - 2 * j as usize).collect();
        row.push(5 + slot as u32);
        rows.push(row);
    }
    TransactionDb::from_transactions(rows)
}

/// One HTTP/1.1 request over a fresh connection; returns `(status, body)`.
fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_exchange(addr, method, path, body);
    (status, body)
}

/// [`http_request`] that also returns the `X-Trace-Id` header, if the reply has one.
fn http_exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send http request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read http response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let trace_id = head.split("\r\n").find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-trace-id")
            .then(|| value.trim().to_string())
    });
    (status, trace_id, body.to_string())
}

#[test]
fn trace_op_returns_the_span_tree_and_never_perturbs_release_bytes() {
    let registry = Arc::new(DatasetRegistry::new());
    // Two local shards: the sharded engine splits counting into distinct
    // noise_draw / shard_merge / reconstruct phases, which is exactly what the
    // span-tree assertions below want to see.
    registry
        .register_sharded("d", fixture_db(300), Epsilon::Finite(50.0), 2)
        .unwrap();
    let config = ServiceConfig {
        threads: 2,
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().expect("http configured").unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = PbClient::connect(addr).unwrap();
    // Same pinned-seed query, once as an untraceable v1 line and once as a v2
    // envelope whose id becomes the trace id: the release bytes must be identical —
    // tracing observes the request, it never perturbs it.
    let v1 = client
        .raw_line(r#"{"op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":9}"#)
        .unwrap();
    let v2 = client
        .raw_line(
            r#"{"v":2,"id":"trace-me","op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":9}"#,
        )
        .unwrap();
    let release = |raw: &str| {
        let start = raw.find(r#""itemsets""#).expect("released itemsets");
        raw[start..].to_string()
    };
    assert_eq!(release(&v1), release(&v2));

    // The recorded trace is queryable over TCP by the envelope id the client chose.
    let trace = client.trace("trace-me").unwrap();
    assert_eq!(trace.id, "trace-me");
    assert_eq!(trace.op, "query");
    assert_eq!(trace.dataset, "d");
    assert_eq!(trace.outcome, "released");
    for stage in [
        "parse",
        "admission",
        "noise_draw",
        "shard_merge",
        "debit",
        "encode",
    ] {
        assert!(trace.has_span(stage), "missing span `{stage}`: {trace:?}");
    }
    // Spans are rebased onto the request arrival and stay inside the total.
    for span in &trace.spans {
        assert!(span.end_us >= span.start_us, "{span:?}");
        assert!(
            span.end_us <= trace.total_us,
            "{span:?} vs {}",
            trace.total_us
        );
    }

    // The same trace is one GET away on the HTTP gateway.
    let (status, body) = http_request(http_addr, "GET", "/v1/trace/trace-me", "");
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(body.trim()).unwrap();
    assert_eq!(
        parsed.get("trace_id").and_then(Json::as_str),
        Some("trace-me")
    );
    assert!(body.contains(r#""name":"noise_draw""#), "{body}");

    // An HTTP query is traced under a server-assigned `s<N>` id that the reply carries
    // in `X-Trace-Id`, and its encode runs inside the trace.
    let (status, trace_id, body) = http_exchange(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"dataset":"d","k":5,"epsilon":2.0,"seed":9}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(release(&body), release(&v1));
    let trace_id = trace_id.expect("a traced HTTP reply names its trace");
    assert!(trace_id.starts_with('s'), "{trace_id}");
    let (status, http_trace) = http_request(http_addr, "GET", &format!("/v1/trace/{trace_id}"), "");
    assert_eq!(status, 200, "{http_trace}");
    assert!(http_trace.contains(r#""trace_op":"query""#), "{http_trace}");
    assert!(http_trace.contains(r#""name":"encode""#), "{http_trace}");

    // A malformed body is rejected before any trace opens, so its reply names none.
    let (status, trace_id, body) = http_exchange(http_addr, "POST", "/v1/query", "{not json");
    assert_eq!(status, 400, "{body}");
    assert_eq!(trace_id, None, "{body}");

    // Unknown ids fail with a structured error, not an empty 200.
    let (status, body) = http_request(http_addr, "GET", "/v1/trace/never-was", "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""code":"unavailable""#), "{body}");

    // After real traffic the exposition carries the latency histograms and the audit
    // tallies, and the whole thing is structurally valid Prometheus text.
    let (status, metrics) = http_request(http_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_prometheus(&metrics).unwrap_or_else(|e| panic!("{e}\n---\n{metrics}"));
    for family in [
        "pb_request_duration_seconds_bucket{op=\"query\",le=\"",
        "pb_stage_duration_seconds_bucket{stage=\"noise_draw\",le=\"",
        "pb_stage_duration_seconds_bucket{stage=\"encode\",le=\"",
        "pb_audit_released_total 3",
        "pb_audit_wedged 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing `{family}` in:\n{metrics}"
        );
    }

    // Lifetime audit tallies ride on v2 status.
    let status = client.status().unwrap();
    let info = status.server.expect("v2 status carries server info");
    let audit = info.audit.expect("audit tallies");
    assert_eq!(audit.released, 3);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn audit_log_reconciles_exactly_with_the_journal_after_an_unclean_restart() {
    let scratch = std::env::temp_dir().join(format!("pb-svc-audit-recon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let fimi = scratch.join("retail.dat");
    {
        let mut rows = String::new();
        for i in 0..200 {
            let slot = i % 10;
            for j in 0..5u32 {
                if slot < 10 - 2 * j as usize {
                    rows.push_str(&format!("{j} "));
                }
            }
            rows.push_str(&format!("{}\n", 5 + slot));
        }
        std::fs::write(&fimi, rows).unwrap();
    }

    // Generation 1: spend ε twice; both land in the journal and the audit log.
    {
        let registry =
            Arc::new(DatasetRegistry::with_persistence(StateDir::open(&scratch).unwrap()).unwrap());
        registry
            .register_spec(RegisterSpec::central(
                "retail",
                DataSource::File(fimi.to_string_lossy().into_owned()),
                Epsilon::Finite(4.0),
            ))
            .unwrap();
        let server = PbServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServiceConfig {
                threads: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        let mut client = PbClient::connect(addr).unwrap();
        client.query("retail", 5, 0.5, Some(7)).unwrap();
        client.query("retail", 5, 0.25, Some(8)).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // Simulate a crash that lost audit records but not the (written-first) journal
    // debits: delete the audit log outright — the worst possible torn state.
    let audit_path = scratch.join("audit.jsonl");
    let before = std::fs::read_to_string(&audit_path).unwrap();
    assert_eq!(
        before.lines().count(),
        2,
        "one audit line per release: {before}"
    );
    std::fs::remove_file(&audit_path).unwrap();

    // Generation 2: recovery replays the journal, finds the audit log short, and
    // appends a `reconciled` record carrying the missing ε.
    let registry =
        Arc::new(DatasetRegistry::with_persistence(StateDir::open(&scratch).unwrap()).unwrap());
    registry.recover().unwrap();
    let server = PbServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServiceConfig {
            threads: 2,
            http_port: Some(0),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().expect("http configured").unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    // One served round-trip proves run() is past its setup (audit open + reconcile
    // happen before the accept loop starts) — only then is the file safe to read.
    let mut client = PbClient::connect(addr).unwrap();
    client.status().unwrap();

    // The audit log's released-ε total equals the journal's spent ε — exactly.
    let journal_spent = registry.get("retail").unwrap().ledger().unwrap().spent();
    assert_eq!(journal_spent, 0.75);
    let replayed = std::fs::read_to_string(&audit_path).unwrap();
    let audited: f64 = replayed
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|r| {
            matches!(
                r.get("outcome").and_then(Json::as_str),
                Some("released") | Some("reconciled")
            )
        })
        .map(|r| r.get("epsilon").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(
        audited, journal_spent,
        "audit Σε must equal journal spent ε"
    );
    assert!(replayed.contains(r#""outcome":"reconciled""#), "{replayed}");
    assert!(replayed.contains(r#""trace":"recovery""#), "{replayed}");

    // New spend on top of the reconciled baseline keeps the books balanced.
    client.query("retail", 5, 0.5, Some(9)).unwrap();
    let after = std::fs::read_to_string(&audit_path).unwrap();
    let audited: f64 = after
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|r| {
            matches!(
                r.get("outcome").and_then(Json::as_str),
                Some("released") | Some("reconciled")
            )
        })
        .map(|r| r.get("epsilon").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(
        audited,
        registry.get("retail").unwrap().ledger().unwrap().spent()
    );

    // On this durable server the audit append (and its fsync) is a stage of its own:
    // a span in the trace and a `pb_stage_duration_seconds` series, not time left
    // unattributed between the debit and the encode.
    client
        .raw_line(r#"{"v":2,"id":"audited","op":"query","dataset":"retail","k":5,"epsilon":0.25,"seed":11}"#)
        .unwrap();
    let trace = client.trace("audited").unwrap();
    assert_eq!(trace.outcome, "released");
    for stage in ["debit", "audit", "encode"] {
        assert!(trace.has_span(stage), "missing span `{stage}`: {trace:?}");
    }
    let (status, metrics) = http_request(http_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("pb_stage_duration_seconds_bucket{stage=\"audit\",le=\""),
        "missing the audit stage in:\n{metrics}"
    );

    // A refused query (budget exhausted) is audited too, spending nothing.
    let err = client.query("retail", 5, 100.0, Some(10)).unwrap_err();
    let message = format!("{err}");
    assert!(message.contains("budget"), "{message}");
    let last = std::fs::read_to_string(&audit_path).unwrap();
    assert!(last
        .lines()
        .last()
        .unwrap()
        .contains(r#""outcome":"refused""#));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
}
