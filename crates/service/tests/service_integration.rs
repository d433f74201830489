//! Integration tests: a real `PbServer` on a loopback port, hammered by client threads.

use pb_dp::Epsilon;
use pb_fim::TransactionDb;
use pb_ldp::LdpChannel;
use pb_proto::{
    AdminReply, ClientError, LdpParams, PbClient, RegisterLdpRequest, RegisterRequest,
    RegisterSource,
};
use pb_service::{
    DataSource, DatasetRegistry, Json, PbServer, RegisterSpec, ServiceConfig, StateDir,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

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

fn start_server(registry: Arc<DatasetRegistry>, threads: usize) -> (SocketAddr, JoinHandle<()>) {
    let config = ServiceConfig {
        threads,
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", registry, config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// One connection issuing many requests.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).expect("well-formed response JSON")
    }
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let mut client = Client::connect(addr);
    let ack = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("ok"));
    handle.join().expect("server thread exits cleanly");
}

/// One HTTP/1.1 request over a fresh connection; returns `(status, body)`.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    bearer: Option<&str>,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    let auth = bearer
        .map(|t| format!("Authorization: Bearer {t}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{auth}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send http request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read http response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("content-length:")),
        "responses must carry Content-Length: {head}"
    );
    (status, body.to_string())
}

/// The release payload (`"itemsets":…` to the end) of a response, for byte-identity
/// comparisons across transports.
fn release_bytes(response: &str) -> &str {
    let start = response
        .find(r#""itemsets":"#)
        .unwrap_or_else(|| panic!("no itemsets in {response}"));
    &response[start..]
}

#[test]
fn concurrent_clients_never_overspend_the_ledger() {
    // Budget 0.5, queries of ε = 0.025 → exactly 20 may succeed, however 8 client
    // threads × 4 attempts interleave.
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("retail", fixture_db(120), Epsilon::Finite(0.5))
        .unwrap();
    let (addr, handle) = start_server(Arc::clone(&registry), 4);

    let successes: usize = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut ok = 0;
                    for q in 0..4 {
                        let seed = t * 1_000 + q;
                        let response = client.request(&format!(
                            r#"{{"op":"query","dataset":"retail","k":4,"epsilon":0.025,"seed":{seed}}}"#
                        ));
                        match response.get("status").and_then(Json::as_str) {
                            Some("ok") => {
                                // At this tiny per-query ε the λ draw is near-uniform, so a
                                // λ = 1 release can truncate below k (documented behaviour);
                                // the published length must equal min(k, candidate_count).
                                let candidates = response
                                    .get("candidate_count")
                                    .and_then(Json::as_u64)
                                    .expect("ok responses carry candidate_count")
                                    as usize;
                                assert_eq!(
                                    response.get("itemsets").and_then(Json::as_array).map(<[Json]>::len),
                                    Some(candidates.min(4))
                                );
                                ok += 1;
                            }
                            Some("error") => {
                                let message = response
                                    .get("error")
                                    .and_then(Json::as_str)
                                    .unwrap_or_default();
                                assert!(
                                    message.contains("budget"),
                                    "only budget exhaustion may fail these queries, got: {message}"
                                );
                            }
                            other => panic!("unexpected status {other:?}"),
                        }
                    }
                    ok
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });

    assert_eq!(successes, 20, "ledger must admit exactly budget/ε queries");
    let entry = registry.get("retail").unwrap();
    assert!(
        entry.ledger().unwrap().spent() <= 0.5 + 1e-9,
        "over-spend detected"
    );
    assert!(entry.ledger().unwrap().is_exhausted());
    assert_eq!(entry.queries_served(), 20);
    assert!(
        entry.index_is_cached(),
        "queries must have built the shared index"
    );

    // The exhausted dataset rejects even a tiny further query.
    let mut client = Client::connect(addr);
    let refused =
        client.request(r#"{"op":"query","dataset":"retail","k":2,"epsilon":0.001,"seed":1}"#);
    assert_eq!(refused.get("status").and_then(Json::as_str), Some("error"));

    shutdown(addr, handle);
}

#[test]
fn pinned_seed_queries_are_reproducible_and_match_the_library() {
    let registry = Arc::new(DatasetRegistry::new());
    let db = fixture_db(300);
    registry
        .register("d", db.clone(), Epsilon::Finite(50.0))
        .unwrap();
    let (addr, handle) = start_server(Arc::clone(&registry), 2);

    let mut client = Client::connect(addr);
    let line = r#"{"op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":9}"#;
    let a = client.request(line);
    let b = client.request(line);
    assert_eq!(a.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        a.get("itemsets"),
        b.get("itemsets"),
        "same seed, same release"
    );
    assert_eq!(a.get("lambda"), b.get("lambda"));

    // And the release equals a direct library call with the same seed/ε — the service
    // adds routing and accounting, never different noise.
    use pb_core::PrivBasis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let expected = PrivBasis::with_defaults()
        .run(&mut rng, &db, 5, Epsilon::Finite(2.0))
        .unwrap();
    let served = a.get("itemsets").and_then(Json::as_array).unwrap();
    assert_eq!(served.len(), expected.itemsets.len());
    for (row, (itemset, count)) in served.iter().zip(&expected.itemsets) {
        let items: Vec<u64> = row
            .get("items")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        let expected_items: Vec<u64> = itemset.iter().map(u64::from).collect();
        assert_eq!(items, expected_items);
        let served_count = row.get("count").and_then(Json::as_f64).unwrap();
        assert!((served_count - count).abs() < 1e-9);
    }

    // Distinct seeds consume distinct ε but may differ in output.
    let c = client.request(r#"{"op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":10}"#);
    assert_eq!(c.get("status").and_then(Json::as_str), Some("ok"));

    shutdown(addr, handle);
}

#[test]
fn served_ledger_state_survives_a_server_generation() {
    // Two *in-process* server generations over one state directory: generation 1
    // spends and is dropped without ceremony; generation 2 recovers the ledger, the
    // query counter, and — because the QueryContext rebuild is deterministic — serves
    // byte-identical pinned-seed releases.
    let scratch = std::env::temp_dir().join(format!("pb-svc-generations-{}", std::process::id()));
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

    let query = r#"{"op":"query","dataset":"retail","k":5,"epsilon":0.5,"seed":77}"#;
    let first_release;
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
        let (addr, handle) = start_server(Arc::clone(&registry), 2);
        let mut client = Client::connect(addr);
        let response = client.request(query);
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        first_release = response.get("itemsets").cloned().unwrap();
        let status = client.request(r#"{"op":"status"}"#);
        let row = &status.get("datasets").and_then(Json::as_array).unwrap()[0];
        assert_eq!(row.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(row.get("epsilon_spent").and_then(Json::as_f64), Some(0.5));
        shutdown(addr, handle);
    }

    // Generation 2: nothing carried over in memory — everything comes from disk.
    let registry =
        Arc::new(DatasetRegistry::with_persistence(StateDir::open(&scratch).unwrap()).unwrap());
    let report = registry.recover().unwrap();
    assert_eq!(report.loaded, vec!["retail".to_string()]);
    let (addr, handle) = start_server(Arc::clone(&registry), 2);
    let mut client = Client::connect(addr);
    let status = client.request(r#"{"op":"status"}"#);
    let row = &status.get("datasets").and_then(Json::as_array).unwrap()[0];
    assert_eq!(row.get("epsilon_spent").and_then(Json::as_f64), Some(0.5));
    assert_eq!(
        row.get("remaining_budget").and_then(Json::as_f64),
        Some(3.5)
    );
    assert_eq!(row.get("queries").and_then(Json::as_u64), Some(1));
    let response = client.request(query);
    assert_eq!(
        response.get("itemsets"),
        Some(&first_release),
        "recovered context must reproduce the pinned-seed release"
    );
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn releases_are_byte_identical_across_tcp_v1_tcp_v2_and_http() {
    // The acceptance bar for the protocol redesign: the same pinned-seed query must
    // release the exact same bytes whether it arrives as a legacy v1 line, a v2
    // envelope, or an HTTP POST — versioning wraps the payload, it never perturbs it.
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("d", fixture_db(300), Epsilon::Finite(50.0))
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

    let mut raw = PbClient::connect(addr).unwrap();
    let v1 = raw
        .raw_line(r#"{"op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":9}"#)
        .unwrap();
    let v2 = raw
        .raw_line(r#"{"v":2,"id":"q1","op":"query","dataset":"d","k":5,"epsilon":2.0,"seed":9}"#)
        .unwrap();
    let (http_status, http) = http_request(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"dataset":"d","k":5,"epsilon":2.0,"seed":9}"#,
        None,
    );
    assert_eq!(http_status, 200, "{http}");
    assert!(v1.starts_with(r#"{"status":"ok""#), "{v1}");
    assert!(v2.starts_with(r#"{"v":2,"id":"q1","status":"ok""#), "{v2}");
    assert!(
        http.starts_with(r#"{"v":2,"id":null,"status":"ok""#),
        "{http}"
    );
    assert_eq!(
        release_bytes(&v1),
        release_bytes(&v2),
        "v1 and v2 must release identical bytes"
    );
    assert_eq!(
        release_bytes(&v1),
        release_bytes(&http),
        "TCP and HTTP must release identical bytes"
    );
    // And the typed client decodes the same release.
    let typed = raw.query("d", 5, 2.0, Some(9)).unwrap();
    assert_eq!(typed.seed, 9);
    assert_eq!(
        typed.itemsets.len(),
        release_bytes(&v1).matches(r#""items":"#).count()
    );
    shutdown(addr, handle);
}

#[test]
fn register_ops_without_shards_keep_the_recorded_layout() {
    // Two manifest-recorded names whose recovery failed (their sources moved away)
    // are re-registered over the wire once the sources are back. Neither register op
    // names `shards`, so each keeps the layout the manifest records; a new name gets 1.
    let scratch =
        std::env::temp_dir().join(format!("pb-svc-recorded-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let rows: String = (0..12)
        .map(|i| format!("{} {}\n", i % 3, 3 + i % 4))
        .collect();
    let central = scratch.join("central.dat");
    let local = scratch.join("local.dat");
    std::fs::write(&central, &rows).unwrap();
    std::fs::write(&local, &rows).unwrap();
    let (central, local) = (
        central.to_string_lossy().into_owned(),
        local.to_string_lossy().into_owned(),
    );
    let params = LdpParams {
        epsilon_local: 6.0,
        universe: 8,
        pad: 2,
    };
    let channel = LdpChannel::new(params.epsilon_local, params.universe, 2).unwrap();
    {
        let registry =
            DatasetRegistry::with_persistence(StateDir::open(&scratch).unwrap()).unwrap();
        registry
            .register_spec(RegisterSpec {
                shards: Some(3),
                ..RegisterSpec::central(
                    "c",
                    DataSource::File(central.clone()),
                    Epsilon::Finite(4.0),
                )
            })
            .unwrap();
        registry
            .register_spec(RegisterSpec {
                shards: Some(4),
                ..RegisterSpec::ldp("l", DataSource::File(local.clone()), channel)
            })
            .unwrap();
    }
    for path in [&central, &local] {
        std::fs::rename(path, format!("{path}.moved")).unwrap();
    }
    let registry =
        Arc::new(DatasetRegistry::with_persistence(StateDir::open(&scratch).unwrap()).unwrap());
    let report = registry.recover().unwrap();
    assert_eq!(report.failed.len(), 2, "{report:?}");
    assert!(registry.is_empty());
    for path in [&central, &local] {
        std::fs::rename(format!("{path}.moved"), path).unwrap();
    }

    let config = ServiceConfig {
        threads: 2,
        admin_token: Some("s3cret".into()),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = PbClient::connect(addr).unwrap();
    let register = |name: &str, path: &str| RegisterRequest {
        name: name.into(),
        source: RegisterSource::Path(path.into()),
        budget: Some(4.0),
        shards: None,
    };
    let register_ldp = |name: &str, path: &str| RegisterLdpRequest {
        name: name.into(),
        source: RegisterSource::Path(path.into()),
        params,
        shards: None,
    };
    let reply = client.register("s3cret", register("c", &central)).unwrap();
    assert!(
        matches!(reply, AdminReply::Registered { shards: 3, .. }),
        "{reply:?}"
    );
    let reply = client
        .register_ldp("s3cret", register_ldp("l", &local))
        .unwrap();
    assert!(
        matches!(reply, AdminReply::RegisteredLdp { shards: 4, .. }),
        "{reply:?}"
    );
    let reply = client
        .register("s3cret", register("fresh", &central))
        .unwrap();
    assert!(
        matches!(reply, AdminReply::Registered { shards: 1, .. }),
        "{reply:?}"
    );
    let reply = client
        .register_ldp("s3cret", register_ldp("fresh-ldp", &local))
        .unwrap();
    assert!(
        matches!(reply, AdminReply::RegisteredLdp { shards: 1, .. }),
        "{reply:?}"
    );
    for (name, shards) in [("c", 3), ("l", 4), ("fresh", 1), ("fresh-ldp", 1)] {
        assert_eq!(registry.get(name).unwrap().shards(), shards, "{name}");
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn admin_ops_register_reshard_unregister_live() {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("seeded", fixture_db(100), Epsilon::Finite(3.0))
        .unwrap();
    let config = ServiceConfig {
        threads: 2,
        admin_token: Some("s3cret".into()),
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().unwrap().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = PbClient::connect(addr).unwrap();

    // Wrong token, missing token, and admin-over-v1 are all rejected — and the
    // registry must be untouched afterwards.
    let refused = client.unregister("wrong", "seeded").unwrap_err();
    match refused {
        ClientError::Server(e) => assert_eq!(e.code, pb_proto::ErrorCode::Unauthorized),
        other => panic!("{other}"),
    }
    let raw = client
        .raw_line(r#"{"v":2,"id":"x","op":"unregister","name":"seeded"}"#)
        .unwrap();
    assert!(raw.contains(r#""code":"unauthorized""#), "{raw}");
    let raw = client
        .raw_line(r#"{"op":"unregister","name":"seeded"}"#)
        .unwrap();
    assert!(
        raw.contains("unknown op `unregister` (expected query, status, or shutdown)"),
        "legacy lines must not see the admin surface: {raw}"
    );
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/unregister",
        r#"{"name":"seeded"}"#,
        Some("wrong"),
    );
    assert_eq!(status, 401, "{body}");
    assert!(registry.get("seeded").is_some(), "rejections must not act");
    assert_eq!(registry.len(), 1);

    // Hot-register inline rows with the right token.
    let rows: Vec<Vec<u32>> = (0..60).map(|i| vec![i % 5, 5 + (i % 3)]).collect();
    let ack = client
        .register(
            "s3cret",
            RegisterRequest {
                name: "hot".into(),
                source: RegisterSource::Rows(rows),
                budget: Some(2.0),
                shards: Some(2),
            },
        )
        .unwrap();
    match ack {
        AdminReply::Registered {
            name,
            transactions,
            shards,
            durable,
            epsilon_spent,
        } => {
            assert_eq!(name, "hot");
            assert_eq!(transactions, 60);
            assert_eq!(shards, 2);
            assert!(!durable);
            assert_eq!(epsilon_spent, 0.0);
        }
        other => panic!("{other:?}"),
    }
    // Registering the same name again is a conflict.
    let dup = client
        .register(
            "s3cret",
            RegisterRequest {
                name: "hot".into(),
                source: RegisterSource::Rows(vec![vec![1]]),
                budget: Some(2.0),
                shards: None,
            },
        )
        .unwrap_err();
    match dup {
        ClientError::Server(e) => assert_eq!(e.code, pb_proto::ErrorCode::Conflict),
        other => panic!("{other}"),
    }

    // The hot dataset serves queries immediately; a pinned seed is stable across a
    // live reshard.
    let before = client.query("hot", 3, 0.25, Some(11)).unwrap();
    match client.reshard("s3cret", "hot", 4).unwrap() {
        AdminReply::Resharded { name, shards } => {
            assert_eq!(name, "hot");
            assert_eq!(shards, 4);
        }
        other => panic!("{other:?}"),
    }
    let after = client.query("hot", 3, 0.25, Some(11)).unwrap();
    assert_eq!(before.itemsets, after.itemsets);
    // Both queries debited one shared ledger.
    assert_eq!(after.remaining_budget, 1.5);

    // Unregister over HTTP with the right token; the dataset stops serving.
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/unregister",
        r#"{"name":"hot"}"#,
        Some("s3cret"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""unregistered":"hot""#), "{body}");
    let gone = client.query("hot", 3, 0.25, None).unwrap_err();
    match gone {
        ClientError::Server(e) => assert_eq!(e.code, pb_proto::ErrorCode::UnknownDataset),
        other => panic!("{other}"),
    }

    shutdown(addr, handle);
}

#[test]
fn v2_status_carries_server_metadata_and_counters() {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("d", fixture_db(80), Epsilon::Finite(5.0))
        .unwrap();
    let config = ServiceConfig {
        threads: 2,
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().unwrap().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = PbClient::connect(addr).unwrap();
    client.query("d", 3, 0.5, Some(1)).unwrap();
    let _ = client.query("d", 0, 0.5, None); // rejected: k = 0
    let status = client.status().unwrap();
    let info = status.server.expect("v2 status carries ServerInfo");
    assert_eq!(info.protocol_version, 2);
    // query + failed query + this status (counted before building the reply).
    assert_eq!(info.requests_total, 3);
    assert_eq!(info.rejected_total, 1);
    assert_eq!(status.datasets.len(), 1);
    assert_eq!(status.datasets[0].queries, 1);

    // The legacy status response must NOT leak the new fields — its bytes are frozen.
    let v1 = client.raw_line(r#"{"op":"status"}"#).unwrap();
    assert!(v1.starts_with(r#"{"status":"ok","datasets":["#), "{v1}");
    assert!(!v1.contains("protocol_version"), "{v1}");
    assert!(!v1.contains("uptime_secs"), "{v1}");

    // HTTP: status route and the Prometheus scrape read the same counters.
    let (code, body) = http_request(http_addr, "GET", "/v1/status", "", None);
    assert_eq!(code, 200);
    assert!(body.contains(r#""protocol_version":2"#), "{body}");
    let (code, metrics) = http_request(http_addr, "GET", "/metrics", "", None);
    assert_eq!(code, 200);
    for needle in [
        "# TYPE pb_requests_total counter",
        "pb_protocol_version 2",
        "pb_datasets 1",
        "pb_dataset_epsilon_spent{dataset=\"d\"} 0.5",
        "pb_dataset_queries_total{dataset=\"d\"} 1",
    ] {
        assert!(
            metrics.contains(needle),
            "missing `{needle}` in:\n{metrics}"
        );
    }
    // Unknown routes 404 with the shared error shape; malformed bodies 400.
    let (code, body) = http_request(http_addr, "GET", "/nope", "", None);
    assert_eq!(code, 404);
    assert!(body.contains(r#""code":"unknown_op""#), "{body}");
    let (code, body) = http_request(http_addr, "POST", "/v1/query", "{not json", None);
    assert_eq!(code, 400, "{body}");
    let (code, body) = http_request(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"dataset":"nope","k":2,"epsilon":0.1}"#,
        None,
    );
    assert_eq!(code, 404, "{body}");
    assert!(body.contains(r#""code":"unknown_dataset""#), "{body}");

    shutdown(addr, handle);
}

#[test]
fn http_keep_alive_serves_sequential_requests() {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("d", fixture_db(60), Epsilon::Infinite)
        .unwrap();
    let config = ServiceConfig {
        threads: 2,
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().unwrap().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // Two requests on ONE connection: the gateway must frame responses with
    // Content-Length and keep the socket open between them.
    let mut stream = TcpStream::connect(http_addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..2 {
        let body = format!(r#"{{"dataset":"d","k":2,"epsilon":0.5,"seed":{i}}}"#);
        write!(
            stream,
            "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{line}");
        let mut content_length = None;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header == "\r\n" {
                break;
            }
            if let Some(raw) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = Some(raw.trim().parse::<usize>().unwrap());
            }
        }
        let mut body = vec![0u8; content_length.expect("Content-Length header")];
        reader.read_exact(&mut body).unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains(r#""status":"ok""#), "{text}");
    }
    drop(stream);
    shutdown(addr, handle);
}

#[test]
fn status_reports_datasets_and_errors_are_structured() {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("alpha", fixture_db(100), Epsilon::Finite(3.0))
        .unwrap();
    let beta_db = fixture_db(200);
    registry
        .register("beta", beta_db.clone(), Epsilon::Infinite)
        .unwrap();
    let (addr, handle) = start_server(Arc::clone(&registry), 2);

    let mut client = Client::connect(addr);

    // Status before any query: nothing cached, nothing spent.
    let status = client.request(r#"{"op":"status"}"#);
    let datasets = status.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(datasets.len(), 2);
    assert_eq!(
        datasets[0].get("name").and_then(Json::as_str),
        Some("alpha")
    );
    assert_eq!(
        datasets[0].get("index_cached").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        datasets[0].get("durable").and_then(Json::as_bool),
        Some(false),
        "in-memory registries must report durable:false"
    );
    assert_eq!(
        datasets[0].get("epsilon_spent").and_then(Json::as_f64),
        Some(0.0)
    );
    // Infinite budget serialises as null.
    assert_eq!(datasets[1].get("remaining_budget"), Some(&Json::Null));

    // Unknown dataset, malformed JSON, invalid parameters: structured errors, connection
    // stays usable.
    let e = client.request(r#"{"op":"query","dataset":"nope","k":2,"epsilon":0.1}"#);
    assert!(e
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown dataset"));
    let e = client.request("this is not json");
    assert_eq!(e.get("status").and_then(Json::as_str), Some("error"));
    let e = client.request(r#"{"op":"query","dataset":"alpha","k":0,"epsilon":0.1}"#);
    assert_eq!(e.get("status").and_then(Json::as_str), Some("error"));

    // Infinite-ledger dataset: the ledger stops *accounting*, but the mechanism must
    // still run at the requested finite ε. The release has to match a direct library
    // run at Epsilon::Finite — if the server leaked the ledger's Epsilon::Infinite into
    // the mechanism it would publish exact (noiseless, non-private) counts instead.
    let q = client.request(r#"{"op":"query","dataset":"beta","k":3,"epsilon":0.4,"seed":21}"#);
    assert_eq!(q.get("status").and_then(Json::as_str), Some("ok"));
    {
        use pb_core::PrivBasis;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let expected = PrivBasis::with_defaults()
            .run(&mut rng, &beta_db, 3, Epsilon::Finite(0.4))
            .unwrap();
        let served = q.get("itemsets").and_then(Json::as_array).unwrap();
        let mut some_noise = false;
        for (row, (itemset, count)) in served.iter().zip(&expected.itemsets) {
            let served_count = row.get("count").and_then(Json::as_f64).unwrap();
            assert!(
                (served_count - count).abs() < 1e-9,
                "infinite-ledger query must still carry Finite(ε) noise"
            );
            some_noise |= (served_count - beta_db.support(itemset) as f64).abs() > 1e-9;
        }
        assert!(
            some_noise,
            "release matches exact supports — noiseless leak?"
        );
    }

    // A hostile newline-free request stream is cut off at the line cap with a
    // structured error instead of growing worker memory unboundedly.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let blob = vec![b'a'; 3 << 20];
        // The server may cut us off mid-stream (RST on close); that is success too.
        let _ = writer.write_all(&blob);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(
            response.contains("request line too long"),
            "got: {response}"
        );
    }

    // A real query against `alpha` flips its cached-index bit and shows the debit.
    let q = client.request(r#"{"op":"query","dataset":"alpha","k":3,"epsilon":1.5,"seed":4}"#);
    assert_eq!(q.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(q.get("remaining_budget").and_then(Json::as_f64), Some(1.5));
    let status = client.request(r#"{"op":"status"}"#);
    let datasets = status.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(
        datasets[0].get("index_cached").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        datasets[0].get("epsilon_spent").and_then(Json::as_f64),
        Some(1.5)
    );
    assert_eq!(datasets[0].get("queries").and_then(Json::as_u64), Some(1));

    shutdown(addr, handle);
}

#[test]
fn ldp_surface_is_served_over_http() {
    // The LDP ops must ride the same gateway as everything else: register_ldp /
    // snapshot_every / consistency behind the bearer token, perturb open (it is
    // the same randomizer a client runs locally), and a query release that is
    // byte-identical to the TCP path.
    let registry = Arc::new(DatasetRegistry::new());
    let config = ServiceConfig {
        threads: 2,
        admin_token: Some("s3cret".into()),
        http_port: Some(0),
        ..ServiceConfig::default()
    };
    let server = PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().unwrap().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let rows_json = (0..60)
        .map(|i| format!("[{},{}]", i % 5, 5 + (i % 3)))
        .collect::<Vec<_>>()
        .join(",");
    let register_body = format!(
        r#"{{"name":"loc","rows":[{rows_json}],"epsilon_local":6.0,"universe":8,"pad":2,"shards":2}}"#
    );

    // Wrong token is a 401 and must not act.
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/register_ldp",
        &register_body,
        Some("wrong"),
    );
    assert_eq!(status, 401, "{body}");
    assert!(registry.get("loc").is_none(), "rejections must not act");

    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/register_ldp",
        &register_body,
        Some("s3cret"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""registered_ldp":"loc""#), "{body}");
    assert!(body.contains(r#""epsilon_local":6"#), "{body}");
    assert!(registry.get("loc").unwrap().is_ldp());

    // Perturbation needs no token; a pinned seed reproduces bytes exactly.
    let perturb_body = r#"{"dataset":"loc","rows":[[0,1,2],[3,4]],"seed":42}"#;
    let (status, first) = http_request(http_addr, "POST", "/v1/perturb", perturb_body, None);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains(r#""perturbed":"#), "{first}");
    assert!(first.contains(r#""seed":42"#), "{first}");
    let (_, second) = http_request(http_addr, "POST", "/v1/perturb", perturb_body, None);
    assert_eq!(
        first, second,
        "pinned-seed perturbation must be reproducible"
    );

    // The HTTP release carries no debit and matches the TCP release byte for byte.
    let query_body = r#"{"dataset":"loc","k":3,"epsilon":1.0,"seed":11}"#;
    let (status, http) = http_request(http_addr, "POST", "/v1/query", query_body, None);
    assert_eq!(status, 200, "{http}");
    assert!(http.contains(r#""epsilon_spent":0"#), "{http}");
    assert!(http.contains(r#""remaining_budget":null"#), "{http}");
    let mut client = PbClient::connect(addr).unwrap();
    let tcp = client
        .raw_line(r#"{"v":2,"id":"q","op":"query","dataset":"loc","k":3,"epsilon":1.0,"seed":11}"#)
        .unwrap();
    assert_eq!(
        release_bytes(&http),
        release_bytes(&tcp),
        "HTTP and TCP must release identical LDP bytes"
    );

    // Cross-mode registration over the LDP name is a structured 409.
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/register",
        &format!(r#"{{"name":"loc","rows":[{rows_json}],"budget":2.0}}"#),
        Some("s3cret"),
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains(r#""code":"mode_mismatch""#), "{body}");

    // The offline knobs are routed: consistency acks, snapshot_every on an
    // in-memory registry is a structured 503 naming the missing state dir.
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/consistency",
        r#"{"name":"loc","enabled":false}"#,
        Some("s3cret"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""enabled":false"#), "{body}");
    let (status, body) = http_request(
        http_addr,
        "POST",
        "/v1/admin/snapshot_every",
        r#"{"every":8}"#,
        Some("s3cret"),
    );
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("state-dir"), "{body}");

    shutdown(addr, handle);
}
