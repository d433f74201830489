//! Crash-recovery harness: a real `privbasis-cli serve --state-dir` child process,
//! killed with SIGKILL mid-lifetime and restarted on the same state directory.
//!
//! These tests pin the durability contract end to end: remaining ε and admitted-query
//! counts survive `kill -9` exactly, an exhausted dataset stays exhausted, a restarted
//! server never has more remaining ε than (initial budget − journaled debits), the
//! recovered `QueryContext` reproduces pinned-seed releases byte-identically — and a
//! dataset *hot-registered over the admin API* recovers with its shard layout and
//! spent ε, because admin ops write the same durable manifest registration-time flags
//! do.
//!
//! Clients speak through the typed `pb_proto::PbClient`; byte-for-byte release
//! comparisons go through its `raw_line` escape hatch (typed decoding would re-encode,
//! and the whole point is comparing the server's exact bytes).

use privbasis::proto::{AdminReply, ClientError, PbClient, RegisterRequest, RegisterSource};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique scratch directory per test (cleaned up on drop; leaked on panic).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pb-crash-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `privbasis-cli serve` child on an OS-assigned port.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the CLI with `--port 0` plus `extra_args`, and waits for its "listening
    /// on" line to learn the bound address.
    fn spawn(extra_args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_privbasis-cli"))
            .arg("serve")
            .args(["--port", "0", "--threads", "2", "--snapshot-every", "8"])
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn privbasis-cli");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        // The TCP "listening on" line is printed last, after the http-gateway line (if
        // any), so breaking on it means everything else is already out.
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                other => panic!("server exited before listening: {other:?}"),
            };
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().expect("address token");
                break addr.parse().expect("socket address");
            }
        };
        // Keep draining stderr so the child can never block on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    /// Connects a typed client (30s response timeout guards against a hung server).
    fn client(&self) -> PbClient {
        let mut client = PbClient::connect(self.addr).expect("connect to server");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        client
    }

    /// SIGKILL — no shutdown handshake, no flush, nothing graceful.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9 the server");
        self.child.wait().expect("reap the server");
    }

    /// Clean shutdown via the protocol (used at the end of tests).
    fn shutdown(mut self) {
        self.client().shutdown().expect("shutdown ack");
        self.child.wait().expect("server exits after shutdown");
    }
}

impl Drop for Server {
    /// Kills and reaps the child, so a failing assertion leaves no server running.
    /// After `kill9` or `shutdown` the child is already reaped and both errors are
    /// ignored.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends a raw line, panicking on transport errors (most tests want the bytes).
fn raw(client: &mut PbClient, line: &str) -> String {
    client.raw_line(line).expect("request")
}

/// Pulls `"key":<number>` out of a response line (the harness compares exact decimal
/// serialisations, so no JSON tree is needed).
fn field(response: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let start = response
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {response}"))
        + pattern.len();
    response[start..]
        .split([',', '}'])
        .next()
        .unwrap()
        .to_string()
}

fn write_fixture(scratch: &Scratch) -> String {
    // 120 rows with a skewed, unambiguous frequency ranking (mirrors the service
    // integration fixture).
    let mut rows = String::new();
    for i in 0..120 {
        let slot = i % 10;
        for j in 0..5u32 {
            if slot < 10 - 2 * j as usize {
                rows.push_str(&format!("{j} "));
            }
        }
        rows.push_str(&format!("{}\n", 5 + slot));
    }
    let path = scratch.0.join("fixture.dat");
    std::fs::write(&path, rows).unwrap();
    path.to_string_lossy().into_owned()
}

fn state_dir_arg(scratch: &Scratch) -> String {
    scratch.0.join("state").to_string_lossy().into_owned()
}

#[test]
fn kill9_recovers_exact_ledger_state_and_identical_releases() {
    let scratch = Scratch::new("exact");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("retail={data}");

    // ---- Run 1: spend 0.75 of ε = 2.0, then SIGKILL. ----
    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "2",
        "--state-dir",
        &state,
    ]);
    let mut client = server.client();
    let pinned = raw(
        &mut client,
        r#"{"op":"query","dataset":"retail","k":4,"epsilon":0.25,"seed":9}"#,
    );
    assert!(pinned.contains(r#""status":"ok""#), "{pinned}");
    let pinned_items = field(&pinned, "itemsets");
    for seed in [10, 11] {
        let reply = client.query("retail", 4, 0.25, Some(seed)).expect("query");
        assert_eq!(reply.epsilon_spent, 0.25);
    }
    let status = raw(&mut client, r#"{"op":"status"}"#);
    assert_eq!(field(&status, "epsilon_spent"), "0.75");
    assert_eq!(field(&status, "queries"), "3");
    assert_eq!(field(&status, "durable"), "true");
    server.kill9();

    // ---- Run 2: recover from the state dir alone (no --dataset flags). ----
    let server = Server::spawn(&["--state-dir", &state]);
    let mut client = server.client();
    let status = client.status().expect("status");
    let row = &status.datasets[0];
    assert!(
        (row.spent - 0.75).abs() < 1e-12,
        "spent ε must survive kill -9 exactly: {row:?}"
    );
    assert!((row.remaining - 1.25).abs() < 1e-12);
    assert_eq!(
        row.queries, 3,
        "admitted-query count must survive kill -9 exactly: {row:?}"
    );

    // The recovered QueryContext is rebuilt from the same data, so a pinned-seed query
    // must reproduce the pre-crash release byte-for-byte.
    let replayed = raw(
        &mut client,
        r#"{"op":"query","dataset":"retail","k":4,"epsilon":0.25,"seed":9}"#,
    );
    assert!(replayed.contains(r#""status":"ok""#), "{replayed}");
    assert_eq!(
        field(&replayed, "itemsets"),
        pinned_items,
        "recovered context must reproduce pinned-seed releases byte-identically"
    );
    // That query itself was debited durably on top of the recovered 0.75.
    let status = client.status().expect("status");
    assert!((status.datasets[0].spent - 1.0).abs() < 1e-12);
    server.shutdown();

    // ---- Run 3: graceful shutdown persists too. ----
    let server = Server::spawn(&["--state-dir", &state]);
    let mut client = server.client();
    let status = client.status().expect("status");
    assert!((status.datasets[0].spent - 1.0).abs() < 1e-12);
    assert_eq!(status.datasets[0].queries, 4);
    server.shutdown();
}

#[test]
fn hot_registered_dataset_survives_kill9() {
    // The admin-op durability contract: a dataset registered over the wire (no
    // `--dataset` flag anywhere) must come back from `kill -9` with its shard layout
    // and spent ε, because the admin `register` writes the same manifest entry the CLI
    // registration path does. And a rejected admin op must leave no trace at all.
    let scratch = Scratch::new("hotreg");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);

    // ---- Run 1: empty state dir, admin ops enabled. ----
    let server = Server::spawn(&["--state-dir", &state, "--admin-token", "tok"]);
    let mut client = server.client();
    assert!(client.status().expect("status").datasets.is_empty());

    // A wrong token is rejected with `unauthorized` and registers nothing.
    let refused = client
        .register(
            "wrong-token",
            RegisterRequest {
                name: "intruder".into(),
                source: RegisterSource::Path(data.clone()),
                budget: Some(4.0),
                shards: None,
            },
        )
        .unwrap_err();
    match refused {
        ClientError::Server(e) => {
            assert_eq!(e.code, privbasis::proto::ErrorCode::Unauthorized)
        }
        other => panic!("{other}"),
    }
    assert!(
        client.status().expect("status").datasets.is_empty(),
        "a rejected admin op must leave the registry untouched"
    );

    // The real registration: durable, sharded, over the wire.
    match client
        .register(
            "tok",
            RegisterRequest {
                name: "hot".into(),
                source: RegisterSource::Path(data.clone()),
                budget: Some(4.0),
                shards: Some(2),
            },
        )
        .expect("hot register")
    {
        AdminReply::Registered {
            transactions,
            shards,
            durable,
            epsilon_spent,
            ..
        } => {
            assert_eq!(transactions, 120);
            assert_eq!(shards, 2);
            assert!(durable, "state-dir servers must register durably");
            assert_eq!(epsilon_spent, 0.0);
        }
        other => panic!("{other:?}"),
    }
    let pinned = raw(
        &mut client,
        r#"{"v":2,"id":"p","op":"query","dataset":"hot","k":4,"epsilon":0.5,"seed":21}"#,
    );
    assert!(pinned.contains(r#""status":"ok""#), "{pinned}");
    let pinned_items = field(&pinned, "itemsets");
    server.kill9();

    // ---- Run 2: restart from the state dir alone. The hot-registered dataset, its
    // shard layout, and its spent ε must all recover; the rejected name must not
    // exist. ----
    let server = Server::spawn(&["--state-dir", &state, "--admin-token", "tok"]);
    let mut client = server.client();
    let status = client.status().expect("status");
    assert_eq!(
        status.datasets.len(),
        1,
        "only the authorized registration may recover: {status:?}"
    );
    let row = &status.datasets[0];
    assert_eq!(row.name, "hot");
    assert_eq!(row.shards, 2, "manifest must restore the admin-op layout");
    assert!((row.spent - 0.5).abs() < 1e-12);
    assert!((row.remaining - 3.5).abs() < 1e-12);
    let replayed = raw(
        &mut client,
        r#"{"v":2,"id":"p2","op":"query","dataset":"hot","k":4,"epsilon":0.5,"seed":21}"#,
    );
    assert_eq!(
        field(&replayed, "itemsets"),
        pinned_items,
        "recovered hot-registered dataset must reproduce pinned-seed releases"
    );

    // ---- Bonus: hot unregister survives kill -9 the same way. ----
    match client.unregister("tok", "hot") {
        Ok(AdminReply::Unregistered { name }) => assert_eq!(name, "hot"),
        other => panic!("admin ops must work after recovery: {other:?}"),
    }
    server.kill9();
    let server = Server::spawn(&["--state-dir", &state, "--admin-token", "tok"]);
    let mut client = server.client();
    assert!(
        client.status().expect("status").datasets.is_empty(),
        "an unregistered dataset must stay unregistered across kill -9"
    );
    // Its spend survives on disk: re-registering the name inherits the full 1.0 (two
    // ε = 0.5 pinned queries, one per server generation), never 0.
    match client
        .register(
            "tok",
            RegisterRequest {
                name: "hot".into(),
                source: RegisterSource::Path(data),
                budget: Some(4.0),
                shards: None,
            },
        )
        .expect("re-register")
    {
        AdminReply::Registered { epsilon_spent, .. } => {
            assert!(
                (epsilon_spent - 1.0).abs() < 1e-12,
                "unregister must never forget spent ε, got {epsilon_spent}"
            );
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn sharded_dataset_recovers_layout_and_releases_identically() {
    // The sharding counterpart of the exact-recovery test: a durable dataset served
    // over 4 row shards must come back from `kill -9` with the same shard layout
    // (recorded in the manifest) and reproduce a pinned-seed release byte-for-byte —
    // and that release must also equal what an *unsharded* registration of the same
    // data publishes, because sharding never changes released bytes.
    let scratch = Scratch::new("sharded");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("retail={data}");
    let pinned_query = r#"{"op":"query","dataset":"retail","k":4,"epsilon":0.25,"seed":9}"#;

    // Reference release from an unsharded server (own state dir: the harness always
    // passes --snapshot-every, which requires one).
    let reference = {
        let ref_state = scratch.0.join("state-ref").to_string_lossy().into_owned();
        let server = Server::spawn(&[
            "--dataset",
            &dataset,
            "--budget",
            "8",
            "--state-dir",
            &ref_state,
        ]);
        let mut client = server.client();
        let response = raw(&mut client, pinned_query);
        assert!(response.contains(r#""status":"ok""#), "{response}");
        let items = field(&response, "itemsets");
        server.shutdown();
        items
    };

    // ---- Run 1: durable + sharded; pin a seed, then SIGKILL. ----
    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "8",
        "--state-dir",
        &state,
        "--shards",
        "4",
    ]);
    let mut client = server.client();
    assert_eq!(client.status().expect("status").datasets[0].shards, 4);
    let pinned = raw(&mut client, pinned_query);
    assert!(pinned.contains(r#""status":"ok""#), "{pinned}");
    assert_eq!(
        field(&pinned, "itemsets"),
        reference,
        "sharded serving must release the same bytes as unsharded"
    );
    server.kill9();

    // ---- Run 2: recover from the state dir alone; layout and release must match. ----
    let server = Server::spawn(&["--state-dir", &state]);
    let mut client = server.client();
    let status = client.status().expect("status");
    let row = &status.datasets[0];
    assert_eq!(row.shards, 4, "manifest must restore the shard layout");
    assert!((row.spent - 0.25).abs() < 1e-12);
    // Journal metrics are exposed for the durable dataset.
    let journal = row.journal.expect("durable datasets report journal stats");
    assert!(journal.wal_bytes >= 4);
    let replayed = raw(&mut client, pinned_query);
    assert_eq!(
        field(&replayed, "itemsets"),
        reference,
        "recovered sharded context must reproduce pinned-seed releases byte-identically"
    );
    server.shutdown();

    // ---- Run 3: reshard via the CLI. Re-listing the dataset with a new --shards
    // records the new layout (spent ε inherited), and the release still does not
    // move by a single byte. ----
    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "8",
        "--state-dir",
        &state,
        "--shards",
        "2",
    ]);
    let mut client = server.client();
    let status = client.status().expect("status");
    assert_eq!(
        status.datasets[0].shards, 2,
        "re-listing with --shards must record the new layout"
    );
    assert!((status.datasets[0].spent - 0.5).abs() < 1e-12);
    let resharded = raw(&mut client, pinned_query);
    assert_eq!(
        field(&resharded, "itemsets"),
        reference,
        "resharding must not change released bytes"
    );
    server.shutdown();

    // ---- Run 4: re-listing WITHOUT --shards keeps the recorded layout (a forgotten
    // flag must not silently reshard to 1). ----
    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "8",
        "--state-dir",
        &state,
    ]);
    let mut client = server.client();
    assert_eq!(
        client.status().expect("status").datasets[0].shards,
        2,
        "re-listing without --shards must keep the manifest's layout"
    );
    server.shutdown();
}

#[test]
fn two_servers_cannot_share_a_state_dir() {
    // State-dir locking: the second server on the same directory must fail fast
    // instead of racing the first one's manifest and journals.
    let scratch = Scratch::new("lockout");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("d={data}");

    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "2",
        "--state-dir",
        &state,
    ]);
    // The contender exits with an error mentioning the lock, before ever listening.
    let contender = Command::new(env!("CARGO_BIN_EXE_privbasis-cli"))
        .arg("serve")
        .args(["--port", "0", "--state-dir", &state])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run contender");
    assert!(
        !contender.status.success(),
        "second server must refuse a locked state dir"
    );
    let stderr = String::from_utf8_lossy(&contender.stderr);
    assert!(stderr.contains("locked"), "unexpected error: {stderr}");
    // The original server is unaffected.
    let mut client = server.client();
    let reply = client.query("d", 3, 0.25, Some(1)).expect("query");
    assert_eq!(reply.dataset, "d");
    server.shutdown();
}

#[test]
fn audit_lines_are_written_before_the_reply_and_survive_kill9() {
    // The audit log's fsync runs on a background flusher, but the line itself is
    // written before the reply leaves: a SIGKILL (no power loss — the page cache
    // survives) right after the replies must find every released line on disk, and
    // recovery must have no ε to reconcile.
    const QUERIES: usize = 32;
    let scratch = Scratch::new("audit");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("d={data}");
    let audit = scratch.0.join("state").join("audit.jsonl");
    let released = |text: &str| text.matches(r#""outcome":"released""#).count();

    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "16",
        "--state-dir",
        &state,
    ]);
    let mut client = server.client();
    for seed in 0..QUERIES as u64 {
        client.query("d", 3, 0.25, Some(100 + seed)).expect("query");
        // No further round trip: the reply alone must imply the line is written.
        let text = std::fs::read_to_string(&audit).unwrap();
        assert_eq!(released(&text), seed as usize + 1, "{text}");
    }
    server.kill9();

    let text = std::fs::read_to_string(&audit).unwrap();
    assert_eq!(released(&text), QUERIES, "{text}");
    assert!(text.ends_with('\n'), "no torn line: {text}");

    // Recovery reconciles before it listens; the journal and the log already agree.
    let server = Server::spawn(&["--state-dir", &state]);
    let status = server.client().status().expect("status");
    assert!((status.datasets[0].spent - 0.25 * QUERIES as f64).abs() < 1e-12);
    let text = std::fs::read_to_string(&audit).unwrap();
    assert!(
        !text.contains(r#""outcome":"reconciled""#),
        "nothing was missing, yet recovery reconciled: {text}"
    );
    assert_eq!(released(&text), QUERIES);
    server.shutdown();
}

#[test]
fn exhausted_stays_exhausted_across_kill9() {
    let scratch = Scratch::new("exhausted");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("d={data}");

    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "0.5",
        "--state-dir",
        &state,
    ]);
    let mut client = server.client();
    for seed in [1, 2] {
        client.query("d", 3, 0.25, Some(seed)).expect("query");
    }
    let refused = client.query("d", 3, 0.25, Some(3)).unwrap_err();
    match refused {
        ClientError::Server(e) => {
            assert_eq!(e.code, privbasis::proto::ErrorCode::BudgetExhausted);
            assert!(e.message.contains("budget exceeded"), "{e}");
        }
        other => panic!("{other}"),
    }
    server.kill9();

    // Restarting must not refill anything — not even for a tiny request.
    let server = Server::spawn(&["--state-dir", &state]);
    let mut client = server.client();
    let status = client.status().expect("status");
    assert_eq!(status.datasets[0].remaining, 0.0);
    let refused = client.query("d", 2, 0.001, Some(4)).unwrap_err();
    match refused {
        ClientError::Server(e) => assert_eq!(
            e.code,
            privbasis::proto::ErrorCode::BudgetExhausted,
            "exhausted must stay exhausted after kill -9"
        ),
        other => panic!("{other}"),
    }
    server.shutdown();
}

#[test]
fn kill9_during_active_workload_never_regrants_budget() {
    let scratch = Scratch::new("workload");
    let data = write_fixture(&scratch);
    let state = state_dir_arg(&scratch);
    let dataset = format!("d={data}");

    let server = Server::spawn(&[
        "--dataset",
        &dataset,
        "--budget",
        "1000",
        "--state-dir",
        &state,
    ]);
    let addr = server.addr;

    // Hammer the server from 4 connections while the main thread pulls the trigger
    // mid-flight. Every response that came back was debited durably *before* its noise
    // was drawn — that is the invariant the restart check below enforces.
    let acknowledged: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = PbClient::connect(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut ok = 0u64;
                    for q in 0..10_000u64 {
                        let seed = t * 1_000_000 + q;
                        // Killed mid-request: the connection dies, we stop.
                        match client.query("d", 4, 0.5, Some(seed)) {
                            Ok(_) => ok += 1,
                            Err(ClientError::Server(_)) => {}
                            Err(_) => break,
                        }
                    }
                    ok
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(400));
        server.kill9();
        workers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(acknowledged > 0, "workload produced no answered queries");

    // Restart: remaining ε may be smaller than (1000 − 0.5·acknowledged) — debits for
    // in-flight, never-answered queries are legitimate — but it must NEVER be larger.
    let server = Server::spawn(&["--state-dir", &state]);
    let mut client = server.client();
    let status = client.status().expect("status");
    let remaining = status.datasets[0].remaining;
    let spent = status.datasets[0].spent;
    let ceiling = 1000.0 - 0.5 * acknowledged as f64;
    assert!(
        remaining <= ceiling + 1e-9,
        "restart re-granted ε: {acknowledged} acknowledged queries, \
         remaining {remaining} > {ceiling}"
    );
    assert!(
        spent >= 0.5 * acknowledged as f64 - 1e-9,
        "journal lost acknowledged debits: spent {spent} < {}",
        0.5 * acknowledged as f64
    );
    // Served counters may lag behind (crash between answer and counter append loses
    // increments) but can never exceed the acknowledged answers plus in-flight ones
    // that died after recording; the only hard bound is spent ≥ answers × ε above.
    server.shutdown();
}
