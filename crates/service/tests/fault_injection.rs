//! Deterministic fault-injection tests over the persistence seams: the manifest's
//! atomic rewrite failed at every step, journal appends and fsyncs failing under a
//! live ledger, the degraded read-only mode a wedged journal triggers, and the audit
//! log's write and background fsync failing without blocking a release. Over the
//! shard fabric: a failed leg fails the query closed, and a θ mined across the
//! failure is not memoized.
//!
//! These tests do real injection, so they are effective only under
//! `cargo test --features fault-inject`; default builds compile the sites out and the
//! tests pass vacuously via the [`pb_fault::is_compiled`] early return. The fault
//! registry is process-global state, so every test serializes on one mutex and clears
//! the registry on entry and exit.

use pb_dp::Epsilon;
use pb_fim::TransactionDb;
use pb_proto::{ClientError, ErrorCode, PbClient};
use pb_service::protocol::dataset_status;
use pb_service::{DataSource, DatasetRegistry, PbServer, RegisterSpec, ServiceConfig, StateDir};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Serializes the tests (the fault registry is process-global).
static GATE: Mutex<()> = Mutex::new(());

/// A unique scratch directory per test (cleaned up on drop; leaked on panic).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pb-fault-{tag}-{}-{}",
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

fn rows() -> TransactionDb {
    TransactionDb::from_transactions(vec![vec![1, 2], vec![1, 2, 3], vec![2, 3], vec![1, 3]])
}

#[test]
fn manifest_rewrite_failure_at_every_step_leaves_no_phantom_entry() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    // The atomic rewrite is temp-write → fsync → rename; a registration must be
    // all-or-nothing whichever step dies.
    for site in [
        "manifest.store.write",
        "manifest.store.fsync",
        "manifest.store.rename",
    ] {
        let scratch = Scratch::new("manifest");
        let state = StateDir::open(&scratch.0).unwrap();
        let registry = DatasetRegistry::with_persistence(state).unwrap();

        pb_fault::arm(&format!("{site}=fail-once")).unwrap();
        let err = registry
            .register("phantom", rows(), Epsilon::Finite(2.0))
            .expect_err("the injected manifest failure must fail the registration");
        assert!(
            err.to_string().contains("injected fault"),
            "{site}: unexpected error {err}"
        );
        assert_eq!(pb_fault::hits(site), 1, "{site} was never reached");

        // The shared image must not show a half-registered dataset …
        assert!(registry.get("phantom").is_none(), "{site}: phantom entry");
        assert!(registry.names().is_empty(), "{site}: phantom name");
        // … and neither may the manifest on disk (what a restart would recover). The
        // live StateDir holds the state-dir lock, so inspect the raw bytes directly.
        let on_disk = std::fs::read_to_string(scratch.0.join("manifest.json")).unwrap_or_default();
        assert!(
            !on_disk.contains("phantom"),
            "{site}: phantom manifest row: {on_disk}"
        );

        // With the fault spent, the same registration succeeds — nothing half-written
        // lingered to conflict with it.
        registry
            .register("phantom", rows(), Epsilon::Finite(2.0))
            .unwrap_or_else(|e| panic!("{site}: clean retry failed: {e}"));
        assert!(registry.get("phantom").is_some());
        pb_fault::clear();
    }
}

#[test]
fn journal_append_failure_rolls_the_spend_back() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    let scratch = Scratch::new("append");
    let state = StateDir::open(&scratch.0).unwrap();
    let registry = DatasetRegistry::with_persistence(state).unwrap();
    let entry = registry
        .register("tx", rows(), Epsilon::Finite(2.0))
        .unwrap();

    pb_fault::arm("journal.append=fail-once").unwrap();
    entry
        .ledger()
        .unwrap()
        .try_spend(0.5)
        .expect_err("a debit that cannot be staged must not be granted");
    // The failed stage wrote nothing, so the balance rolls back in full …
    assert_eq!(entry.ledger().unwrap().spent(), 0.0);
    // … and the journal did not wedge (the repair truncated back to a valid prefix).
    assert!(!entry.is_degraded());

    // The next spend (fault spent) goes through and is accounted exactly once.
    entry.ledger().unwrap().try_spend(0.5).unwrap();
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);
    pb_fault::clear();
}

#[test]
fn a_wedged_journal_degrades_the_dataset_to_read_only() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    let scratch = Scratch::new("wedge");
    let state = StateDir::open(&scratch.0).unwrap();
    let registry = DatasetRegistry::with_persistence(state).unwrap();
    let entry = registry
        .register("tx", rows(), Epsilon::Finite(10.0))
        .unwrap();
    entry.ledger().unwrap().try_spend(0.25).unwrap();
    assert!(!entry.is_degraded());

    // A failed group fsync latches the wedge: the staged bytes' durability is unknown.
    pb_fault::arm("journal.fsync=fail-once").unwrap();
    entry
        .ledger()
        .unwrap()
        .try_spend(0.25)
        .expect_err("a debit whose fsync failed must surface the failure");
    assert!(entry.is_degraded(), "the journal must fail closed");

    // Fail closed means: the staged-but-unflushed debit stays *counted* (ε is never
    // under-counted), status keeps serving and reports the degradation, and every
    // further spend is refused even though the injected fault is long spent.
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);
    let status = dataset_status(&entry);
    assert!(status.degraded);
    assert_eq!(status.spent, 0.5);
    entry
        .ledger()
        .unwrap()
        .try_spend(0.25)
        .expect_err("a wedged journal must refuse all further spends");
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);

    // A restart (fresh handles over the same state dir) recovers: the wedge is
    // in-process state, the durable ledger is intact and still counts the spend.
    drop(entry);
    drop(registry);
    let state = StateDir::open(&scratch.0).unwrap();
    let registry = DatasetRegistry::with_persistence(state).unwrap();
    registry.recover().unwrap();
    let entry = registry
        .register("tx", rows(), Epsilon::Finite(10.0))
        .unwrap();
    assert!(!entry.is_degraded());
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);
    entry.ledger().unwrap().try_spend(0.25).unwrap();
    assert_eq!(entry.ledger().unwrap().spent(), 0.75);
    pb_fault::clear();
}

#[test]
fn a_fabric_failure_mid_query_fails_closed_before_the_debit() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    // A real shard worker and a real coordinator, in-process: one of the dataset's
    // two shards is placed on the worker, the other stays local.
    let (worker_addr, worker_thread) = spawn_server(Arc::new(DatasetRegistry::new()), true);
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_spec(RegisterSpec {
            shards: Some(2),
            workers: vec![worker_addr.to_string()],
            ..RegisterSpec::central("fab", DataSource::Rows(rows()), Epsilon::Finite(2.0))
        })
        .unwrap();
    let entry = registry.get("fab").unwrap();
    let (coordinator_addr, coordinator_thread) = spawn_server(Arc::clone(&registry), false);
    let mut client = PbClient::connect(coordinator_addr).unwrap();

    // Healthy fabric: the pinned-seed query releases and debits.
    let healthy = client.query("fab", 2, 0.5, Some(7)).unwrap();
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);

    // Kill the fabric. `fail-prob:1` (not `fail-once`) because the fabric hedges:
    // a failed send retries once on a fresh connection, so a single-shot fault is
    // absorbed. Failing both the send and the fresh dial makes the outage stick.
    pb_fault::arm("fabric.write=fail-prob:1,fabric.connect=fail-prob:1").unwrap();
    let err = match client.query("fab", 2, 0.5, Some(8)) {
        Err(ClientError::Server(e)) => e,
        other => panic!("a mid-query fabric failure must fail the query, got {other:?}"),
    };
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(
        err.message.contains("no ε was spent"),
        "the refusal must promise the budget is untouched: {}",
        err.message
    );
    assert!(
        pb_fault::hits("fabric.write") >= 1,
        "the seam was never reached"
    );
    // Fail closed means *before* the debit: the answer was discarded unreleased and
    // the ledger never moved.
    assert_eq!(entry.ledger().unwrap().spent(), 0.5);
    assert!(entry.fabric_down());

    // Heal the fabric: the next query re-dials, re-releases the same bytes for the
    // same seed, and debits — the attempt itself is the recovery probe.
    pb_fault::clear();
    let healed = client.query("fab", 2, 0.5, Some(7)).unwrap();
    assert_eq!(healed.itemsets, healthy.itemsets);
    assert_eq!(healed.seed, healthy.seed);
    assert_eq!(entry.ledger().unwrap().spent(), 1.0);
    assert!(!entry.fabric_down());

    client.shutdown().unwrap();
    coordinator_thread.join().unwrap().unwrap();
    PbClient::connect(worker_addr).unwrap().shutdown().unwrap();
    worker_thread.join().unwrap().unwrap();
    pb_fault::clear();
}

#[test]
fn a_theta_mined_during_a_fabric_failure_is_not_memoized() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    // Nested rows: item j is in a (20 − 2j)/20 share of them, so pair supports sit on
    // the item ladder and θ moves λ. The same rows are served twice: over two shards,
    // one on a worker, and all local.
    let nested = || {
        TransactionDb::from_transactions(
            (0..40usize)
                .map(|i| {
                    (0..8u32)
                        .filter(|&j| i % 20 < 20 - 2 * j as usize)
                        .collect()
                })
                .collect::<Vec<Vec<u32>>>(),
        )
    };
    let (worker_addr, worker_thread) = spawn_server(Arc::new(DatasetRegistry::new()), true);
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_spec(RegisterSpec {
            shards: Some(2),
            workers: vec![worker_addr.to_string()],
            ..RegisterSpec::central("fab", DataSource::Rows(nested()), Epsilon::Finite(100.0))
        })
        .unwrap();
    registry
        .register("local", nested(), Epsilon::Finite(100.0))
        .unwrap();
    let entry = registry.get("fab").unwrap();
    let (coordinator_addr, coordinator_thread) = spawn_server(Arc::clone(&registry), false);
    let mut client = PbClient::connect(coordinator_addr).unwrap();

    // The first query for k = 3 (k1 = 4) mines θ with the fabric down: the remote
    // half of each pair count reads as zero, so the θ it mines is wrong.
    pb_fault::arm("fabric.write=fail-prob:1,fabric.connect=fail-prob:1").unwrap();
    let err = match client.query("fab", 3, 8.0, Some(5)) {
        Err(ClientError::Server(e)) => e,
        other => panic!("a fabric failure while mining θ must fail the query, got {other:?}"),
    };
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert_eq!(
        entry.context().theta_cache_len(),
        0,
        "a θ mined across a fabric failure was memoized"
    );

    // Healed, the same k and seed mine θ afresh and release what all-local rows do.
    pb_fault::clear();
    let healed = client.query("fab", 3, 8.0, Some(5)).unwrap();
    let local = client.query("local", 3, 8.0, Some(5)).unwrap();
    assert_eq!(healed.lambda, local.lambda);
    assert_eq!(healed.itemsets, local.itemsets);
    assert_eq!(entry.context().theta_cache_len(), 1);

    client.shutdown().unwrap();
    coordinator_thread.join().unwrap().unwrap();
    PbClient::connect(worker_addr).unwrap().shutdown().unwrap();
    worker_thread.join().unwrap().unwrap();
    pb_fault::clear();
}

#[test]
fn a_failing_audit_log_wedges_without_blocking_releases_and_reconciles() {
    if !pb_fault::is_compiled() {
        return;
    }
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    pb_fault::clear();

    // The write (`audit.append`) fails on the reply path; the fsync (`audit.fsync`)
    // fails later, on the background flusher. Either way the query releases, the
    // journal keeps the exact spend, and the log wedges.
    for site in ["audit.append", "audit.fsync"] {
        pb_fault::clear();
        let scratch = Scratch::new("audit");
        let registry = Arc::new(
            DatasetRegistry::with_persistence(StateDir::open(&scratch.0).unwrap()).unwrap(),
        );
        registry
            .register("tx", rows(), Epsilon::Finite(10.0))
            .unwrap();
        let (addr, http_addr, server) = spawn_durable_server(Arc::clone(&registry));
        let mut client = PbClient::connect(addr).unwrap();

        pb_fault::arm(&format!("{site}=fail-once")).unwrap();
        client
            .query("tx", 2, 0.5, Some(7))
            .unwrap_or_else(|e| panic!("{site}: a failing audit log must not block: {e}"));
        // `pb_audit_wedged` reads 1 once the failing seam has run (the fsync's only
        // after the flusher's wake-up, so poll for it).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !metrics(http_addr).contains("\npb_audit_wedged 1\n") {
            assert!(
                std::time::Instant::now() < deadline,
                "{site}: the audit log never wedged:\n{}",
                metrics(http_addr)
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pb_fault::hits(site), 1, "{site} was never reached");

        // Wedged is observability-only: later queries still release and debit.
        for seed in [8, 9] {
            client
                .query("tx", 2, 0.5, Some(seed))
                .unwrap_or_else(|e| panic!("{site}: release after the wedge: {e}"));
        }
        let entry = registry.get("tx").unwrap();
        assert_eq!(entry.ledger().unwrap().spent(), 1.5, "{site}");
        assert!(!entry.is_degraded(), "{site}: the journal must not wedge");
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        drop(entry);
        drop(registry);
        pb_fault::clear();

        // Restart: recovery reconciles the audit ε up to the journal's.
        let registry = Arc::new(
            DatasetRegistry::with_persistence(StateDir::open(&scratch.0).unwrap()).unwrap(),
        );
        registry.recover().unwrap();
        // In-memory rows are not in the manifest: re-registering adopts the journal.
        registry
            .register("tx", rows(), Epsilon::Finite(10.0))
            .unwrap();
        let (addr, _, server) = spawn_durable_server(Arc::clone(&registry));
        let mut client = PbClient::connect(addr).unwrap();
        client.status().unwrap();
        let journal_spent = registry.get("tx").unwrap().ledger().unwrap().spent();
        assert_eq!(journal_spent, 1.5, "{site}");
        let audit = std::fs::read_to_string(scratch.0.join("audit.jsonl")).unwrap();
        let audited: f64 = audit
            .lines()
            .map(|line| pb_service::Json::parse(line).unwrap())
            .filter(|r| {
                matches!(
                    r.get("outcome").and_then(pb_service::Json::as_str),
                    Some("released") | Some("reconciled")
                )
            })
            .map(|r| r.get("epsilon").and_then(pb_service::Json::as_f64).unwrap())
            .sum();
        assert_eq!(
            audited, journal_spent,
            "{site}: audit ε must reconcile:\n{audit}"
        );
        assert!(
            audit.contains(r#""outcome":"reconciled""#),
            "{site}:\n{audit}"
        );
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }
    pb_fault::clear();
}

/// GETs `/metrics` over a fresh HTTP connection and returns the body.
fn metrics(http_addr: SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(http_addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n")
        .map_or(raw.clone(), |(_, body)| body.to_string())
}

/// Binds an in-process coordinator with an HTTP gateway on ephemeral ports and runs
/// it on a thread until a client sends `shutdown`. Durable when `registry` is.
fn spawn_durable_server(
    registry: Arc<DatasetRegistry>,
) -> (SocketAddr, SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = PbServer::bind(
        "127.0.0.1:0",
        registry,
        ServiceConfig {
            threads: 2,
            http_port: Some(0),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().unwrap().unwrap();
    (addr, http_addr, std::thread::spawn(move || server.run()))
}

/// Binds an in-process server on an ephemeral port (a shard worker when `worker`) and
/// runs it on a thread until a client sends `shutdown`.
fn spawn_server(
    registry: Arc<DatasetRegistry>,
    worker: bool,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = PbServer::bind(
        "127.0.0.1:0",
        registry,
        ServiceConfig {
            worker,
            threads: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}
