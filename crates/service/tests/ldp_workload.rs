//! The LDP workload class end to end: a coordinator serving both privacy modes,
//! exercising
//!
//! * the no-debit acceptance bar — a full LDP workload (register_ldp → perturb →
//!   query → status) never touches a ledger, and a central dataset on the same
//!   server keeps its balance to the cent throughout,
//! * the mode seam — `perturb` against a central dataset and cross-mode
//!   registrations come back as structured `mode_mismatch` errors,
//! * the debiased release — LDP queries run the deterministic debias path (no
//!   server-side noise, whatever ε the query asks for), and the released bytes are
//!   identical for every shard count S ∈ 1..=8 and every local/remote placement,
//! * the offline knobs over the wire — snapshot cadence and the per-dataset
//!   consistency toggle, token-gated.

use pb_dp::Epsilon;
use pb_fim::TransactionDb;
use pb_ldp::LdpChannel;
use pb_proto::{
    AdminReply, ClientError, ErrorCode, LdpParams, PbClient, RegisterLdpRequest, RegisterRequest,
    RegisterSource, WireError,
};
use pb_service::{DataSource, DatasetRegistry, PbServer, RegisterSpec, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const ADMIN_TOKEN: &str = "ldp-admin";

/// One shared coordinator (registry + server) for the whole test binary.
fn coordinator() -> &'static (Arc<DatasetRegistry>, SocketAddr) {
    static COORD: OnceLock<(Arc<DatasetRegistry>, SocketAddr)> = OnceLock::new();
    COORD.get_or_init(|| {
        let registry = Arc::new(DatasetRegistry::new());
        let config = ServiceConfig {
            threads: 2,
            admin_token: Some(ADMIN_TOKEN.to_string()),
            ..ServiceConfig::default()
        };
        let server =
            PbServer::bind("127.0.0.1:0", Arc::clone(&registry), config).expect("bind coordinator");
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        (registry, addr)
    })
}

/// One shared shard-worker server for the whole test binary.
fn worker_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let config = ServiceConfig {
            worker: true,
            threads: 2,
            ..ServiceConfig::default()
        };
        let server = PbServer::bind("127.0.0.1:0", Arc::new(DatasetRegistry::new()), config)
            .expect("bind shard worker");
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        addr
    })
}

fn unique(tag: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!("{tag}-{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

fn server_code(err: ClientError) -> WireError {
    match err {
        ClientError::Server(e) => e,
        other => panic!("expected a structured server error, got {other}"),
    }
}

/// Raw (pre-perturbation) market-basket rows over the universe 0..10.
fn raw_rows() -> Vec<Vec<u32>> {
    (0..60u32)
        .map(|i| vec![i % 3, 3 + (i % 4), 7 + (i % 2)])
        .collect()
}

fn channel() -> LdpChannel {
    LdpChannel::new(6.0, 10, 4).unwrap()
}

fn channel_params() -> LdpParams {
    LdpParams {
        epsilon_local: 6.0,
        universe: 10,
        pad: 4,
    }
}

/// The rows an honest client would upload: perturbed locally under a pinned seed.
fn perturbed_rows(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    channel().perturb_rows(&mut rng, &raw_rows())
}

/// The no-debit acceptance bar: a complete LDP workload — hot registration,
/// server-side perturbation, debiased queries, status — with a central dataset
/// sitting on the same server whose ledger must not move by a cent.
#[test]
fn ldp_workload_never_debits_any_ledger() {
    let (registry, addr) = coordinator();
    let mut client = PbClient::connect(*addr).unwrap();
    let central = unique("nodebit-central");
    let local = unique("nodebit-local");
    registry
        .register(
            &central,
            TransactionDb::from_transactions(raw_rows()),
            Epsilon::Finite(2.0),
        )
        .unwrap();

    let ack = client
        .register_ldp(
            ADMIN_TOKEN,
            RegisterLdpRequest {
                name: local.clone(),
                source: RegisterSource::Rows(perturbed_rows(11)),
                params: channel_params(),
                shards: Some(2),
            },
        )
        .unwrap();
    match ack {
        AdminReply::RegisteredLdp {
            name,
            transactions,
            shards,
            params,
        } => {
            assert_eq!(name, local);
            assert_eq!(transactions, 60);
            assert_eq!(shards, 2);
            assert_eq!(params, channel_params());
        }
        other => panic!("{other:?}"),
    }
    let entry = registry.get(&local).unwrap();
    assert!(entry.is_ldp());
    assert!(
        entry.ledger().is_none(),
        "LDP datasets must have no ledger at all — not an unexhausted one"
    );

    // Queries run the debiased path: ε_spent is 0, the remaining budget is ∞ (null
    // on the wire), and — because the server adds no noise to already-perturbed
    // data — the release is deterministic regardless of seed or requested ε.
    let a = client.query(&local, 5, 0.5, Some(7)).unwrap();
    assert_eq!(a.epsilon_spent, 0.0);
    assert!(a.remaining_budget.is_infinite());
    assert!(!a.itemsets.is_empty());
    let b = client.query(&local, 5, 123.0, Some(999_999)).unwrap();
    assert_eq!(
        a.itemsets, b.itemsets,
        "the debiased release must not depend on seed or requested ε"
    );
    assert_eq!(a.lambda, b.lambda);

    // Server-side perturbation through the registered channel is seed-reproducible
    // and matches the client-side library call exactly.
    let fresh = vec![vec![0u32, 3, 7], vec![1, 4, 8], vec![2, 5]];
    let (rows_a, echoed) = client.perturb(&local, fresh.clone(), Some(42)).unwrap();
    assert_eq!(echoed, 42);
    let (rows_b, _) = client.perturb(&local, fresh.clone(), Some(42)).unwrap();
    assert_eq!(rows_a, rows_b, "pinned-seed perturbation must be stable");
    let mut rng = StdRng::seed_from_u64(42);
    assert_eq!(
        rows_a,
        channel().perturb_rows(&mut rng, &fresh),
        "server-side perturbation must equal the client-side library call"
    );
    for row in &rows_a {
        assert!(
            row.iter().all(|&item| item < 10),
            "pad symbols must never leak into perturbed output: {row:?}"
        );
    }

    // Status tells the two modes apart: the LDP row carries its channel and zero
    // spend; it reports no journal (nothing to persist spend into).
    let status = client.status().unwrap();
    let row = status
        .datasets
        .iter()
        .find(|d| d.name == local)
        .expect("ldp dataset listed");
    assert_eq!(row.ldp, Some(channel_params()));
    assert_eq!(row.spent, 0.0);
    assert!(row.remaining.is_infinite());
    assert_eq!(row.queries, 2);
    assert!(row.journal.is_none());
    let central_row = status
        .datasets
        .iter()
        .find(|d| d.name == central)
        .expect("central dataset listed");
    assert_eq!(central_row.ldp, None);

    // After the whole LDP workload, the central ledger has not moved.
    let ledger = registry.get(&central).unwrap();
    assert_eq!(ledger.ledger().unwrap().spent(), 0.0);
    assert_eq!(ledger.ledger().unwrap().remaining(), 2.0);
}

/// Mode mismatches are structured, not panics or misleading conflicts: `perturb`
/// against a central dataset, a central registration over an LDP name, and an LDP
/// registration over a central name all come back `mode_mismatch`.
#[test]
fn cross_mode_operations_return_mode_mismatch() {
    let (registry, addr) = coordinator();
    let mut client = PbClient::connect(*addr).unwrap();
    let central = unique("seam-central");
    let local = unique("seam-local");
    registry
        .register(
            &central,
            TransactionDb::from_transactions(raw_rows()),
            Epsilon::Finite(1.0),
        )
        .unwrap();
    registry
        .register_spec(RegisterSpec::ldp(
            &local,
            DataSource::Rows(TransactionDb::from_transactions(perturbed_rows(3))),
            channel(),
        ))
        .unwrap();

    let err = server_code(client.perturb(&central, vec![vec![1]], None).unwrap_err());
    assert_eq!(err.code, ErrorCode::ModeMismatch);
    assert!(err.message.contains("register_ldp"), "{}", err.message);

    let err = server_code(
        client
            .register(
                ADMIN_TOKEN,
                RegisterRequest {
                    name: local.clone(),
                    source: RegisterSource::Rows(vec![vec![1]]),
                    budget: Some(1.0),
                    shards: None,
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::ModeMismatch);

    let err = server_code(
        client
            .register_ldp(
                ADMIN_TOKEN,
                RegisterLdpRequest {
                    name: central.clone(),
                    source: RegisterSource::Rows(vec![vec![1]]),
                    params: channel_params(),
                    shards: None,
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::ModeMismatch);

    // Unknown datasets and nonsense channels stay their own errors.
    let err = server_code(
        client
            .perturb("never-was", vec![vec![1]], None)
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::UnknownDataset);
    let err = server_code(
        client
            .register_ldp(
                ADMIN_TOKEN,
                RegisterLdpRequest {
                    name: unique("seam-bad"),
                    source: RegisterSource::Rows(vec![vec![1]]),
                    params: LdpParams {
                        epsilon_local: -1.0,
                        universe: 10,
                        pad: 4,
                    },
                    shards: None,
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// The placement invariant, LDP edition: for every shard count S ∈ 1..=8 and every
/// local/remote split, the debiased release is byte-identical to the unsharded
/// local registration. Debiasing happens once at the coordinator on the merged
/// counts; sharding and placement are pure execution knobs.
#[test]
fn ldp_releases_are_identical_across_shards_and_placement() {
    let (registry, addr) = coordinator();
    let worker = worker_addr();
    let rows = perturbed_rows(29);
    let mut client = PbClient::connect(*addr).unwrap();

    let reference_name = unique("ldp-placement-ref");
    registry
        .register_spec(RegisterSpec::ldp(
            &reference_name,
            DataSource::Rows(TransactionDb::from_transactions(rows.clone())),
            channel(),
        ))
        .unwrap();
    let reference = client.query(&reference_name, 4, 1.0, Some(41)).unwrap();
    assert!(!reference.itemsets.is_empty());

    for shards in 1..=8usize {
        for placed in [0, shards.div_ceil(2), shards] {
            let name = unique(&format!("ldp-placement-s{shards}p{placed}"));
            registry
                .register_spec(RegisterSpec {
                    shards: Some(shards),
                    workers: vec![worker.to_string(); placed],
                    ..RegisterSpec::ldp(
                        &name,
                        DataSource::Rows(TransactionDb::from_transactions(rows.clone())),
                        channel(),
                    )
                })
                .unwrap();
            let reply = client.query(&name, 4, 1.0, Some(41)).unwrap();
            registry.unregister(&name).unwrap();
            assert_eq!(
                reply.itemsets, reference.itemsets,
                "LDP release drifted at shards={shards} placed={placed}"
            );
            assert_eq!(reply.lambda, reference.lambda);
            assert_eq!(reply.candidate_count, reference.candidate_count);
        }
    }
}

/// The offline knobs over the wire: both are token-gated; the consistency toggle
/// flips live (and shows up in the release), the snapshot cadence is refused as
/// `unavailable` on a memory-only server (it is a journal knob).
#[test]
fn offline_knobs_are_token_gated_and_live() {
    let (registry, addr) = coordinator();
    let mut client = PbClient::connect(*addr).unwrap();
    let name = unique("knobs");
    registry
        .register(
            &name,
            TransactionDb::from_transactions(raw_rows()),
            Epsilon::Finite(1000.0),
        )
        .unwrap();

    // Wrong token: refused, nothing flips.
    let err = server_code(client.set_consistency("wrong", &name, false).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unauthorized);
    assert!(registry.get(&name).unwrap().consistency_enabled());
    let err = server_code(client.snapshot_every("wrong", 8).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unauthorized);

    // The toggle flips live and round-trips its state in the ack.
    match client.set_consistency(ADMIN_TOKEN, &name, false).unwrap() {
        AdminReply::Consistency { name: n, enabled } => {
            assert_eq!(n, name);
            assert!(!enabled);
        }
        other => panic!("{other:?}"),
    }
    assert!(!registry.get(&name).unwrap().consistency_enabled());
    // With the repair pass off, a pinned-seed release may legitimately differ from
    // the repaired one — but it must still be reproducible.
    let a = client.query(&name, 4, 0.5, Some(13)).unwrap();
    let b = client.query(&name, 4, 0.5, Some(13)).unwrap();
    assert_eq!(a.itemsets, b.itemsets);
    match client.set_consistency(ADMIN_TOKEN, &name, true).unwrap() {
        AdminReply::Consistency { enabled, .. } => assert!(enabled),
        other => panic!("{other:?}"),
    }
    let err = server_code(
        client
            .set_consistency(ADMIN_TOKEN, "never-was", true)
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::UnknownDataset);

    // Snapshot cadence needs a journal to tune: a memory-only server refuses with
    // a structured `unavailable`, not a silent no-op.
    let err = server_code(client.snapshot_every(ADMIN_TOKEN, 8).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(err.message.contains("state-dir"), "{}", err.message);
    let err = server_code(client.snapshot_every(ADMIN_TOKEN, u64::MAX).unwrap_err());
    assert_eq!(err.code, ErrorCode::Malformed);

    // An unreadable source file keeps its `unavailable` code, but the message names
    // the file, not persistence: this server has no state directory at all.
    let missing = std::env::temp_dir().join(format!(
        "{}-{}.dat",
        unique("pb-no-such-file"),
        std::process::id()
    ));
    let err = server_code(
        client
            .register(
                ADMIN_TOKEN,
                RegisterRequest {
                    name: unique("missing"),
                    source: RegisterSource::Path(missing.display().to_string()),
                    budget: Some(1.0),
                    shards: None,
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(
        err.message.starts_with("failed to read dataset file "),
        "{}",
        err.message
    );
}
