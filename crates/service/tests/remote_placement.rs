//! Remote shard placement over the wire: a real shard-worker server process model
//! (in-process `PbServer` in worker mode) behind a real coordinator, exercising
//!
//! * the placement invariant — pinned-seed releases are byte-identical whether a
//!   dataset's shards live locally, on a remote worker, or mixed (deterministic
//!   sweep plus a proptest over shard counts 1..=8),
//! * the worker wire surface — the shard-op state machine (`reset`/append/`seal`,
//!   structured refusals) and the mode split (a worker refuses queries and admin
//!   ops, a coordinator refuses shard ops),
//! * the shard-count seam — invalid `shards` in `register`/`reshard` envelopes come
//!   back as structured `malformed` errors and leave no state behind.

use pb_core::PrivBasis;
use pb_dp::Epsilon;
use pb_fim::{ItemSet, TransactionDb, VerticalIndex};
use pb_proto::{ClientError, ErrorCode, PbClient, RegisterRequest, RegisterSource, WireError};
use pb_service::{
    DataSource, DatasetEntry, DatasetRegistry, PbServer, RegisterSpec, ServiceConfig, StateDir,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const ADMIN_TOKEN: &str = "open-sesame";

/// One shared shard-worker server for the whole test binary (worker threads leak at
/// process exit, which is fine for tests). Shard keys are namespaced by dataset
/// name, so concurrent tests cannot collide.
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

fn unique(tag: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!("{tag}-{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

fn fixture_rows() -> Vec<Vec<u32>> {
    (0..12u32)
        .map(|i| vec![i % 3, 3 + (i % 4), 7 + (i % 2), 9 + (i % 5)])
        .collect()
}

fn server_code(err: ClientError) -> WireError {
    match err {
        ClientError::Server(e) => e,
        other => panic!("expected a structured server error, got {other}"),
    }
}

/// The tentpole invariant, deterministically: for every shard count and every
/// local/remote split, the pinned-seed release is byte-identical to the unsharded
/// local registration. The noise is drawn once at the coordinator on the merged
/// counts; placement is a pure execution knob.
#[test]
fn placements_release_identically() {
    let (registry, addr) = coordinator();
    let worker = worker_addr();
    let rows = fixture_rows();
    let reference_name = unique("placement-ref");
    registry
        .register(
            &reference_name,
            TransactionDb::from_transactions(rows.clone()),
            Epsilon::Finite(1000.0),
        )
        .unwrap();
    let mut client = PbClient::connect(*addr).unwrap();
    let reference = client.query(&reference_name, 4, 0.4, Some(41)).unwrap();
    assert!(!reference.itemsets.is_empty());

    for shards in 1..=4usize {
        for placed in 0..=shards {
            let name = unique(&format!("placement-s{shards}p{placed}"));
            let entry = registry
                .register_spec(RegisterSpec {
                    shards: Some(shards),
                    workers: vec![worker.to_string(); placed],
                    ..RegisterSpec::central(
                        &name,
                        DataSource::Rows(TransactionDb::from_transactions(rows.clone())),
                        Epsilon::Finite(1000.0),
                    )
                })
                .unwrap();
            // Placement is timed only when a shard was shipped to a worker.
            assert_eq!(
                entry.setup().placement > std::time::Duration::ZERO,
                placed > 0,
                "{:?} at shards={shards} placed={placed}",
                entry.setup()
            );
            let reply = client.query(&name, 4, 0.4, Some(41)).unwrap();
            assert_eq!(
                reply.itemsets, reference.itemsets,
                "release drifted at shards={shards} placed={placed}"
            );
            assert_eq!(reply.lambda, reference.lambda);
            assert_eq!(reply.candidate_count, reference.candidate_count);
            assert_eq!(reply.seed, reference.seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Placement invariance under arbitrary data: for S ∈ 1..=8 (clamped to the row
    /// count), all-local, all-remote, and mixed placements release the same bytes
    /// for the same pinned seed.
    #[test]
    fn remote_placement_is_byte_identical(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..10, 0..6),
            0..40,
        ),
        shards in 1usize..9,
        seed in 0u64..1000,
    ) {
        // Guarantee at least one non-trivial row so queries have something to mine.
        let mut rows = rows;
        rows.push(vec![0, 1]);
        let shards = shards.min(rows.len());
        let (registry, addr) = coordinator();
        let worker = worker_addr();
        let mut client = PbClient::connect(*addr).unwrap();

        let mut released = Vec::new();
        for placed in [0, shards.div_ceil(2), shards] {
            let name = unique(&format!("prop-s{shards}p{placed}"));
            registry
                .register_spec(RegisterSpec {
                    shards: Some(shards),
                    workers: vec![worker.to_string(); placed],
                    ..RegisterSpec::central(
                        &name,
                        DataSource::Rows(TransactionDb::from_transactions(rows.clone())),
                        Epsilon::Finite(1000.0),
                    )
                })
                .unwrap();
            let reply = client.query(&name, 3, 0.3, Some(seed)).unwrap();
            registry.unregister(&name).unwrap();
            released.push((placed, reply));
        }
        let (_, reference) = &released[0];
        for (placed, reply) in &released[1..] {
            prop_assert_eq!(
                &reply.itemsets, &reference.itemsets,
                "release drifted at shards={} placed={}", shards, placed
            );
            prop_assert_eq!(reply.lambda, reference.lambda);
            prop_assert_eq!(reply.candidate_count, reference.candidate_count);
        }
    }
}

/// Recovery re-places remote shards: a durable file dataset with three shards, two of
/// them on workers, comes back from the manifest with the same layout and placement,
/// and a pinned-seed release is byte-identical to the one before the restart.
#[test]
fn recovery_re_places_remote_shards() {
    let dir = std::env::temp_dir().join(unique(&format!("pb-replace-{}", std::process::id())));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rows.dat");
    let fimi: String = fixture_rows()
        .iter()
        .map(|row| {
            let items: Vec<String> = row.iter().map(u32::to_string).collect();
            items.join(" ") + "\n"
        })
        .collect();
    std::fs::write(&path, fimi).unwrap();
    let name = unique("replaced");
    let workers = vec![worker_addr().to_string(); 2];
    let release = |entry: &DatasetEntry| -> Vec<(ItemSet, u64)> {
        PrivBasis::with_defaults()
            .run_shared(
                &mut StdRng::seed_from_u64(41),
                entry.context(),
                4,
                Epsilon::Finite(0.4),
            )
            .unwrap()
            .itemsets
            .into_iter()
            .map(|(itemset, count)| (itemset, count.to_bits()))
            .collect()
    };
    let before = {
        let registry = DatasetRegistry::with_persistence(StateDir::open(&dir).unwrap()).unwrap();
        let entry = registry
            .register_spec(RegisterSpec {
                shards: Some(3),
                workers: workers.clone(),
                ..RegisterSpec::central(
                    &name,
                    DataSource::File(path.to_string_lossy().into_owned()),
                    Epsilon::Finite(10.0),
                )
            })
            .unwrap();
        assert!(entry.fabric().is_some());
        release(&entry)
    };
    assert!(!before.is_empty());

    let registry = DatasetRegistry::with_persistence(StateDir::open(&dir).unwrap()).unwrap();
    let report = registry.recover().unwrap();
    assert_eq!(report.loaded, vec![name.clone()], "{report:?}");
    let entry = registry.get(&name).unwrap();
    assert_eq!(entry.shards(), 3);
    assert_eq!(entry.workers(), workers.as_slice());
    assert!(entry.fabric().is_some());
    assert_eq!(release(&entry), before);
    drop((entry, registry));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The worker wire surface end to end: the `shard_load` state machine with its
/// structured refusals, exact counts matching a locally built index, the histogram
/// batch cap, and the refusal of non-shard ops.
#[test]
fn worker_serves_shard_ops_and_refuses_the_rest() {
    let mut client = PbClient::connect(worker_addr()).unwrap();

    // A worker holds no datasets and no registry: queries and admin ops bounce.
    let err = server_code(client.query("x", 2, 0.5, None).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(err.message.contains("shard worker"), "{}", err.message);
    let err = server_code(
        client
            .register(
                "whatever",
                RegisterRequest {
                    name: "x".into(),
                    source: RegisterSource::Rows(vec![vec![1]]),
                    budget: None,
                    shards: None,
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::Unavailable);

    // Appending to an absent key without `reset` is the restarted-worker signature:
    // `unknown_dataset`, which the coordinator answers by re-seeding.
    let key = unique("wire/shard");
    let err = server_code(
        client
            .shard_load(&key, vec![vec![1, 2]], false, false)
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::UnknownDataset);

    // Chunked seed: reset, append, seal — the reply carries the running row total.
    assert_eq!(
        client
            .shard_load(&key, vec![vec![1, 2], vec![2, 3]], true, false)
            .unwrap(),
        2
    );
    // Counting before the seal is refused as `unavailable` (still loading).
    let err = server_code(client.shard_supports(&key, vec![vec![1]]).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(err.message.contains("not sealed"), "{}", err.message);
    assert_eq!(
        client
            .shard_load(&key, vec![vec![1, 3]], false, true)
            .unwrap(),
        3
    );

    // Exact counts match a locally built index over the same rows.
    let rows = vec![vec![1u32, 2], vec![2, 3], vec![1, 3]];
    let db = TransactionDb::from_transactions(rows);
    let index = VerticalIndex::build(&db);
    assert_eq!(
        client
            .shard_supports(&key, vec![vec![2], vec![1, 2], vec![9]])
            .unwrap(),
        vec![2, 1, 0]
    );
    // Pair counts are positional over request order, zeros included.
    assert_eq!(
        client.shard_pairs(&key, vec![1, 2, 3]).unwrap(),
        vec![1, 1, 1]
    );
    assert_eq!(
        client.shard_pairs(&key, vec![1, 9, 2]).unwrap(),
        vec![0, 1, 0]
    );
    let histograms = client
        .shard_histograms(&key, vec![vec![1, 2], vec![3]])
        .unwrap();
    assert_eq!(
        histograms[0],
        index.bin_histogram(&ItemSet::new(vec![1, 2]))
    );
    assert_eq!(histograms[1], index.bin_histogram(&ItemSet::new(vec![3])));

    // Sealed shards refuse silent growth: appending without `reset` is a conflict…
    let err = server_code(
        client
            .shard_load(&key, vec![vec![5]], false, true)
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::Conflict);
    assert!(err.message.contains("re-seed"), "{}", err.message);
    // …while a `reset` re-seed over a seal starts clean.
    assert_eq!(
        client.shard_load(&key, vec![vec![7]], true, true).unwrap(),
        1
    );
    assert_eq!(client.shard_supports(&key, vec![vec![7]]).unwrap(), vec![1]);

    // The histogram batch cap: 17 bases of width 20 want 17·2^20 > 2^24 bins.
    let wide: Vec<u32> = (0..20).collect();
    let err = server_code(client.shard_histograms(&key, vec![wide; 17]).unwrap_err());
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.message.contains("bins"), "{}", err.message);
}

/// The shard-count seam over the wire: a coordinator refuses shard ops outright,
/// and invalid shard counts in `register`/`reshard` envelopes come back as
/// structured `malformed` errors — never a panic, never a silent clamp — leaving
/// no state behind.
#[test]
fn coordinator_refuses_shard_ops_and_invalid_shard_counts() {
    let (registry, addr) = coordinator();
    let mut client = PbClient::connect(*addr).unwrap();

    let err = server_code(client.shard_supports("any", vec![vec![1]]).unwrap_err());
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert!(err.message.contains("shard worker"), "{}", err.message);

    // register with more shards than rows: structured refusal, nothing registered.
    let name = unique("seam-toofew");
    let err = server_code(
        client
            .register(
                ADMIN_TOKEN,
                RegisterRequest {
                    name: name.clone(),
                    source: RegisterSource::Rows(vec![vec![1, 2], vec![2, 3]]),
                    budget: Some(1.0),
                    shards: Some(3),
                },
            )
            .unwrap_err(),
    );
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(
        err.message.contains("between 1 and the row count"),
        "{}",
        err.message
    );
    assert!(registry.get(&name).is_none(), "refusal must leave no entry");

    // reshard to 0 (rejected at the parser) and past the row count (rejected at the
    // registry) both come back `malformed` and change nothing.
    let name = unique("seam-reshard");
    client
        .register(
            ADMIN_TOKEN,
            RegisterRequest {
                name: name.clone(),
                source: RegisterSource::Rows(vec![vec![1, 2], vec![2, 3], vec![1, 3]]),
                budget: Some(1.0),
                shards: Some(2),
            },
        )
        .unwrap();
    let err = server_code(client.reshard(ADMIN_TOKEN, &name, 0).unwrap_err());
    assert_eq!(err.code, ErrorCode::Malformed);
    let err = server_code(client.reshard(ADMIN_TOKEN, &name, 4).unwrap_err());
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(
        err.message.contains("between 1 and the row count"),
        "{}",
        err.message
    );
    assert_eq!(registry.get(&name).unwrap().shards(), 2);
    // The boundary — exactly the row count — reshards fine.
    client.reshard(ADMIN_TOKEN, &name, 3).unwrap();
    assert_eq!(registry.get(&name).unwrap().shards(), 3);
}
