//! The workloads: what each one serves, how it is reached, and the pinned query list
//! a workload seed expands into.
//!
//! Each workload loads one layer and leaves the others near zero (see
//! `BENCHMARK.json` for the reasons and the standing findings). The dataset of a
//! workload is fixed — a Quest database from a per-workload data seed — so that runs
//! with different `--seed`s do the same amount of counting; the workload seed picks
//! the queries' pinned noise seeds.

use pb_datagen::{QuestConfig, QuestGenerator};
use pb_fim::TransactionDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dataset name every workload registers.
pub const DATASET: &str = "bench";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k rows, HTTP keep-alive, warm θ memo: counting and consistency.
    WarmHttp,
    /// Two remote shard workers reached through `PbClient`, durable ledger: the
    /// fabric.
    RemoteFabric,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 2] = [Workload::WarmHttp, Workload::RemoteFabric];

/// How the load generator reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// HTTP/1.1 keep-alive `POST /v1/query`, each request in one write.
    Http,
    /// TCP protocol v2, each request line in one write.
    Line,
    /// TCP protocol v2 through the typed `PbClient` (its own write path).
    PbClient,
}

/// One pinned-seed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Top-k.
    pub k: usize,
    /// ε spent by the query.
    pub epsilon: f64,
    /// The pinned RNG seed (53 bits, so the echoed seed survives JSON).
    pub seed: u64,
}

/// The fixed shape of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Rows in the Quest dataset.
    pub rows: usize,
    /// Seed of the Quest generator (fixed per workload).
    pub data_seed: u64,
    /// Row shards placed on `shard-worker` processes (0 = unsharded, in process).
    pub remote_shards: usize,
    /// Whether the server runs with `--state-dir` (durable journal and audit log).
    pub durable: bool,
    /// The client transport.
    pub transport: Transport,
    /// Closed-loop client connections.
    pub clients: usize,
    /// `k` values primed (θ mined, context built) during set-up.
    pub warm_ks: Vec<usize>,
    /// Server start-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload's shape.
    pub spec: Spec,
    /// The dataset.
    pub db: TransactionDb,
    /// The dataset in FIMI format (what the server loads).
    pub fimi: Vec<u8>,
    /// Set-up queries, one per warm `k`.
    pub warm: Vec<Query>,
    /// The timed-phase query list.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHttp => "warm_http",
            Workload::RemoteFabric => "remote_fabric",
        }
    }

    /// The workload's shape; `tiny` shrinks it for the smoke test.
    ///
    /// Both use data seed 42 (the `pb-bench` fixture), whose 100k-row queries take
    /// a few milliseconds.
    pub fn spec(self, tiny: bool) -> Spec {
        let spec = match self {
            Workload::WarmHttp => Spec {
                rows: 100_000,
                data_seed: 42,
                remote_shards: 0,
                durable: false,
                transport: Transport::Http,
                clients: 1,
                warm_ks: vec![10, 20, 40],
                setups: 3,
            },
            // The durable ledger rides along: its cost is small next to the fabric
            // legs, and its layers are measured in the traced run.
            Workload::RemoteFabric => Spec {
                rows: 100_000,
                data_seed: 42,
                remote_shards: 2,
                durable: true,
                transport: Transport::PbClient,
                clients: 2,
                warm_ks: vec![10, 20],
                setups: 2,
            },
        };
        if tiny {
            Spec {
                rows: 2_000,
                setups: 1,
                ..spec
            }
        } else {
            spec
        }
    }

    /// The `k` sequence of the timed phase, before seeding. `remote_fabric` sends
    /// k=10 twice as often as k=20 so that its percentiles fall inside a latency
    /// cluster, not on the boundary between two.
    fn ks(self) -> Vec<usize> {
        match self {
            Workload::WarmHttp => cycle_of(&[10, 20, 40], 600),
            Workload::RemoteFabric => cycle_of(&[10, 20, 10], 120),
        }
    }

    /// Generates the inputs: the same `(workload, seed, tiny)` always gives the same
    /// FIMI bytes and the same query lists.
    pub fn inputs(self, seed: u64, tiny: bool) -> Inputs {
        let spec = self.spec(tiny);
        let db = QuestGenerator::new(QuestConfig {
            num_transactions: spec.rows,
            ..QuestConfig::default()
        })
        .generate(spec.data_seed);
        let mut fimi = Vec::new();
        pb_fim::io::write_fimi(&db, &mut fimi).expect("writing to a Vec cannot fail");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7062_6265_6e63_6821);
        let mut draw = |k| Query {
            k,
            epsilon: 1.0,
            seed: rng.next_u64() & ((1 << 53) - 1),
        };
        let queries = self.ks().into_iter().map(&mut draw).collect();
        let warm = spec.warm_ks.iter().map(|&k| draw(k)).collect();
        Inputs {
            spec,
            db,
            fimi,
            warm,
            queries,
        }
    }
}

fn cycle_of(ks: &[usize], len: usize) -> Vec<usize> {
    ks.iter().copied().cycle().take(len).collect()
}

/// The v2 request line for a query (also what `proto.parse_us` parses).
pub fn request_line(q: &Query, id: &str) -> String {
    pb_proto::Envelope::v2(
        id,
        None,
        pb_proto::Op::Query(pb_proto::QueryRequest {
            dataset: DATASET.to_string(),
            k: q.k,
            epsilon: q.epsilon,
            seed: Some(q.seed),
        }),
    )
    .encode()
}

/// The η-scaled θ rank a query mines (the key of the server's θ memo).
pub fn theta_rank(params: &pb_core::PrivBasisParams, k: usize) -> usize {
    ((k as f64 * params.eta_for(k)).ceil() as usize).max(1)
}
