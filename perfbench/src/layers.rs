//! The traced run's per-layer measurements.
//!
//! Two sources, both from outside the program:
//! * **Replay** — the run's queries replayed in process with spans around the public
//!   calls of each layer (`QueryContext`, `PrivBasis::run_shared_observed` with this
//!   module's [`PhaseObserver`], `VerticalIndex::bin_histogram`/`pair_counts`, the θ
//!   miners, `Envelope::parse`, `Response::encode`, a `BudgetLedger`). A layer's
//!   figure is its spans' self time: span time minus child spans.
//! * **Scrape** — `/metrics` before and after the timed phase: the server's own
//!   request, stage and fabric histograms and counters.

use crate::workload::{request_line, theta_rank, Inputs, Query, DATASET};
use pb_core::{PhaseObserver, PrivBasis};
use pb_dp::{BudgetLedger, Epsilon};
use pb_fim::VerticalIndex;
use pb_proto::{Envelope, Response};
use pb_service::persist::{DebitJournal, JournalSink, DEFAULT_SNAPSHOT_EVERY};
use pb_service::DatasetRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most timed queries replayed.
const REPLAY_CAP: usize = 240;
/// Most debits replayed through the ledger.
const LEDGER_CAP: usize = 1000;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span tree shared by every replayed call.
struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// The span new phases nest under.
    current: RefCell<Option<usize>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: RefCell::new(None),
        }
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`; spans opened inside nest under it.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let parent = *self.current.borrow();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        *self.current.borrow_mut() = Some(id);
        let out = std::hint::black_box(f());
        let end = self.ns();
        *self.current.borrow_mut() = parent;
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (out, end - spans[id].start_ns)
    }

    /// Σ self time and span count per name.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(children);
            e.1 += 1;
        }
        out
    }
}

impl PhaseObserver for Recorder {
    fn now(&self) -> u64 {
        self.ns()
    }

    fn phase(&self, name: &'static str, started: u64, ended: u64) {
        let parent = *self.current.borrow();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: started,
            end_ns: ended.max(started),
            parent,
        });
    }
}

/// What the replay measured, as named per-layer metrics.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Replays the run in process. `timed` holds the run's answered queries, each once,
/// in list order; `state` is a scratch directory for the journaled ledger.
pub fn replay(
    inputs: &Inputs,
    timed: &[Query],
    released: usize,
    state: &Path,
) -> Result<Metrics, String> {
    let rec = Recorder::new();
    let spec = &inputs.spec;
    let total = Epsilon::Finite(1e9);
    let mut m = Metrics::new();

    // pb-service::registry: registration, then the context build.
    let registry = DatasetRegistry::new();
    let (entry, _) = rec.span("registry.register", || {
        if spec.remote_shards > 0 {
            registry.register_sharded(DATASET, inputs.db.clone(), total, spec.remote_shards)
        } else {
            registry.register(DATASET, inputs.db.clone(), total)
        }
    });
    let entry = entry.map_err(|e| e.to_string())?;
    let (context, _) = rec.span("registry.context", || Arc::clone(entry.context()));
    let (index, _) = rec.span("fim.index_build", || VerticalIndex::build(&inputs.db));

    let pb = PrivBasis::new(pb_service::ServiceConfig::default().params);
    // Set-up's θ priming: each warm rank timed on the miner the server's context
    // uses, then the warm query itself (untimed), so the timed queries hit the memo.
    for q in &inputs.warm {
        let k1 = theta_rank(pb.params(), q.k);
        rec.span("theta.mine", || match context.sharded_db() {
            Some(sharded) => sharded.kth_support_count(k1),
            None => pb_fim::topk::top_k_itemsets(&inputs.db, k1, None)
                .get(k1.saturating_sub(1))
                .map_or(0.0, |f| f.count as f64),
        });
        let _ = pb.run_shared(
            &mut StdRng::seed_from_u64(q.seed),
            &context,
            q.k,
            Epsilon::Finite(q.epsilon),
        );
    }

    let mut bins = 0u64;
    let mut replayed = 0usize;
    for (i, q) in timed.iter().take(REPLAY_CAP).enumerate() {
        let id = format!("r{i}");
        let line = request_line(q, &id);
        let (parsed, _) = rec.span("proto.parse", || Envelope::parse(&line));
        parsed.map_err(|e| format!("replayed request does not parse: {:?}", e.error))?;
        let (output, _) = rec.span("core.run", || {
            pb.run_shared_observed(
                &mut StdRng::seed_from_u64(q.seed),
                &context,
                q.k,
                Epsilon::Finite(q.epsilon),
                &rec,
            )
        });
        let output = output.map_err(|e| e.to_string())?;
        for basis in output.basis_set.bases() {
            bins += 1u64 << basis.len();
            rec.span("fim.bin_histogram", || index.bin_histogram(basis));
        }
        if !output.frequent_pairs.is_empty() {
            rec.span("fim.pair_counts", || {
                index.pair_counts(&output.frequent_items)
            });
        }
        let reply = Response::Query(pb_service::protocol::query_reply(
            DATASET, q.epsilon, 0.0, q.seed, &output,
        ));
        rec.span("proto.encode", || {
            reply.encode(pb_proto::PROTOCOL_VERSION, Some(&id))
        });
        replayed += 1;
    }

    let debits = released.clamp(1, LEDGER_CAP);
    let ledger = ledger_replay(&rec, spec.durable, debits, state)?;
    m.extend(ledger);

    let times = rec.self_times();
    let mean_us = |name: &str| -> f64 {
        times
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e3)
    };
    let per_query_us = |names: &[&str]| -> f64 {
        let ns: u64 = names.iter().filter_map(|n| times.get(n)).map(|t| t.0).sum();
        ns as f64 / replayed.max(1) as f64 / 1e3
    };
    m.insert("core.lambda_us", per_query_us(&["lambda"]));
    m.insert("core.select_items_us", per_query_us(&["select_items"]));
    m.insert("core.select_pairs_us", per_query_us(&["select_pairs"]));
    m.insert("core.construct_us", per_query_us(&["construct"]));
    // Sharded contexts report counting as three phases; together they are BasisFreq.
    m.insert(
        "core.count_us",
        per_query_us(&["count", "noise_draw", "shard_merge", "reconstruct"]),
    );
    m.insert("core.consistency_us", per_query_us(&["consistency"]));
    m.insert("core.unattributed_us", per_query_us(&["core.run"]));
    m.insert("fim.bins_per_query", bins as f64 / replayed.max(1) as f64);
    let hist_ns = times.get("fim.bin_histogram").map_or(0, |t| t.0);
    m.insert(
        "fim.bin_histogram_ns_per_bin",
        hist_ns as f64 / bins.max(1) as f64,
    );
    m.insert("fim.pair_counts_us", mean_us("fim.pair_counts"));
    m.insert("fim.index_build_ms", mean_us("fim.index_build") / 1e3);
    m.insert("context.theta_mine_ms", mean_us("theta.mine") / 1e3);
    m.insert("proto.parse_us", mean_us("proto.parse"));
    m.insert("proto.encode_us", mean_us("proto.encode"));
    m.insert("registry.register_ms", mean_us("registry.register") / 1e3);
    m.insert("registry.context_ms", mean_us("registry.context") / 1e3);
    Ok(m)
}

/// Debits `n` queries' ε through a ledger shaped like the server's: journaled
/// (group-commit fsync, default snapshot cadence) on durable workloads, in memory
/// otherwise.
fn ledger_replay(rec: &Recorder, durable: bool, n: usize, state: &Path) -> Result<Metrics, String> {
    let total = Epsilon::Finite(1e9);
    let mut m = Metrics::new();
    let journal = if durable {
        std::fs::create_dir_all(state).map_err(|e| e.to_string())?;
        let (_, journal) = DebitJournal::open(state, DATASET, DEFAULT_SNAPSHOT_EVERY, total)
            .map_err(|e| format!("cannot open journal: {e}"))?;
        Some(Arc::new(Mutex::new(journal)))
    } else {
        None
    };
    let ledger = match &journal {
        Some(j) => {
            BudgetLedger::with_journal(total, 0.0, Box::new(JournalSink::new(Arc::clone(j))))
        }
        None => BudgetLedger::new(total),
    };
    let stats = || {
        journal
            .as_ref()
            .map(|j| j.lock().expect("journal lock").stats())
    };
    let (mut records, mut bytes) = (0u64, 0u64);
    let first = stats();
    for _ in 0..n {
        let before = stats();
        rec.span("ledger.debit", || ledger.try_spend(1.0))
            .0
            .map_err(|e| format!("ledger debit failed: {e}"))?;
        if let (Some(b), Some(a)) = (before, stats()) {
            // A compaction restarts the journal file: count what it holds now.
            let compacted = a.snapshot_generation > b.snapshot_generation;
            records += if compacted {
                a.wal_records
            } else {
                a.wal_records - b.wal_records
            };
            bytes += if compacted {
                a.wal_bytes
            } else {
                a.wal_bytes - b.wal_bytes
            };
        }
    }
    let snapshots = match (first, stats()) {
        (Some(a), Some(b)) => b.snapshot_generation - a.snapshot_generation,
        _ => 0,
    };
    let debit = rec
        .self_times()
        .get("ledger.debit")
        .map_or(0.0, |&(ns, c)| ns as f64 / c as f64 / 1e3);
    m.insert("ledger.debit_us", debit);
    m.insert(
        "ledger.journal_records_per_query",
        records as f64 / n as f64,
    );
    m.insert("ledger.journal_bytes_per_query", bytes as f64 / n as f64);
    m.insert(
        "ledger.snapshots_per_1k_queries",
        snapshots as f64 * 1000.0 / n as f64,
    );
    Ok(m)
}

/// A parsed `/metrics` exposition: `name{labels}` → value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(series, v)| Some((series.to_string(), v.parse().ok()?)))
                .collect(),
        )
    }

    /// Σ of every series of `name` whose labels contain `label` (empty: all).
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name) && series.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    /// Stage names seen in `pb_stage_duration_seconds`.
    pub fn stages(&self) -> BTreeSet<String> {
        self.0
            .keys()
            .filter_map(|s| s.strip_prefix("pb_stage_duration_seconds_count{stage=\""))
            .filter_map(|s| s.split('"').next())
            .map(str::to_string)
            .collect()
    }
}

/// Per-layer metrics read off the server between two scrapes of the timed phase.
pub fn server_side(
    before: &Scrape,
    after: &Scrape,
    queries: usize,
    client_mean_us: f64,
) -> Metrics {
    let delta = |name: &str, label: &str| after.sum(name, label) - before.sum(name, label);
    let q = queries.max(1) as f64;
    let mut m = Metrics::new();
    let req_count = delta("pb_request_duration_seconds_count", "op=\"query\"");
    let request_us =
        delta("pb_request_duration_seconds_sum", "op=\"query\"") * 1e6 / req_count.max(1.0);
    m.insert("server.request_us", request_us);
    m.insert("server.outside_us", client_mean_us - request_us);
    // Top-level stages tile a request; fabric RPC spans nest inside them.
    let staged_us: f64 = after
        .stages()
        .iter()
        .filter(|s| s.as_str() != "shard_rpc")
        .map(|s| delta("pb_stage_duration_seconds_sum", &format!("stage=\"{s}\"")))
        .sum::<f64>()
        * 1e6
        / req_count.max(1.0);
    m.insert("server.unattributed_us", request_us - staged_us);
    let rpcs = delta("pb_fabric_rpc_duration_seconds_count", "");
    m.insert("shard.rpcs_per_query", rpcs / q);
    m.insert(
        "shard.rpc_us",
        delta("pb_fabric_rpc_duration_seconds_sum", "") * 1e6 / rpcs.max(1.0),
    );
    m.insert(
        "shard.merge_us",
        delta("pb_stage_duration_seconds_sum", "stage=\"shard_merge\"") * 1e6 / q,
    );
    m.insert("shard.hedges", delta("pb_fabric_worker_hedges_total", ""));
    m.insert("shard.reseeds", delta("pb_fabric_worker_reseeds_total", ""));
    m.insert(
        "shard.failures",
        delta("pb_fabric_worker_failures_total", ""),
    );
    m
}
