//! Output checks: every released `itemsets` byte-compared against an in-process
//! `run_shared` reference with the same (k, ε, seed), the server's spent ε against
//! the sum over released replies, and — on durable workloads — one `released`
//! audit line per released reply.

use crate::load::Sample;
use crate::workload::{Query, DATASET};
use pb_core::{PrivBasis, QueryContext};
use pb_dp::Epsilon;
use pb_proto::{QueryReply, Response};
use pb_shard::ShardedDb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A query's identity for reference lookup: (k, ε bits, seed).
pub type Key = (usize, u64, u64);

/// The key of a query.
pub fn key(q: &Query) -> Key {
    (q.k, q.epsilon.to_bits(), q.seed)
}

/// Reference releases, computed in process, per distinct query.
pub type Reference = BTreeMap<Key, QueryReply>;

/// Runs every distinct query through `run_shared` on a context over `db`.
///
/// The reference context is a 2-shard one: releases are byte-identical for any
/// shard count (property-tested in pb-core), and its best-first θ miner keeps the
/// check fast where θ must be mined.
pub fn reference(db: &pb_fim::TransactionDb, warm: &[Query], timed: &[Query]) -> Reference {
    let context = Arc::new(QueryContext::sharded(
        ShardedDb::partition(db, 2).into_shared(),
    ));
    let pb = PrivBasis::new(pb_service::ServiceConfig::default().params);
    let run = |q: &Query| {
        let output = pb
            .run_shared(
                &mut StdRng::seed_from_u64(q.seed),
                &context,
                q.k,
                Epsilon::Finite(q.epsilon),
            )
            .map_err(|e| e.to_string());
        // remaining_budget is not compared (only the itemsets are).
        output.map(|o| pb_service::protocol::query_reply(DATASET, q.epsilon, 0.0, q.seed, &o))
    };
    let mut replies = BTreeMap::new();
    for q in warm {
        if let Ok(reply) = run(q) {
            replies.insert(key(q), reply);
        }
    }
    let mut distinct: BTreeMap<Key, Query> = BTreeMap::new();
    for q in timed {
        distinct.entry(key(q)).or_insert(*q);
    }
    let todo: Vec<Query> = distinct.into_values().collect();
    let next = Mutex::new(0usize);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..pb_fim::index::available_parallelism().clamp(1, 2) {
            scope.spawn(|| loop {
                let i = {
                    let mut next = next.lock().expect("no panics while held");
                    *next += 1;
                    *next - 1
                };
                let Some(q) = todo.get(i) else { break };
                if let Ok(reply) = run(q) {
                    done.lock()
                        .expect("no panics while held")
                        .push((key(q), reply));
                }
            });
        }
    });
    replies.extend(done.into_inner().expect("no panics while held"));
    replies
}

/// The bytes from `"itemsets":` to the end of a reply (the field is encoded last).
fn itemsets_bytes(reply: &str) -> Option<&str> {
    reply.find("\"itemsets\":").map(|at| reply[at..].trim_end())
}

/// The reference bytes of the `itemsets` field.
pub fn reference_bytes(reply: &QueryReply) -> String {
    let encoded = Response::Query(reply.clone()).encode(pb_proto::PROTOCOL_VERSION, None);
    itemsets_bytes(&encoded)
        .expect("a query reply encodes an itemsets field")
        .to_string()
}

/// Outcome of checking one run's replies.
#[derive(Debug, Default)]
pub struct Checked {
    /// Replies byte-identical to the reference.
    pub verified: usize,
    /// Replies that carried a release (status ok).
    pub released: usize,
    /// Transport errors, timeouts and structured errors.
    pub failed: usize,
    /// Σε over released replies.
    pub epsilon_released: f64,
    /// First mismatch or failure, for the report.
    pub first_problem: Option<String>,
}

/// Checks samples of `queries` (set-up samples index `warm` from `usize::MAX` down).
pub fn check(
    samples: &[Sample],
    warm: &[Query],
    queries: &[Query],
    reference: &Reference,
) -> Checked {
    let expected: BTreeMap<Key, String> = reference
        .iter()
        .map(|(k, reply)| (*k, reference_bytes(reply)))
        .collect();
    let mut out = Checked::default();
    for sample in samples {
        let q = match queries.get(sample.index) {
            Some(q) => q,
            None => &warm[usize::MAX - sample.index],
        };
        // (what went wrong, whether it counts as a failed query)
        let problem = match &sample.reply {
            Err(e) => Some((format!("transport error: {e}"), true)),
            Ok(body) if !body.contains("\"status\":\"ok\"") => {
                Some((format!("error reply: {body}"), true))
            }
            Ok(body) => {
                out.released += 1;
                out.epsilon_released += q.epsilon;
                match (itemsets_bytes(body), expected.get(&key(q))) {
                    (Some(got), Some(want)) if got == want => {
                        out.verified += 1;
                        None
                    }
                    (got, _) => Some((
                        format!(
                            "itemsets differ from the reference for k={} seed={}: {:?}",
                            q.k, q.seed, got
                        ),
                        false,
                    )),
                }
            }
        };
        if let Some((problem, failed)) = problem {
            out.failed += usize::from(failed);
            out.first_problem.get_or_insert(problem);
        }
    }
    out
}

/// The server's spent ε over every dataset, from the `status` op.
pub fn status_spent(status: &str) -> Result<f64, String> {
    match Response::parse(status).map(|p| p.response) {
        Ok(Response::Status(s)) if !s.datasets.is_empty() => {
            Ok(s.datasets.iter().map(|d| d.spent).sum())
        }
        other => Err(format!("unexpected status reply: {other:?}")),
    }
}

/// `released` lines in the state directory's audit log.
pub fn audit_released(state_dir: &Path) -> Result<usize, String> {
    let path = state_dir.join(pb_service::audit_log::AUDIT_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| l.contains("\"outcome\":\"released\""))
        .count())
}
