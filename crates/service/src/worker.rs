//! Shard-worker mode: serving shard-local count ops for a remote coordinator.
//!
//! A server started with [`ServiceConfig::worker`](crate::server::ServiceConfig) set
//! holds no datasets of its own. Instead the coordinator *seeds* row shards into it
//! over the versioned wire protocol (`shard_load` chunks, `reset` first and `seal`
//! last) and then drives exact count ops against them (`shard_supports`,
//! `shard_pairs`, `shard_histograms`). Every reply is an exact integer count over the
//! shard's rows — the worker draws no noise and holds no budget; the single Laplace
//! draw happens at the coordinator, after the per-shard histograms are merged by
//! integer summation, exactly as for local shards. Placement is therefore invisible
//! in released bytes.
//!
//! ## Trust model
//!
//! A worker trusts its network: anyone who can reach the port can load rows and read
//! exact counts, so workers must only listen on coordinator-reachable private
//! addresses (the admin token guards the *coordinator's* mutating surface, not the
//! worker's). The worker still bounds per-request work — the request-line cap bounds
//! rows per `shard_load` chunk, and `shard_histograms` refuses requests whose total
//! bin count exceeds [`MAX_TOTAL_BINS`].

use crate::protocol::{ErrorCode, Op, Response, WireError};
use pb_fim::pairs::num_pairs;
use pb_fim::{ItemSet, TransactionDb, VerticalIndex};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Upper bound on the summed bin count (`Σ 2^|B|`) of one `shard_histograms` request:
/// 16Mi bins ≈ 128 MiB of `u64`s at the absolute worst. Each basis is already capped
/// at [`MAX_BASIS_WIDTH`](pb_proto::MAX_BASIS_WIDTH) items by the protocol parser;
/// this bounds the *batch*.
pub(crate) const MAX_TOTAL_BINS: usize = 1 << 24;

/// One shard held by a worker: rows still arriving, or sealed and serving counts.
pub(crate) enum WorkerShard {
    /// `shard_load` chunks accumulate here until the sealing chunk arrives.
    Loading(Vec<ItemSet>),
    /// Sealed: indexed and serving count ops. Re-seeding requires `reset: true`.
    Sealed {
        db: Arc<TransactionDb>,
        index: Arc<VerticalIndex>,
    },
}

/// The worker's shard table, keyed by the coordinator-chosen shard key.
pub(crate) type ShardStore = BTreeMap<String, WorkerShard>;

/// Serves one shard op against the worker's shard store. Only called when
/// [`Op::is_shard_op`] holds and the server runs in worker mode.
pub(crate) fn run_shard_op(op: &Op, store: &std::sync::Mutex<ShardStore>) -> Response {
    // The chaos seam for the worker side of the fabric: an armed `fabric.serve`
    // plan fails requests here, which the coordinator observes as a transport
    // error and accounts as a fabric failure (failing the query closed).
    if let Err(e) = pb_fault::inject!("fabric.serve") {
        return Response::Error(WireError::new(
            ErrorCode::Unavailable,
            format!("injected fault at fabric.serve: {e}"),
        ));
    }
    let mut store = store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match op {
        Op::ShardLoad {
            key,
            rows,
            reset,
            seal,
        } => shard_load(&mut store, key, rows, *reset, *seal),
        Op::ShardSupports { key, itemsets } => with_sealed(&store, key, |_, index| {
            let sets: Vec<ItemSet> = itemsets.iter().map(|s| ItemSet::new(s.clone())).collect();
            Response::ShardCounts(
                index
                    .supports(&sets)
                    .into_iter()
                    .map(|c| c as u64)
                    .collect(),
            )
        }),
        Op::ShardPairs { key, items } => with_sealed(&store, key, |_, index| {
            // One count per unordered pair in *request order* (i < j), zeros
            // included: the coordinator merges these positionally across shards. A
            // sorted, repeat-free request (what the coordinator sends) is already the
            // flat order; any other is mapped onto it pair by pair, and an item
            // paired with a repeat of itself counts 0.
            let set = ItemSet::new(items.clone());
            let counts = index.pair_counts(&set);
            if set.items() == items.as_slice() {
                return Response::ShardCounts(counts.counts().iter().map(|&c| c as u64).collect());
            }
            let at: Vec<usize> = items
                .iter()
                .map(|item| set.items().partition_point(|x| x < item))
                .collect();
            let mut out = Vec::with_capacity(num_pairs(items.len()));
            for (i, &a) in at.iter().enumerate() {
                for &b in &at[i + 1..] {
                    let count = match a.cmp(&b) {
                        Ordering::Less => counts.at(a, b),
                        Ordering::Greater => counts.at(b, a),
                        Ordering::Equal => 0,
                    };
                    out.push(count as u64);
                }
            }
            Response::ShardCounts(out)
        }),
        Op::ShardHistograms { key, bases } => {
            let total_bins: usize = bases.iter().map(|b| 1usize << b.len().min(24)).sum();
            if total_bins > MAX_TOTAL_BINS {
                return Response::Error(WireError::malformed(format!(
                    "shard_histograms request wants {total_bins} bins in total; \
                     the per-request cap is {MAX_TOTAL_BINS}"
                )));
            }
            with_sealed(&store, key, |_, index| {
                let sets: Vec<ItemSet> = bases.iter().map(|b| ItemSet::new(b.clone())).collect();
                Response::ShardHistograms(
                    index.bin_histograms(&sets, pb_fim::index::available_parallelism()),
                )
            })
        }
        // `execute` routes only shard ops here.
        _ => Response::Error(WireError::new(
            ErrorCode::Internal,
            "non-shard op routed to the shard handler",
        )),
    }
}

fn shard_load(
    store: &mut ShardStore,
    key: &str,
    rows: &[Vec<u32>],
    reset: bool,
    seal: bool,
) -> Response {
    // First chunk (or explicit re-seed): start from empty, even over a seal. After
    // this insert the key always holds `Loading`, so the `Sealed`/absent arms below
    // are reachable only for appends without `reset`.
    if reset {
        store.insert(key.to_string(), WorkerShard::Loading(Vec::new()));
    }
    let buffer = match store.get_mut(key) {
        Some(WorkerShard::Loading(buffer)) => buffer,
        // Appending to a sealed shard without `reset` is a coordinator bug: the
        // sealed rows are already serving counts, and silently growing them would
        // desynchronise the shard from the coordinator's row partition.
        Some(WorkerShard::Sealed { .. }) => {
            return Response::Error(WireError::new(
                ErrorCode::Conflict,
                format!("shard {key:?} is sealed; re-seed it with `reset: true`"),
            ))
        }
        None => {
            return Response::Error(WireError::new(
                ErrorCode::UnknownDataset,
                format!("no shard is loading under key {key:?}; begin with `reset: true`"),
            ))
        }
    };
    buffer.extend(rows.iter().map(|r| ItemSet::new(r.clone())));
    let total = buffer.len() as u64;
    if seal {
        let rows = std::mem::take(buffer);
        let db = Arc::new(TransactionDb::from_itemsets(rows));
        let index = Arc::new(VerticalIndex::build(&db));
        store.insert(key.to_string(), WorkerShard::Sealed { db, index });
    }
    Response::ShardLoaded {
        key: key.to_string(),
        rows: total,
    }
}

/// Runs `f` against the sealed shard under `key`, with the structured refusals the
/// coordinator's recovery path keys on: `unknown_dataset` for an absent key (a
/// restarted worker — the coordinator re-seeds transparently), `unavailable` for a
/// shard still loading.
fn with_sealed(
    store: &ShardStore,
    key: &str,
    f: impl FnOnce(&TransactionDb, &VerticalIndex) -> Response,
) -> Response {
    match store.get(key) {
        None => Response::Error(WireError::new(
            ErrorCode::UnknownDataset,
            format!("no shard loaded under key {key:?}"),
        )),
        Some(WorkerShard::Loading(_)) => Response::Error(WireError::new(
            ErrorCode::Unavailable,
            format!("shard {key:?} is still loading (not sealed)"),
        )),
        Some(WorkerShard::Sealed { db, index }) => f(db, index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn op_pairs(items: &[u32]) -> Op {
        Op::ShardPairs {
            key: "k".into(),
            items: items.to_vec(),
        }
    }

    #[test]
    fn shard_pairs_replies_in_request_order_for_any_items() {
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|t| (0..6).filter(|j| (t + j) % (j + 2) == 0).collect())
            .collect();
        let store = Mutex::new(ShardStore::new());
        let load = Op::ShardLoad {
            key: "k".into(),
            rows: rows.clone(),
            reset: true,
            seal: true,
        };
        assert!(matches!(
            run_shard_op(&load, &store),
            Response::ShardLoaded { rows: 40, .. }
        ));
        let db = TransactionDb::from_transactions(rows);
        // Unsorted, repeated and absent (9) items: request-order pairs, an item with a
        // repeat of itself 0, each other pair its row-scan support.
        let items = [4, 1, 4, 9, 0, 2, 1];
        let sparse = db.pair_counts(&ItemSet::new(items.to_vec()));
        let mut expected = Vec::new();
        for (i, &a) in items.iter().enumerate() {
            for &b in &items[i + 1..] {
                expected.push(sparse.get(&(a.min(b), a.max(b))).copied().unwrap_or(0) as u64);
            }
        }
        let reply = run_shard_op(&op_pairs(&items), &store);
        assert_eq!(reply, Response::ShardCounts(expected));
        // The reply bytes are frozen wire: pinned as the row-by-row implementation
        // answered them.
        assert_eq!(reply.encode(2, Some("p")), PINNED_REPLY);
        // A sorted request is the flat order itself.
        let sorted = run_shard_op(&op_pairs(&[0, 1, 2, 4]), &store);
        let flat = VerticalIndex::build(&db).pair_counts(&ItemSet::new(vec![0, 1, 2, 4]));
        let flat: Vec<u64> = flat.counts().iter().map(|&c| c as u64).collect();
        assert_eq!(sorted, Response::ShardCounts(flat));
    }

    const PINNED_REPLY: &str =
        r#"{"v":2,"id":"p","status":"ok","counts":[7,0,0,7,4,7,7,0,7,4,0,0,7,4,7,0,0,0,10,7,4]}"#;
}
