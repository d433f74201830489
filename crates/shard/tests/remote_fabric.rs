//! The remote shard backend against an in-process fake worker: placement equality
//! (local / remote / mixed counts are identical), flat pair counts against the row
//! scan (shard counts, nested pool splits, a remote shard), fail-closed failure
//! accounting, and transparent re-seed of a restarted worker.

use pb_fim::itemset::ItemSet;
use pb_fim::{TransactionDb, VerticalIndex};
use pb_proto::{Envelope, ErrorCode, Op, Response, WireError};
use pb_shard::ShardedDb;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A minimal shard worker: one key → rows store served sequentially, speaking only
/// the v2 `shard_*` ops. Mirrors the real worker's wire contract (positional pair
/// counts with zeros, `unknown_dataset` for unseeded keys) without pb-service.
struct FakeWorker {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FakeWorker {
    fn spawn() -> FakeWorker {
        FakeWorker::bind(TcpListener::bind("127.0.0.1:0").expect("bind"))
    }

    fn bind(listener: TcpListener) -> FakeWorker {
        let addr = listener.local_addr().expect("local addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut store: BTreeMap<String, Vec<ItemSet>> = BTreeMap::new();
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                serve(stream, &mut store, &stop_flag);
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        FakeWorker {
            addr,
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the accept loop and drops the listener, freeing the port.
    fn stop(mut self) -> SocketAddr {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock the blocking accept
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.addr
    }
}

fn serve(stream: TcpStream, store: &mut BTreeMap<String, Vec<ItemSet>>, stop: &AtomicBool) {
    // A short read timeout keeps the loop re-checking `stop`, so FakeWorker::stop()
    // can join even while a client connection is idle but open.
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(50)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return,
            // A timeout may leave a partial line in the buffer — keep it and
            // resume reading where it left off.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
            Ok(_) => {}
        }
        let Ok(envelope) = Envelope::parse(line.trim_end()) else {
            return;
        };
        let id = envelope.id;
        let reply = respond(envelope.op, store);
        if writeln!(writer, "{}", reply.encode(2, id.as_deref())).is_err() {
            return;
        }
        line.clear();
    }
}

fn respond(op: Op, store: &mut BTreeMap<String, Vec<ItemSet>>) -> Response {
    let unknown = |key: &str| {
        Response::Error(WireError {
            code: ErrorCode::UnknownDataset,
            message: format!("no shard loaded under key {key:?}"),
        })
    };
    match op {
        Op::ShardLoad {
            key, rows, reset, ..
        } => {
            let entry = store.entry(key.clone()).or_default();
            if reset {
                entry.clear();
            }
            entry.extend(rows.into_iter().map(ItemSet::new));
            Response::ShardLoaded {
                key,
                rows: entry.len() as u64,
            }
        }
        Op::ShardSupports { key, itemsets } => match store.get(&key) {
            None => unknown(&key),
            Some(rows) => {
                let db = TransactionDb::from_itemsets(rows.clone());
                let sets: Vec<ItemSet> = itemsets.into_iter().map(ItemSet::new).collect();
                Response::ShardCounts(db.supports(&sets).into_iter().map(|c| c as u64).collect())
            }
        },
        Op::ShardPairs { key, items } => match store.get(&key) {
            None => unknown(&key),
            Some(rows) => {
                let db = TransactionDb::from_itemsets(rows.clone());
                let counts = db.pair_counts(&ItemSet::new(items.clone()));
                let mut out = Vec::new();
                for i in 0..items.len() {
                    for j in i + 1..items.len() {
                        let (a, b) = (items[i].min(items[j]), items[i].max(items[j]));
                        out.push(counts.get(&(a, b)).copied().unwrap_or(0) as u64);
                    }
                }
                Response::ShardCounts(out)
            }
        },
        Op::ShardHistograms { key, bases } => match store.get(&key) {
            None => unknown(&key),
            Some(rows) => {
                let db = TransactionDb::from_itemsets(rows.clone());
                let index = VerticalIndex::build(&db);
                Response::ShardHistograms(
                    bases
                        .into_iter()
                        .map(|b| index.bin_histogram(&ItemSet::new(b)))
                        .collect(),
                )
            }
        },
        other => Response::Error(WireError::malformed(format!(
            "fake worker only serves shard ops, got {}",
            other.name()
        ))),
    }
}

fn sample_db() -> TransactionDb {
    TransactionDb::from_transactions(vec![
        vec![1, 2, 3],
        vec![1, 2],
        vec![2, 3],
        vec![1, 2, 3, 4],
        vec![4],
        vec![],
        vec![4, 5],
        vec![1, 5],
        vec![2, 4, 5],
        vec![1, 3, 5],
        vec![2, 3, 4, 5],
        vec![1],
    ])
}

fn set(items: &[u32]) -> ItemSet {
    ItemSet::new(items.to_vec())
}

fn place(db: &TransactionDb, shards: usize, workers: &[SocketAddr]) -> ShardedDb {
    ShardedDb::partition(db, shards)
        .with_workers(workers, "t")
        .expect("placement")
}

#[test]
fn remote_and_mixed_placements_match_local() {
    let db = sample_db();
    let index = VerticalIndex::build(&db);
    let queries = [
        set(&[1]),
        set(&[1, 2]),
        set(&[2, 3]),
        set(&[4, 5]),
        set(&[9]),
    ];
    let items = set(&[1, 2, 3, 4, 5]);
    let bases = [set(&[1, 2, 3]), set(&[4, 5]), set(&[])];
    for shards in 1..=4 {
        // 0 workers = all local, `shards` workers = all remote, between = mixed.
        for placed in 0..=shards {
            let workers: Vec<FakeWorker> = (0..placed).map(|_| FakeWorker::spawn()).collect();
            let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
            let sharded = place(&db, shards, &addrs);
            assert_eq!(
                sharded.num_remote_shards(),
                placed.min(sharded.num_shards())
            );
            assert_eq!(sharded.items_by_frequency(), &db.items_by_frequency()[..]);
            assert_eq!(sharded.supports(&queries), db.supports(&queries));
            assert_eq!(sharded.pair_counts(&items), db.pair_counts(&items));
            for (basis, hist) in bases.iter().zip(sharded.bin_histograms(&bases)) {
                assert_eq!(
                    hist,
                    index.bin_histogram(basis),
                    "{basis:?} S={shards} W={placed}"
                );
            }
            assert_eq!(sharded.fabric_failures(), 0, "S={shards} W={placed}");
            assert!(!sharded.fabric_down());
            for w in workers {
                w.stop();
            }
        }
    }
}

#[test]
fn dead_worker_zeroes_counts_and_records_failures() {
    let db = sample_db();
    let worker = FakeWorker::spawn();
    let sharded = place(&db, 2, &[worker.addr]);
    assert_eq!(sharded.supports(&[set(&[1])]), db.supports(&[set(&[1])]));
    worker.stop();

    // Shard 0 is unreachable: its counts degrade to zeros (shard 1 still answers),
    // and every failed op moves the monotone fabric counter.
    let before = sharded.fabric_failures();
    let partial = sharded.supports(&[set(&[1])]);
    assert!(partial[0] < db.support(&set(&[1])));
    assert_eq!(sharded.fabric_failures(), before + 1);
    assert!(sharded.fabric_down());
    assert!(sharded.fabric_last_error().contains("worker"));

    let hists = sharded.bin_histograms(&[set(&[1, 2])]);
    assert_eq!(hists[0].len(), 4);
    assert_eq!(sharded.fabric_failures(), before + 2);
    // The counter never resets: fail-closed query layers compare snapshots.
    assert!(sharded.fabric_failures() > 0);
}

#[test]
fn restarted_worker_is_reseeded_transparently() {
    let db = sample_db();
    let worker = FakeWorker::spawn();
    let sharded = place(&db, 3, &[worker.addr]);
    assert_eq!(sharded.supports(&[set(&[2])]), db.supports(&[set(&[2])]));

    // Restart the worker on the same port with an empty store: the next op rides
    // the hedge path (dead connection → fresh dial), gets `unknown_dataset`,
    // re-seeds from the retained rows, and succeeds without a recorded failure.
    let addr = worker.stop();
    let restarted = FakeWorker::bind(TcpListener::bind(addr).expect("rebind"));
    assert_eq!(sharded.supports(&[set(&[2])]), db.supports(&[set(&[2])]));
    assert_eq!(
        sharded.pair_counts(&set(&[1, 2, 3])),
        db.pair_counts(&set(&[1, 2, 3]))
    );
    assert_eq!(sharded.fabric_failures(), 0);
    assert!(!sharded.fabric_down());
    restarted.stop();
}

#[test]
fn flat_pair_counts_match_the_row_scan() {
    // At S = 3 each shard spans more than 256 words, so at a budget of 4 every shard
    // leg splits its own word range on the pool: the nested split. Item 20 occurs only
    // in the first shard, item 21 only in the last, item 99 nowhere.
    let n = 3 * 64 * 260;
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|t| {
            let mut row: Vec<u32> = (0..8u32)
                .filter(|&j| (t * 13 + j as usize * 7).is_multiple_of(j as usize + 2))
                .collect();
            if t < 500 {
                row.push(20);
            }
            if t >= n - 500 {
                row.push(21);
            }
            row
        })
        .collect();
    let db = TransactionDb::from_transactions(rows);
    let items = set(&[0, 1, 2, 3, 4, 5, 6, 7, 20, 21, 99]);
    let expected = db.pair_counts(&items);
    for threads in [1, 4] {
        pb_fim::pool::set_parallelism_override(Some(threads));
        for shards in 1..=3 {
            let counts = ShardedDb::partition(&db, shards).pair_counts(&items);
            assert_eq!(counts.len(), 55, "one count per pair, zeros included");
            assert_eq!(counts, expected, "S={shards} at {threads} threads");
        }
    }
    pb_fim::pool::set_parallelism_override(None);

    // One remote shard beside a local one: the wire vector merges by position.
    let worker = FakeWorker::spawn();
    let sharded = place(&db, 2, &[worker.addr]);
    assert_eq!(sharded.num_remote_shards(), 1);
    assert_eq!(sharded.pair_counts(&items), expected);
    assert_eq!(sharded.fabric_failures(), 0);
    worker.stop();
}
