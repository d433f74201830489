//! The remote shard backend: shard-local count ops served by a worker process.
//!
//! A [`RemoteShard`] owns one long-lived [`PbClient`] connection to a
//! `privbasis-cli shard-worker` process and speaks the v2 `shard_*` ops
//! (`shard_load`, `shard_supports`, `shard_pairs`, `shard_histograms`). The worker
//! holds the shard's rows and answers *exact integer counts* — never noise — so the
//! coordinator's merge, and therefore the released bytes, are identical whether a
//! shard is local or remote.
//!
//! ## Failure model: fail closed, stay monotone
//!
//! The counting surface of [`ShardedDb`](crate::ShardedDb) is infallible by design
//! (the mechanism above it assumes counts exist), so a remote failure cannot surface
//! as a `Result` mid-merge. Instead every failed op:
//!
//! 1. substitutes zeros of the correct shape (the merge stays well-formed),
//! 2. bumps the shared [`Fabric`] failure counter — **monotone, never cleared**.
//!
//! The query layer snapshots [`Fabric::failures`] before running a mechanism and
//! aborts the query if the counter moved: garbage counts are never released and no ε
//! is spent on them. The counter is deliberately never reset — a reset would race
//! with a concurrent query's snapshot and let a failure slip between two readings.
//!
//! ## Hedging and recovery
//!
//! Each op runs first on the existing connection with a short *hedge* deadline
//! ([`DEFAULT_HEDGE_AFTER`], a socket read timeout — no wall clocks in this crate).
//! If that attempt times out or errors, the shard dials a fresh connection and
//! retries once under the client's full deadline; the ops are deterministic exact
//! counts, so a replay is always safe. A worker that answers `unknown_dataset`
//! (it restarted and lost its in-memory shard) is re-seeded from the coordinator's
//! retained rows and asked again — recovery is transparent to the query if the
//! worker is back up in time.
//!
//! Fault sites `fabric.connect` / `fabric.write` / `fabric.read` cover the dial and
//! both sides of each round trip, so chaos schedules can kill any leg
//! deterministically.

use pb_fim::itemset::ItemSet;
use pb_fim::pairs::num_pairs;
use pb_fim::{PairCounts, TransactionDb};
use pb_proto::{ClientError, ErrorCode, PbClient};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Socket read timeout of the first (hedged) attempt of every remote op. A worker
/// slower than this gets one fresh-connection retry under the client's full
/// deadline before the op counts as failed.
pub const DEFAULT_HEDGE_AFTER: Duration = Duration::from_secs(2);

/// Approximate payload budget per `shard_load` chunk, kept far below the server's
/// 1 MiB request-line cap even after JSON framing overhead.
const LOAD_CHUNK_BYTES: usize = 256 * 1024;

/// Observes remote-shard RPCs, using opaque caller-minted instants (same
/// opaque-token pattern as `pb_core::PhaseObserver`: this crate never touches a
/// clock, the observer interprets its own tokens).
pub trait FabricObserver: Send + Sync {
    /// Mints an opaque instant token.
    fn now(&self) -> u64;

    /// Records one remote op: which trace it served (if a label was set), the
    /// worker address, start/end tokens, and whether it succeeded, hedged onto a
    /// fresh connection, or transparently re-seeded a restarted worker.
    #[allow(clippy::too_many_arguments)]
    fn rpc(
        &self,
        trace: Option<&str>,
        addr: &str,
        started: u64,
        ended: u64,
        ok: bool,
        hedged: bool,
        reseeded: bool,
    );
}

/// Per-worker event counters of one dataset's fabric (all monotone).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Failed ops attributed to this worker.
    pub failures: u64,
    /// Ops that abandoned the live connection and retried on a fresh dial.
    pub hedges: u64,
    /// Transparent re-seeds after the worker answered `unknown_dataset`.
    pub reseeds: u64,
}

/// Shared health state of a sharded dataset's remote fabric.
///
/// One `Fabric` is shared by all [`RemoteShard`]s of a dataset. `failures` is a
/// monotone event counter: queries snapshot it before counting and compare after,
/// so any remote failure inside the window — regardless of which worker — is
/// detected without per-op plumbing through the infallible counting surface.
/// `hedges` / `reseeds` (global and per worker address) are observability-only
/// counters with the same monotone discipline.
#[derive(Default)]
pub struct Fabric {
    failures: AtomicU64,
    hedges: AtomicU64,
    reseeds: AtomicU64,
    last_error: Mutex<String>,
    workers: Mutex<BTreeMap<String, WorkerStats>>,
    observer: Mutex<Option<Arc<dyn FabricObserver>>>,
    // The trace label rides the fabric rather than a thread-local because count ops
    // fan out across the counting pool's helper threads. Under concurrent queries
    // on the same dataset the last writer wins — acceptable for an
    // observability-only attribution that never touches released bytes.
    trace_label: Mutex<Option<String>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("failures", &self.failures())
            .field("hedges", &self.hedges())
            .field("reseeds", &self.reseeds())
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Total remote-op failures since the dataset was registered (monotone).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }

    /// Total hedged retries (live connection abandoned for a fresh dial) since the
    /// dataset was registered (monotone).
    pub fn hedges(&self) -> u64 {
        self.hedges.load(Ordering::SeqCst)
    }

    /// Total transparent worker re-seeds since the dataset was registered (monotone).
    pub fn reseeds(&self) -> u64 {
        self.reseeds.load(Ordering::SeqCst)
    }

    /// Human-readable description of the most recent failure (empty if none).
    pub fn last_error(&self) -> String {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// A snapshot of the per-worker counters, keyed by worker address.
    pub fn worker_stats(&self) -> BTreeMap<String, WorkerStats> {
        self.workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Installs (or clears) the RPC observer. Observation is passive: it never
    /// changes retry behaviour or any released byte.
    pub fn set_observer(&self, observer: Option<Arc<dyn FabricObserver>>) {
        *self.observer.lock().unwrap_or_else(|e| e.into_inner()) = observer;
    }

    /// Labels subsequent remote ops with a trace id (cleared with `None`). Under
    /// concurrent queries on one dataset the last writer wins; the label is
    /// observability-only.
    pub fn set_trace_label(&self, label: Option<String>) {
        *self.trace_label.lock().unwrap_or_else(|e| e.into_inner()) = label;
    }

    /// The current trace label, if one is set.
    pub fn trace_label(&self) -> Option<String> {
        self.trace_label
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn observer(&self) -> Option<Arc<dyn FabricObserver>> {
        self.observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn with_worker(&self, addr: &str, update: impl FnOnce(&mut WorkerStats)) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        update(workers.entry(addr.to_string()).or_default());
    }

    fn record(&self, addr: &str, message: String) {
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = message;
        self.with_worker(addr, |w| w.failures += 1);
        // The message is published before the counter moves, so a query that
        // observes the bump can always read a current error message.
        self.failures.fetch_add(1, Ordering::SeqCst);
    }

    fn note_hedge(&self, addr: &str) {
        self.with_worker(addr, |w| w.hedges += 1);
        self.hedges.fetch_add(1, Ordering::SeqCst);
    }

    fn note_reseed(&self, addr: &str) {
        self.with_worker(addr, |w| w.reseeds += 1);
        self.reseeds.fetch_add(1, Ordering::SeqCst);
    }
}

/// Where a shard's count ops run.
#[derive(Debug, Clone)]
pub enum ShardBackend {
    /// In this process, on the shard's own `VerticalIndex`.
    Local,
    /// On a worker process over pb-proto (shared: a count op's leg on a pool helper
    /// holds its own handle to the connection, retained rows and health).
    Remote(Arc<RemoteShard>),
}

/// One shard served by a remote worker process.
///
/// Retains the shard's rows (`Arc`-shared with the local [`Shard`](crate::Shard),
/// so no extra copy): they re-seed a restarted worker and keep cheap whole-dataset
/// ops (item counts, reshard row rebuilds) local and failure-free.
pub struct RemoteShard {
    addr: SocketAddr,
    key: String,
    rows: Arc<TransactionDb>,
    fabric: Arc<Fabric>,
    conn: Mutex<Option<PbClient>>,
    healthy: AtomicBool,
    hedge_after: Duration,
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard")
            .field("addr", &self.addr)
            .field("key", &self.key)
            .field("rows", &self.rows.len())
            .field("healthy", &self.healthy.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl RemoteShard {
    /// Dials `addr` and seeds the worker with the shard's rows under `key`
    /// (reset → chunked load → seal). Fails if the worker is unreachable or refuses
    /// the load, so a dataset never registers with a half-placed fabric.
    pub fn connect(
        addr: SocketAddr,
        key: String,
        rows: Arc<TransactionDb>,
        fabric: Arc<Fabric>,
    ) -> io::Result<RemoteShard> {
        let shard = RemoteShard {
            addr,
            key,
            rows,
            fabric,
            conn: Mutex::new(None),
            healthy: AtomicBool::new(false),
            hedge_after: DEFAULT_HEDGE_AFTER,
        };
        let mut client = shard.dial()?;
        shard.seed(&mut client).map_err(io::Error::other)?;
        *shard.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(client);
        shard.healthy.store(true, Ordering::SeqCst);
        Ok(shard)
    }

    /// The worker's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dataset/shard key the worker serves this shard under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The shard's retained rows.
    pub fn rows(&self) -> &Arc<TransactionDb> {
        &self.rows
    }

    /// False after the last op against this worker failed; true again once an op
    /// (including the transparent re-seed path) succeeds.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Shard-local supports for a batch of candidates, in request order. Zeros on
    /// failure (the failure is recorded on the [`Fabric`]).
    pub fn supports(&self, candidates: &[ItemSet]) -> Vec<usize> {
        let sets: Vec<Vec<u32>> = candidates.iter().map(|c| c.items().to_vec()).collect();
        let counts = self.call(&|client| client.shard_supports(&self.key, sets.clone()));
        match counts {
            Some(counts) if counts.len() == candidates.len() => {
                counts.into_iter().map(|c| c as usize).collect()
            }
            Some(counts) => {
                self.fail(format!(
                    "expected {} supports, got {}",
                    candidates.len(),
                    counts.len()
                ));
                vec![0; candidates.len()]
            }
            None => vec![0; candidates.len()],
        }
    }

    /// Shard-local pair counts over `items`. The wire carries one count per
    /// `(items[i], items[j])` with `i < j` in request order — zeros included — which
    /// is the flat order of [`PairCounts`], so per-shard results merge positionally.
    /// Zeros on failure.
    pub fn pair_counts(&self, items: &ItemSet) -> PairCounts {
        let flat: Vec<u32> = items.items().to_vec();
        let expected = num_pairs(flat.len());
        let counts = self.call(&|client| client.shard_pairs(&self.key, flat.clone()));
        match counts {
            Some(counts) if counts.len() == expected => {
                let counts = counts.into_iter().map(|c| c as usize).collect();
                PairCounts::from_flat(items, counts)
            }
            Some(counts) => {
                self.fail(format!(
                    "expected {expected} pair counts, got {}",
                    counts.len()
                ));
                PairCounts::zeros(items)
            }
            None => PairCounts::zeros(items),
        }
    }

    /// Shard-local bin histograms, one per basis in request order (each of length
    /// `2^|basis|`). All-zero histograms on failure.
    pub fn bin_histograms(&self, bases: &[ItemSet]) -> Vec<Vec<u64>> {
        let zeros = || -> Vec<Vec<u64>> {
            bases
                .iter()
                .map(|b| vec![0u64; 1usize << b.len()])
                .collect()
        };
        let sets: Vec<Vec<u32>> = bases.iter().map(|b| b.items().to_vec()).collect();
        let hists = self.call(&|client| client.shard_histograms(&self.key, sets.clone()));
        match hists {
            Some(hists)
                if hists.len() == bases.len()
                    && hists
                        .iter()
                        .zip(bases)
                        .all(|(h, b)| h.len() == 1usize << b.len()) =>
            {
                hists
            }
            Some(_) => {
                self.fail("histogram response shape does not match the request".to_string());
                zeros()
            }
            None => zeros(),
        }
    }

    /// Runs one op with hedging: the live connection under the hedge deadline
    /// first, then one fresh connection under the full deadline. `None` means the
    /// op failed and the failure was recorded on the fabric.
    fn call<T>(&self, op: &dyn Fn(&mut PbClient) -> Result<T, ClientError>) -> Option<T> {
        let observer = self.fabric.observer();
        let trace = self.fabric.trace_label();
        let started = observer.as_ref().map_or(0, |o| o.now());
        let addr = self.addr.to_string();
        let report = |ok: bool, hedged: bool, reseeded: bool| {
            if let Some(o) = observer.as_ref() {
                o.rpc(
                    trace.as_deref(),
                    &addr,
                    started,
                    o.now(),
                    ok,
                    hedged,
                    reseeded,
                );
            }
        };
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let had_live_conn = conn.is_some();
        if let Some(client) = conn.as_mut() {
            client.set_id_prefix(trace.clone());
            let hedged = client
                .set_read_timeout(Some(self.hedge_after))
                .map_err(ClientError::Io)
                .and_then(|()| self.round_trip(client, op));
            if let Ok(value) = hedged {
                self.healthy.store(true, Ordering::SeqCst);
                report(true, false, false);
                return Some(value);
            }
        }
        // Hedge: the first attempt failed (or no connection exists). Dial fresh —
        // the old socket may hold a half-read response — and replay the op, which
        // is a deterministic exact count and therefore always safe to re-ask.
        *conn = None;
        if had_live_conn {
            self.fabric.note_hedge(&addr);
        }
        match self.retry_fresh(op, trace.clone()) {
            Ok((client, value, reseeded)) => {
                *conn = Some(client);
                self.healthy.store(true, Ordering::SeqCst);
                if reseeded {
                    self.fabric.note_reseed(&addr);
                }
                report(true, had_live_conn, reseeded);
                Some(value)
            }
            Err(error) => {
                self.healthy.store(false, Ordering::SeqCst);
                self.fabric.record(
                    &addr,
                    format!("worker {} ({}): {error}", self.addr, self.key),
                );
                report(false, had_live_conn, false);
                None
            }
        }
    }

    fn retry_fresh<T>(
        &self,
        op: &dyn Fn(&mut PbClient) -> Result<T, ClientError>,
        trace: Option<String>,
    ) -> Result<(PbClient, T, bool), ClientError> {
        let mut client = self.dial().map_err(ClientError::Io)?;
        client.set_id_prefix(trace);
        match self.round_trip(&mut client, op) {
            Ok(value) => Ok((client, value, false)),
            Err(ClientError::Server(e)) if e.code == ErrorCode::UnknownDataset => {
                // The worker restarted and lost its in-memory shard: re-seed from
                // the retained rows, then ask once more.
                self.seed(&mut client)?;
                let value = self.round_trip(&mut client, op)?;
                Ok((client, value, true))
            }
            Err(error) => Err(error),
        }
    }

    /// One request/response leg with its fault sites armed around the wire IO.
    fn round_trip<T>(
        &self,
        client: &mut PbClient,
        op: &dyn Fn(&mut PbClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        pb_fault::inject!("fabric.write").map_err(ClientError::Io)?;
        let value = op(client)?;
        pb_fault::inject!("fabric.read").map_err(ClientError::Io)?;
        Ok(value)
    }

    fn dial(&self) -> io::Result<PbClient> {
        pb_fault::inject!("fabric.connect")?;
        PbClient::connect(self.addr)
    }

    /// Ships the shard's rows to the worker: reset on the first chunk, seal on the
    /// last, chunk sizes bounded so every request line stays under the server cap.
    fn seed(&self, client: &mut PbClient) -> Result<(), ClientError> {
        let rows = self.rows.transactions();
        let mut chunk: Vec<Vec<u32>> = Vec::new();
        let mut bytes = 0usize;
        let mut first = true;
        for (i, row) in rows.iter().enumerate() {
            // ~11 bytes per item ("4294967295,") plus row framing.
            bytes += 11 * row.len() + 4;
            chunk.push(row.items().to_vec());
            let last = i + 1 == rows.len();
            if bytes >= LOAD_CHUNK_BYTES || last {
                client.shard_load(&self.key, std::mem::take(&mut chunk), first, last)?;
                first = false;
                bytes = 0;
            }
        }
        if first {
            // An empty shard still registers its key (reset and seal in one call).
            client.shard_load(&self.key, Vec::new(), true, true)?;
        }
        Ok(())
    }

    fn fail(&self, message: String) {
        self.healthy.store(false, Ordering::SeqCst);
        self.fabric.record(
            &self.addr.to_string(),
            format!("worker {} ({}): {message}", self.addr, self.key),
        );
    }
}
